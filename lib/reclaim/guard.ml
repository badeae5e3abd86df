open St_sim
open St_mem
open St_htm

(* Shared simulation plumbing handed to every scheme. *)
type runtime = {
  sched : Sched.t;
  tsx : Tsx.t;
  activity : St_machine.Activity.t;
}

let make_runtime ~sched ~tsx =
  { sched; tsx; activity = St_machine.Activity.create () }

let heap rt = Tsx.heap rt.tsx

type stats = {
  mutable retired : int;
  mutable freed : int;
  mutable scans : int;
  mutable scan_words : int;
  mutable stall_cycles : int;
  mutable protect_fences : int;
  retire_stamp : (int, int) Hashtbl.t;
  mutable lag_sum : int;
  mutable lag_max : int;
  mutable lifecycle : Lifecycle.t;
}

let make_stats () =
  {
    retired = 0;
    freed = 0;
    scans = 0;
    scan_words = 0;
    stall_cycles = 0;
    protect_fences = 0;
    retire_stamp = Hashtbl.create 64;
    lag_sum = 0;
    lag_max = 0;
    lifecycle = Lifecycle.disabled;
  }

(* Schemes call these from their retire/free paths (in addition to their
   own counters) so reclamation lag is measured uniformly. *)
let note_retire stats ~now addr =
  stats.retired <- stats.retired + 1;
  Hashtbl.replace stats.retire_stamp addr now;
  Lifecycle.on_retire stats.lifecycle ~now addr

let note_free stats ~now addr =
  stats.freed <- stats.freed + 1;
  match Hashtbl.find_opt stats.retire_stamp addr with
  | Some t0 ->
      let lag = now - t0 in
      Hashtbl.remove stats.retire_stamp addr;
      stats.lag_sum <- stats.lag_sum + lag;
      if lag > stats.lag_max then stats.lag_max <- lag
  | None -> ()

let mean_lag stats =
  if stats.freed = 0 then 0.
  else float_of_int stats.lag_sum /. float_of_int stats.freed

let merge_stats ss =
  let acc = make_stats () in
  List.iter
    (fun s ->
      acc.retired <- acc.retired + s.retired;
      acc.freed <- acc.freed + s.freed;
      acc.scans <- acc.scans + s.scans;
      acc.scan_words <- acc.scan_words + s.scan_words;
      acc.stall_cycles <- acc.stall_cycles + s.stall_cycles;
      acc.protect_fences <- acc.protect_fences + s.protect_fences;
      acc.lag_sum <- acc.lag_sum + s.lag_sum;
      if s.lag_max > acc.lag_max then acc.lag_max <- s.lag_max)
    ss;
  acc

module Peers = struct
  type t = int Vec.t

  let create () = Vec.create ()

  (* A re-registered tid must not be inspected twice per round. *)
  let register p tid =
    if not (Vec.exists (fun t -> t = tid) p) then Vec.push p tid

  let length = Vec.length
  let get = Vec.get

  let iter f p =
    for i = Vec.length p - 1 downto 0 do
      f (Vec.get p i)
    done
end

let free_noted rt stats addr =
  Tsx.free rt.tsx addr;
  note_free stats ~now:(Sched.now rt.sched) addr

let retire_noted rt stats ~tid ~pending addr =
  let sched = rt.sched in
  let tr = Sched.trace sched in
  if Trace.on tr then
    Trace.instant tr ~time:(Sched.now sched) ~tid Trace.Reclaim "retire"
      (fun () -> Printf.sprintf "addr=%d pending=%d" addr pending);
  note_retire stats ~now:(Sched.now sched) addr

let reclaim_pass ?detail rt stats ~tid ~pending body =
  let sched = rt.sched in
  let tr = Sched.trace sched in
  if Trace.on tr then
    Trace.span_begin tr ~time:(Sched.now sched) ~tid Trace.Reclaim "scan"
      (fun () -> Printf.sprintf "pending=%d" pending);
  stats.scans <- stats.scans + 1;
  let profile = Sched.profile sched in
  Profile.push_mode profile ~tid Profile.Reclaim_scan;
  (* Fun.protect: a crash (or neutralization) injected mid-pass unwinds
     through here and must still pop the attribution mode. *)
  let held =
    Fun.protect ~finally:(fun () -> Profile.pop_mode profile ~tid) body
  in
  if Trace.on tr then
    Trace.span_end tr ~time:(Sched.now sched) ~tid Trace.Reclaim "scan"
      (fun () ->
        match detail with
        | Some d -> d ~held
        | None -> Printf.sprintf "freed=%d held=%d" (pending - held) held)

module type S = sig
  type t
  type thread
  type env
  val name : string
  val create_thread : t -> tid:int -> thread
  val run_op : thread -> op_id:int -> (env -> 'a) -> 'a
  val read : env -> Word.addr -> Word.value
  val write : env -> Word.addr -> Word.value -> unit
  val cas : env -> Word.addr -> expect:Word.value -> Word.value -> bool
  val protected_read : env -> slot:int -> Word.addr -> Word.value
  val release : env -> slot:int -> unit
  val protect_value : env -> slot:int -> Word.value -> unit
  val local_set : env -> int -> Word.value -> unit
  val local_get : env -> int -> Word.value
  val block : env -> unit
  val rand : env -> int -> int
  val alloc : env -> size:int -> Word.addr
  val retire : env -> Word.addr -> unit
  val quiesce : thread -> unit
  val stats : t -> stats
end
