(* Host-time spans recorded around the calls that cross the dslib -> Guard
   boundary (and around each dslib operation), aggregated online into flat
   per-kind arrays so that a traced run of millions of accesses keeps a
   fixed footprint.

   Self time: every interval between two consecutive span events is
   charged to the innermost span open on the thread that was current at
   both events.  An interval across a fiber switch (the current simulated
   thread differs between the two events), or one in which no span is
   open, is charged to [sched_self_ns]: host time inside [Sched.run]
   outside every span.  The span accounts plus [sched_self_ns] therefore
   cover the traced wall time exactly; the self-test checks it. *)

open St_sim

type kind =
  | Contains
  | Insert
  | Delete
  | Run_op
  | Read  (** [read] and [protected_read] *)
  | Write_cas  (** [write] and [cas] *)
  | Alloc
  | Retire

let n_kinds = 8

let index = function
  | Contains -> 0
  | Insert -> 1
  | Delete -> 2
  | Run_op -> 3
  | Read -> 4
  | Write_cas -> 5
  | Alloc -> 6
  | Retire -> 7

let max_depth = 16
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  timed : bool;  (** [false]: count calls only, read no clock. *)
  delay_ns : int;  (** Busy-wait injected per delayed span (self-test). *)
  sched : Sched.t;
  calls : int array;  (** Per kind. *)
  self_ns : int array;  (** Per kind. *)
  stack : int array;  (** [tid * max_depth + d]: kind index. *)
  depth : int array;  (** Per tid. *)
  mutable last_t : int;
  mutable last_tid : int;
  mutable sched_self_ns : int;
  mutable run_start : int;
  mutable run_ns : int;
}

let create ?(delay_ns = 0) ~timed ~threads sched =
  {
    timed;
    delay_ns;
    sched;
    calls = Array.make n_kinds 0;
    self_ns = Array.make n_kinds 0;
    stack = Array.make (threads * max_depth) 0;
    depth = Array.make threads 0;
    last_t = 0;
    last_tid = -1;
    sched_self_ns = 0;
    run_start = 0;
    run_ns = 0;
  }

(* Charge the interval since the last event, seen by [tid] at [now]. *)
let charge t ~tid ~now =
  let dt = now - t.last_t in
  let d = t.depth.(tid) in
  if tid = t.last_tid && d > 0 then begin
    let k = t.stack.((tid * max_depth) + d - 1) in
    t.self_ns.(k) <- t.self_ns.(k) + dt
  end
  else t.sched_self_ns <- t.sched_self_ns + dt;
  t.last_t <- now;
  t.last_tid <- tid

let spin ns =
  let until = now_ns () + ns in
  while now_ns () < until do
    ()
  done

let push t ~tid k =
  charge t ~tid ~now:(now_ns ());
  let d = t.depth.(tid) in
  t.stack.((tid * max_depth) + d) <- k;
  t.depth.(tid) <- d + 1

let enter t kind =
  let k = index kind in
  t.calls.(k) <- t.calls.(k) + 1;
  if t.timed then push t ~tid:(Sched.current t.sched) k

(* The body of an operation runs inside the scheme's [run_op] but is dslib
   code: its self time goes to the dslib operation that opened the
   thread's outermost span. *)
let enter_body t =
  if t.timed then begin
    let tid = Sched.current t.sched in
    let k = if t.depth.(tid) > 0 then t.stack.(tid * max_depth) else index Run_op in
    push t ~tid k
  end

let exit t =
  if t.timed then begin
    let tid = Sched.current t.sched in
    charge t ~tid ~now:(now_ns ());
    t.depth.(tid) <- t.depth.(tid) - 1
  end

(* Bracket [Sched.run]: the first and last intervals belong to the
   scheduler, as does everything between events outside any span. *)
let run_begin t =
  let now = now_ns () in
  t.run_start <- now;
  t.last_t <- now;
  t.last_tid <- -1

let run_end t =
  let now = now_ns () in
  t.sched_self_ns <- t.sched_self_ns + (now - t.last_t);
  t.run_ns <- now - t.run_start

(* What a run leaves: plain data, so that keeping it does not keep the
   machine (reachable from [sched]) alive. *)
type summary = {
  s_calls : int array;
  s_self_ns : int array;
  s_sched_self_ns : int;
  s_run_ns : int;
  s_closed : bool;  (** Every span closed at the end. *)
}

let summary t =
  {
    s_calls = t.calls;
    s_self_ns = t.self_ns;
    s_sched_self_ns = t.sched_self_ns;
    s_run_ns = t.run_ns;
    s_closed = Array.for_all (fun d -> d = 0) t.depth;
  }

let calls s kind = s.s_calls.(index kind)
let self_ns s kind = s.s_self_ns.(index kind)
let accounted_ns s = Array.fold_left ( + ) s.s_sched_self_ns s.s_self_ns
let accesses s = calls s Read + calls s Write_cas
