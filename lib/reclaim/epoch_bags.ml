open St_sim
open St_mem
open St_htm

type 'p scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  mutable epoch : int;
  announce : int array;
  registered : Guard.Peers.t;
  policy : 'p;
}

type 'p thread = {
  s : 'p scheme;
  tid : int;
  bags : Word.addr Vec.t array;
  mutable my_epoch : int;
  mutable check_idx : int;
  mutable blocked_on : int;
  mutable blocked_since : int;
}

module type POLICY = sig
  type t

  val name : string
  val on_register : t scheme -> tid:int -> unit
  val on_begin : t thread -> unit
  val stalled : t thread -> peer:int -> unit
  val blocks_drain : t thread -> peer:int -> bool
end

let bags_count = 3

let create rt policy =
  {
    rt;
    stats = Guard.make_stats ();
    epoch = 0;
    announce = Array.make Topology.max_threads 0;
    registered = Guard.Peers.create ();
    policy;
  }

module Hooks (P : POLICY) = struct
  type t = P.t scheme
  type nonrec thread = P.t thread

  let name = P.name
  let runtime t = t.rt
  let stats t = t.stats

  let create_thread s ~tid =
    Guard.Peers.register s.registered tid;
    P.on_register s ~tid;
    {
      s;
      tid;
      bags = Array.init bags_count (fun _ -> Vec.create ());
      my_epoch = 0;
      check_idx = 0;
      blocked_on = -1;
      blocked_since = 0;
    }

  (* Free one limbo bag in a batch.  Nodes are popped before each free so
     an unwind mid-batch (thread crash, or DEBRA+ neutralization) can
     never double-free on the restarted operation's re-rotation. *)
  let free_bag th bag =
    let pending = Vec.length bag in
    if pending > 0 then
      Guard.reclaim_pass th.s.rt th.s.stats ~tid:th.tid ~pending (fun () ->
          while Vec.length bag > 0 do
            let addr = Vec.get bag (Vec.length bag - 1) in
            Vec.truncate bag (Vec.length bag - 1);
            Guard.free_noted th.s.rt th.s.stats addr
          done;
          0)

  (* Advance this thread's view of the epoch to [e], freeing each bag as
     its index comes around again (its contents are then three epochs
     old; two would already suffice). *)
  let sync_bags th e =
    if e > th.my_epoch then begin
      if e - th.my_epoch >= bags_count then
        Array.iter (fun bag -> free_bag th bag) th.bags
      else
        for m = th.my_epoch + 1 to e do
          free_bag th th.bags.(m mod bags_count)
        done;
      th.my_epoch <- e;
      th.check_idx <- 0;
      th.blocked_on <- -1
    end

  (* The amortized epoch-advance check: inspect a single peer per
     operation.  Quiescent peers and peers announced at [e] pass; once
     every peer has passed for the same epoch, bump the global clock.  A
     peer stuck announced below [e] (preempted for a long time, or
     crashed) parks the rotating index on itself and is handed to the
     policy. *)
  let advance_check th e =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    let n = Guard.Peers.length s.registered in
    if n > 0 then begin
      if th.check_idx >= n then th.check_idx <- 0;
      let peer = Guard.Peers.get s.registered th.check_idx in
      let a = s.announce.(peer) in
      Sched.consume sched costs.load;
      s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 1;
      if peer = th.tid || a land 1 = 0 || a asr 1 >= e then begin
        th.blocked_on <- -1;
        th.check_idx <- th.check_idx + 1;
        if th.check_idx >= n && s.epoch = e then begin
          (* Saw every peer quiescent or at [e]: advance the clock. *)
          s.epoch <- e + 1;
          th.check_idx <- 0;
          Sched.consume sched costs.cas
        end
      end
      else P.stalled th ~peer
    end

  let on_begin th ~op_id:_ =
    P.on_begin th;
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    let e = s.epoch in
    Sched.consume sched costs.load;
    if e <> th.my_epoch then sync_bags th e;
    s.announce.(th.tid) <- (e lsl 1) lor 1;
    Sched.consume sched costs.store;
    advance_check th e

  let on_end th =
    let s = th.s in
    (* Quiescent announcement first, then the charge: the store is already
       visible at the thread's next suspension point, so a neutralizer
       (DEBRA+) deciding synchronously never signals a finished body. *)
    s.announce.(th.tid) <- th.my_epoch lsl 1;
    Sched.consume s.rt.Guard.sched (Sched.costs s.rt.Guard.sched).store

  let protected_read th ~slot:_ addr = Tsx.nt_read th.s.rt.Guard.tsx addr
  let release _ ~slot:_ = ()
  let protect_value _ ~slot:_ _ = ()

  let retire th addr =
    let bag = th.bags.(th.my_epoch mod bags_count) in
    Guard.retire_noted th.s.rt th.s.stats ~tid:th.tid
      ~pending:(Vec.length bag + 1) addr;
    Vec.push bag addr

  (* Between-operations drain: with no peer stuck inside an operation the
     epoch can be advanced directly; three rounds cycle every bag out.  A
     stuck peer stops the drain unless the policy disposes of it. *)
  let quiesce th =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    if Array.exists (fun bag -> Vec.length bag > 0) th.bags then
      let blocked = ref false in
      for _round = 1 to bags_count do
        if not !blocked then begin
          let e = s.epoch in
          Sched.consume sched costs.load;
          sync_bags th e;
          for i = 0 to Guard.Peers.length s.registered - 1 do
            let peer = Guard.Peers.get s.registered i in
            Sched.consume sched costs.load;
            s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 1;
            let a = s.announce.(peer) in
            if
              peer <> th.tid && a land 1 = 1 && a asr 1 < e
              && P.blocks_drain th ~peer
            then blocked := true
          done;
          if not !blocked then begin
            if s.epoch = e then begin
              s.epoch <- e + 1;
              Sched.consume sched costs.cas
            end;
            sync_bags th s.epoch
          end
        end
      done

  let alloc th ~size = Tsx.alloc th.s.rt.Guard.tsx ~size
  let write th addr v = Tsx.nt_write th.s.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.s.rt.Guard.tsx addr ~expect v
end
