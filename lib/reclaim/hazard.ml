open St_sim
open St_mem
open St_htm

let slots_per_thread = 40

type scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  batch : int;
  hazards : int array array; (* [tid].(slot) = protected base pointer *)
  registered : Guard.Peers.t;
}

module Hooks = struct
  type t = scheme

  type thread = {
    s : scheme;
    tid : int;
    buffer : Word.addr Vec.t;
    used_slots : bool array; (* cleared at op end *)
    scan_scratch : (int, unit) Hashtbl.t; (* protected-set table, reused *)
  }

  let name = "hazards"
  let runtime t = t.rt
  let stats t = t.stats

  let create_thread s ~tid =
    Guard.Peers.register s.registered tid;
    {
      s;
      tid;
      buffer = Vec.create ();
      used_slots = Array.make slots_per_thread false;
      scan_scratch = Hashtbl.create 64;
    }

  let on_begin _ ~op_id:_ = ()

  let clear_slot th slot =
    if th.s.hazards.(th.tid).(slot) <> 0 then begin
      th.s.hazards.(th.tid).(slot) <- 0;
      Sched.consume th.s.rt.Guard.sched
        (Sched.costs th.s.rt.Guard.sched).store
    end

  let on_end th =
    for slot = 0 to slots_per_thread - 1 do
      if th.used_slots.(slot) then begin
        clear_slot th slot;
        th.used_slots.(slot) <- false
      end
    done

  (* The publish-fence-validate protocol.  The validation re-read is what
     closes the race between loading a pointer and announcing it. *)
  let protected_read th ~slot addr =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    let rec attempt ~published =
      let v = Tsx.nt_read s.rt.Guard.tsx addr in
      let p = Word.unmark v in
      if not (p >= Word.heap_base) then begin
        (* If a retry landed here, the slot still holds the pointer whose
           validation just failed — a dead node.  Drop it, or it stays
           protected (and unreclaimable) until op end. *)
        if published then begin
          clear_slot th slot;
          th.used_slots.(slot) <- false
        end;
        v
      end
      else begin
        s.hazards.(th.tid).(slot) <- p;
        th.used_slots.(slot) <- true;
        Sched.consume sched costs.store;
        Tsx.fence s.rt.Guard.tsx;
        s.stats.Guard.protect_fences <- s.stats.Guard.protect_fences + 1;
        let v' = Tsx.nt_read s.rt.Guard.tsx addr in
        if v' = v then v else attempt ~published:true
      end
    in
    attempt ~published:false

  let release th ~slot = clear_slot th slot

  (* Hazard copy / private-node pin: no validation needed because the value
     is already protected (or still private) per the Guard contract. *)
  let protect_value th ~slot v =
    let p = Word.unmark v in
    if p >= Word.heap_base then begin
      th.s.hazards.(th.tid).(slot) <- p;
      th.used_slots.(slot) <- true;
      Sched.consume th.s.rt.Guard.sched
        (Sched.costs th.s.rt.Guard.sched).store
    end

  let scan th =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    Guard.reclaim_pass s.rt s.stats ~tid:th.tid
      ~pending:(Vec.length th.buffer) (fun () ->
        (* Reused per-thread scratch: [Hashtbl.clear] keeps the bucket
           array, so repeated scans stop allocating a fresh table each. *)
        let protected_set = th.scan_scratch in
        Hashtbl.clear protected_set;
        Guard.Peers.iter
          (fun tid ->
            for slot = 0 to slots_per_thread - 1 do
              let p = s.hazards.(tid).(slot) in
              Sched.consume sched costs.load;
              s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 1;
              if p <> 0 then Hashtbl.replace protected_set p ()
            done)
          s.registered;
        Vec.filter_in_place
          (fun addr ->
            if Hashtbl.mem protected_set addr then true
            else begin
              Guard.free_noted s.rt s.stats addr;
              false
            end)
          th.buffer;
        Vec.length th.buffer)

  let retire th addr =
    Guard.retire_noted th.s.rt th.s.stats ~tid:th.tid
      ~pending:(Vec.length th.buffer + 1) addr;
    Vec.push th.buffer addr;
    if Vec.length th.buffer >= th.s.batch then scan th

  let quiesce th = if Vec.length th.buffer > 0 then scan th
  let alloc th ~size = Tsx.alloc th.s.rt.Guard.tsx ~size
  let write th addr v = Tsx.nt_write th.s.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.s.rt.Guard.tsx addr ~expect v
end

include Simple.Make (Hooks)

let create ?(batch = 16) rt =
  {
    rt;
    stats = Guard.make_stats ();
    batch;
    hazards =
      Array.init Topology.max_threads (fun _ ->
          Array.make slots_per_thread 0);
    registered = Guard.Peers.create ();
  }
