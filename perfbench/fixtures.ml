(* Layer fixtures: one or two simulated threads calling public [Sched],
   [Tsx] and [Heap] functions in a loop.  Each fixture runs [batches]
   batches of [iters] calls and reports the median host ns per call and
   the minor-heap words allocated per call. *)

open St_sim
open St_mem
open St_htm

type cost = { ns : float; words : float }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let batches = 7

(* [batch ()] performs [per_batch] calls. *)
let measure ~per_batch batch =
  let ns = ref [] and words = ref [] in
  for _ = 1 to batches do
    let w0 = Gc.minor_words () in
    let t0 = Spans.now_ns () in
    batch ();
    let t1 = Spans.now_ns () in
    let w1 = Gc.minor_words () in
    ns := (Float.of_int (t1 - t0) /. Float.of_int per_batch) :: !ns;
    words := ((w1 -. w0) /. Float.of_int per_batch) :: !words
  done;
  { ns = median !ns; words = median !words }

(* Run [body] as simulated thread 0 of a fresh machine; [others] extra
   threads spin on [Sched.consume] until thread 0 is done. *)
let in_machine ?(cores = 4) ?(smt = 2) ?(quantum = 100_000) ?(others = 0) body =
  let topology = Topology.create ~cores ~smt () in
  let sched = Sched.create ~topology ~quantum ~seed:1 () in
  let result = ref None in
  let stop = ref false in
  ignore
    (Sched.add_thread sched (fun _ ->
         result := Some (body sched);
         stop := true));
  for _ = 1 to others do
    ignore
      (Sched.add_thread sched (fun _ ->
           while not !stop do
             Sched.consume sched 1
           done))
  done;
  Sched.run sched;
  Option.get !result

let iters = 200_000

let consume_loop sched n =
  for _ = 1 to n do
    Sched.consume sched 1
  done

(* Thread 0 alone: every charge stays under the event-wheel horizon. *)
let sched_consume () =
  in_machine (fun sched ->
      measure ~per_batch:iters (fun () -> consume_loop sched iters))

(* Two threads on two logical cores: every charge crosses the other
   core's clock, so each call is a fiber switch.  Thread 0 times its own
   [iters] calls, during which thread 1 makes as many. *)
let sched_crossover () =
  in_machine ~cores:2 ~smt:1 ~others:1 (fun sched ->
      measure ~per_batch:(2 * iters) (fun () -> consume_loop sched iters))

(* Two threads sharing one logical core with a one-cycle quantum: every
   charge expires the slice and preempts.  Cost per context switch, counted
   on a first, untimed batch. *)
let sched_ctx_switch () =
  in_machine ~cores:1 ~smt:1 ~quantum:1 ~others:1 (fun sched ->
      let c0 = Sched.context_switches sched in
      consume_loop sched iters;
      let per_batch = Sched.context_switches sched - c0 in
      measure ~per_batch (fun () -> consume_loop sched iters))

let lines = 8

(* A heap holding [lines] one-line objects, and a HTM manager over it. *)
let tsx_machine body =
  in_machine (fun sched ->
      let heap = Heap.create ~shadow:(Shadow.create ()) () in
      let objs = Array.init lines (fun _ -> Heap.alloc heap ~tid:0 ~size:4) in
      let tsx = Tsx.create ~sched ~heap () in
      body tsx objs)

type tsx_costs = {
  read : cost;
  write : cost;
  commit : cost;
  abort : cost;
  nt_read : cost;
  nt_cas : cost;
}

let tsx () =
  tsx_machine (fun tsx objs ->
      let addr i = objs.(i land (lines - 1)) in
      (* Transactions of [per_txn] calls, so that start and commit amortise
         away; the modelled cache-pressure eviction can abort a transaction
         at any access, and an aborted one is run again. *)
      let per_txn = 32 in
      let in_txns f =
        let i = ref 0 in
        while !i < iters do
          match
            Tsx.start tsx;
            for j = !i to !i + per_txn - 1 do
              f j
            done;
            Tsx.commit tsx
          with
          | () -> i := !i + per_txn
          | exception Tsx.Abort _ -> ()
        done
      in
      let read = measure ~per_batch:iters (fun () -> in_txns (fun i -> ignore (Tsx.read tsx (addr i)))) in
      let write = measure ~per_batch:iters (fun () -> in_txns (fun i -> Tsx.write tsx (addr i) i)) in
      let n = iters / 10 in
      let commit =
        measure ~per_batch:n (fun () ->
            for i = 1 to n do
              try
                Tsx.start tsx;
                Tsx.write tsx (addr i) i;
                Tsx.commit tsx
              with Tsx.Abort _ -> ()
            done)
      in
      let abort =
        measure ~per_batch:n (fun () ->
            for _ = 1 to n do
              Tsx.start tsx;
              try Tsx.abort tsx with Tsx.Abort _ -> ()
            done)
      in
      let nt_read =
        measure ~per_batch:iters (fun () ->
            for i = 1 to iters do
              ignore (Tsx.nt_read tsx (addr i))
            done)
      in
      let nt_cas =
        measure ~per_batch:iters (fun () ->
            for i = 1 to iters do
              let a = addr i in
              ignore (Tsx.nt_cas tsx a ~expect:(Tsx.nt_read tsx a) i)
            done)
      in
      { read; write; commit; abort; nt_read; nt_cas })

let heap_alloc_free () =
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  measure ~per_batch:iters (fun () ->
      for _ = 1 to iters do
        Heap.free heap ~tid:0 (Heap.alloc heap ~tid:0 ~size:4)
      done)

(* [Heap.owner_of] over [live] one-line objects, queried at seeded
   interior addresses. *)
let heap_owner_of ~seed ~live =
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let bases = Array.init live (fun _ -> Heap.alloc heap ~tid:0 ~size:4) in
  let rng = Rng.create ~seed in
  let queries = Array.init 4096 (fun _ -> bases.(Rng.int rng live) + Rng.int rng 4) in
  measure ~per_batch:iters (fun () ->
      for i = 0 to iters - 1 do
        ignore (Heap.owner_of heap (Array.unsafe_get queries (i land 4095)))
      done)
