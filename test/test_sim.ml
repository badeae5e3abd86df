(* Tests for the simulation kernel: PRNG determinism and distribution,
   topology placement, and scheduler semantics (determinism, fairness,
   multiplexing, preemption hooks, crash injection, HT penalty). *)

open St_sim

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.next a <> Rng.next b then distinct := true
  done;
  checkb "different seeds differ" true !distinct

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let d = Rng.split a in
  checkb "split streams differ" true (Rng.next c <> Rng.next d)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_uniformish () =
  let r = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "bucket %d near 10%%" i) true
        (c > n / 10 * 9 / 10 && c < n / 10 * 11 / 10))
    buckets

let test_rng_copy () =
  let r = Rng.create ~seed:5 in
  let _ = Rng.next r in
  let c = Rng.copy r in
  checki "copy continues identically" (Rng.next r) (Rng.next c)

let test_rng_pct () =
  let r = Rng.create ~seed:9 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.pct r 20 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  checkb "pct 20 near 0.2" true (ratio > 0.18 && ratio < 0.22)

let rng_nonneg =
  QCheck.Test.make ~name:"rng values non-negative" ~count:1000
    QCheck.(pair small_int small_int)
    (fun (seed, steps) ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 0 to steps mod 50 do
        if Rng.next r < 0 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_defaults () =
  let t = Topology.create () in
  checki "8 lcores" 8 (Topology.lcores t)

let test_topology_siblings () =
  let t = Topology.create () in
  check Alcotest.(option int) "sibling of 0" (Some 1) (Topology.sibling t 0);
  check Alcotest.(option int) "sibling of 5" (Some 4) (Topology.sibling t 5);
  let t1 = Topology.create ~smt:1 () in
  check Alcotest.(option int) "no smt" None (Topology.sibling t1 3)

let test_topology_core_of () =
  let t = Topology.create () in
  checki "core of lcore 0" 0 (Topology.core_of t 0);
  checki "core of lcore 1" 0 (Topology.core_of t 1);
  checki "core of lcore 7" 3 (Topology.core_of t 7)

let test_topology_placement_spreads () =
  let t = Topology.create () in
  (* First four threads on distinct physical cores. *)
  let cores =
    List.init 4 (fun i -> Topology.core_of t (Topology.placement t i))
  in
  check
    Alcotest.(list int)
    "distinct cores first" [ 0; 1; 2; 3 ] (List.sort compare cores);
  (* Threads 4..7 fill hyperthread siblings: all 8 lcores used once. *)
  let lcs = List.init 8 (fun i -> Topology.placement t i) in
  check
    Alcotest.(list int)
    "all lcores used" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.sort compare lcs);
  (* Thread 8 wraps onto lcore 0's placement. *)
  checki "wraps" (Topology.placement t 0) (Topology.placement t 8)

(* ------------------------------------------------------------------ *)
(* Sched                                                               *)
(* ------------------------------------------------------------------ *)

let mk ?(quantum = 50_000) ?(seed = 1) ?(cores = 4) ?(smt = 2) () =
  Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum ~seed ()

let test_sched_runs_all () =
  let s = mk () in
  let done_ = Array.make 5 false in
  for i = 0 to 4 do
    let _ =
      Sched.add_thread s (fun tid ->
          Sched.consume s 10;
          done_.(tid) <- true)
    in
    ignore i
  done;
  Sched.run s;
  Array.iteri (fun i d -> checkb (Printf.sprintf "thread %d ran" i) true d) done_

let test_sched_clock_advances () =
  let s = mk () in
  let t_end = ref 0 in
  let _ =
    Sched.add_thread s (fun _ ->
        Sched.consume s 100;
        Sched.consume s 50;
        t_end := Sched.now s)
  in
  Sched.run s;
  checki "clock sums costs" 150 !t_end;
  checki "global time" 150 (Sched.global_time s)

let test_sched_parallel_cores () =
  (* Two threads on distinct cores run in parallel: makespan = max, not sum. *)
  let s = mk () in
  let _ = Sched.add_thread s (fun _ -> for _ = 1 to 10 do Sched.consume s 100 done) in
  let _ = Sched.add_thread s (fun _ -> for _ = 1 to 10 do Sched.consume s 100 done) in
  Sched.run s;
  checki "parallel makespan" 1000 (Sched.global_time s)

let test_sched_multiplexing_serializes () =
  (* 16 threads on 8 lcores: two per lcore serialize. *)
  let s = mk ~quantum:1000 () in
  for _ = 1 to 16 do
    ignore (Sched.add_thread s (fun _ -> for _ = 1 to 10 do Sched.consume s 100 done))
  done;
  Sched.run s;
  (* Each lcore executes 2 threads x 1000 cycles plus context switches. *)
  checkb "multiplexed makespan >= 2000" true (Sched.global_time s >= 2000);
  checkb "context switches happened" true (Sched.context_switches s > 0)

let test_sched_no_preempt_when_alone () =
  let s = mk ~quantum:10 () in
  let _ =
    Sched.add_thread s (fun _ -> for _ = 1 to 100 do Sched.consume s 100 done)
  in
  Sched.run s;
  checki "no context switches when alone" 0 (Sched.context_switches s)

let test_sched_preempt_hook_fires () =
  let s = mk ~quantum:500 () in
  let preempted = ref [] in
  Sched.on_preempt s (fun tid -> preempted := tid :: !preempted);
  (* Two threads pinned to the same lcore: 8 full lcores means threads 0 and
     8 share lcore 0. *)
  for _ = 0 to 8 do
    ignore (Sched.add_thread s (fun _ -> for _ = 1 to 20 do Sched.consume s 100 done))
  done;
  Sched.run s;
  checkb "hooks fired" true (List.length !preempted > 0);
  checkb "thread 0 or 8 preempted" true
    (List.exists (fun t -> t = 0 || t = 8) !preempted)

let test_sched_deterministic () =
  let trace seed =
    let s = mk ~seed ~quantum:300 () in
    let events = ref [] in
    for _ = 0 to 9 do
      ignore
        (Sched.add_thread s (fun tid ->
             for i = 1 to 5 do
               Sched.consume s (50 + (tid * 7) + i);
               events := (tid, Sched.now s) :: !events
             done))
    done;
    Sched.run s;
    !events
  in
  check
    Alcotest.(list (pair int int))
    "identical traces" (trace 42) (trace 42)

let test_sched_crash () =
  let s = mk () in
  let reached = ref false in
  let victim =
    Sched.add_thread s (fun _ ->
        Sched.consume s 10;
        Sched.consume s 10;
        reached := true)
  in
  let _ =
    Sched.add_thread s (fun _ ->
        Sched.consume s 1;
        Sched.crash s victim)
  in
  Sched.run s;
  checkb "victim crashed" true (Sched.crashed s victim);
  checkb "victim did not complete" false !reached

let test_sched_crash_fires_preempt_hook () =
  let s = mk () in
  let fired = ref (-1) in
  Sched.on_preempt s (fun tid -> fired := tid);
  let victim = Sched.add_thread s (fun _ -> Sched.consume s 1000) in
  let _ =
    Sched.add_thread s (fun _ ->
        Sched.consume s 1;
        Sched.crash s victim)
  in
  Sched.run s;
  checki "hook saw victim" victim !fired

(* One-shot timers fire in deadline order (arming order on ties) at the
   first pick whose clock reaches the deadline, and cost the thread
   nothing: no extra thread, no cycles, no context switch. *)
let test_sched_timers () =
  let s = mk () in
  let fired = ref [] in
  let note name clock = fired := (name, clock) :: !fired in
  let tid =
    Sched.add_thread s (fun _ ->
        for _ = 1 to 100 do
          Sched.consume s 10
        done)
  in
  Sched.at s ~time:250 (note "a");
  Sched.at s ~time:250 (note "b");
  Sched.at s ~time:95 (fun clock ->
      note "c" clock;
      (* Already due: fires in the same pass. *)
      Sched.at s ~time:0 (note "d"));
  Sched.at s ~time:5_000 (note "never");
  Sched.run s;
  Alcotest.(check (list (pair string int)))
    "deadline order, firing clocks"
    [ ("c", 100); ("d", 100); ("a", 250); ("b", 250) ]
    (List.rev !fired);
  checki "no timer thread" 1 (Sched.n_threads s);
  checki "no context switch" 0 (Sched.context_switches s);
  checki "thread charged only its own work" 1000 (Sched.thread_consumed s tid);
  checki "makespan" 1000 (Sched.global_time s)

let test_sched_timer_crash () =
  let s = mk () in
  let body _ =
    for _ = 1 to 100 do
      Sched.consume s 10
    done
  in
  let survivor = Sched.add_thread s body in
  let victim = Sched.add_thread s body in
  Sched.at s ~time:500 (fun _ -> Sched.crash s victim);
  Sched.run s;
  checkb "victim crashed" true (Sched.crashed s victim);
  checki "victim stopped at the deadline" 500 (Sched.thread_consumed s victim);
  checkb "survivor finished" true (Sched.finished s survivor);
  checki "survivor ran to completion" 1000 (Sched.thread_consumed s survivor)

let test_sched_finished () =
  let s = mk () in
  let tid = Sched.add_thread s (fun _ -> Sched.consume s 1) in
  Sched.run s;
  checkb "finished" true (Sched.finished s tid);
  checkb "not crashed" false (Sched.crashed s tid)

let test_sched_ht_penalty () =
  (* A thread whose SMT sibling is active pays more per cycle consumed. *)
  let run n_threads =
    let s = mk ~quantum:max_int () in
    for _ = 1 to n_threads do
      ignore
        (Sched.add_thread s (fun _ ->
             for _ = 1 to 100 do Sched.consume s 100 done))
    done;
    Sched.run s;
    Sched.global_time s
  in
  let alone = run 4 in
  (* 5th thread lands on the sibling of core 0: threads 0 and 4 slow down. *)
  let shared = run 5 in
  checki "4 threads unpenalized" 10_000 alone;
  checkb "sibling pair penalized" true (shared > alone)

let test_sched_exception_propagates () =
  let s = mk () in
  let _ =
    Sched.add_thread s (fun _ ->
        Sched.consume s 1;
        failwith "boom")
  in
  Alcotest.check_raises "exception escapes run" (Failure "boom") (fun () ->
      Sched.run s)

let test_sched_thread_rng_independent () =
  let s = mk () in
  let a = Sched.add_thread s (fun _ -> ()) in
  let b = Sched.add_thread s (fun _ -> ()) in
  Sched.run s;
  checkb "per-thread rngs differ" true
    (Rng.next (Sched.thread_rng s a) <> Rng.next (Sched.thread_rng s b))

let test_sched_crash_before_start () =
  (* A thread crashed before it ever ran must never execute its body. *)
  let s = mk () in
  let ran = ref false in
  let victim = Sched.add_thread s (fun _ -> ran := true) in
  let _ =
    Sched.add_thread s (fun _ -> Sched.crash s victim)
  in
  (* The killer is on another lcore; whether the victim runs first depends
     on clocks — pin determinism by giving the victim a later placement. *)
  Sched.run s;
  if Sched.crashed s victim then checkb "body never ran" false !ran
  else checkb "ran before crash" true !ran

let test_sched_many_threads_all_finish () =
  let s = mk ~quantum:500 () in
  let n = 64 in
  let count = ref 0 in
  for _ = 1 to n do
    ignore
      (Sched.add_thread s (fun _ ->
           for _ = 1 to 20 do
             Sched.consume s 17
           done;
           incr count))
  done;
  Sched.run s;
  checki "all finished" n !count

let test_sched_zero_cost_consume () =
  (* Zero-cost consumes are legal yield points and must not stall. *)
  let s = mk () in
  let _ =
    Sched.add_thread s (fun _ ->
        for _ = 1 to 100 do
          Sched.consume s 0
        done)
  in
  Sched.run s;
  checki "no time passed" 0 (Sched.global_time s)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_records () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 3 do
    Trace.instant t ~time:(i * 10) ~tid:i Trace.Htm "evt" (fun () ->
        string_of_int i)
  done;
  checki "size" 3 (Trace.size t);
  let out = Format.asprintf "%t" (fun ppf -> Trace.dump t ppf) in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  checkb "has category" true (contains "htm" out);
  checkb "has name" true (contains "evt" out);
  checkb "has detail" true (contains "3" out)

let test_trace_ring_wraps () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 10 do
    Trace.instant t ~time:i ~tid:0 Trace.Sched "e" (fun () -> string_of_int i)
  done;
  checki "capped at capacity" 4 (Trace.size t);
  checki "total keeps counting" 10 (Trace.total t);
  checki "overflow tracked" 6 (Trace.dropped t)

let test_trace_disabled_free () =
  let t = Trace.create ~capacity:4 ~enabled:false () in
  let forced = ref false in
  Trace.instant t ~time:1 ~tid:0 Trace.Reclaim "e" (fun () ->
      forced := true;
      "x");
  checkb "detail not forced" false !forced;
  checki "nothing recorded" 0 (Trace.size t)

let test_trace_typed_events () =
  let t = Trace.create ~enabled:true () in
  Trace.span_begin t ~time:5 ~tid:1 Trace.Htm "txn" Trace.no_detail;
  Trace.span_end t ~time:9 ~tid:1 Trace.Htm "txn" (fun () -> "commit");
  Trace.instant t ~time:11 ~tid:2 Trace.Reclaim "retire" Trace.no_detail;
  match Trace.events t with
  | [ b; e; i ] ->
      checkb "begin phase" true (b.Trace.phase = Trace.Begin);
      checkb "end phase" true (e.Trace.phase = Trace.End);
      checkb "instant phase" true (i.Trace.phase = Trace.Instant);
      checki "begin time" 5 b.Trace.time;
      checkb "span name pairs" true (b.Trace.name = e.Trace.name);
      checkb "detail captured" true (e.Trace.detail = "commit");
      checkb "category label" true
        (Trace.category_name i.Trace.category = "reclaim")
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let () =
  Alcotest.run "st_sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniform-ish" `Quick test_rng_uniformish;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "pct" `Quick test_rng_pct;
          QCheck_alcotest.to_alcotest rng_nonneg;
        ] );
      ( "topology",
        [
          Alcotest.test_case "defaults" `Quick test_topology_defaults;
          Alcotest.test_case "siblings" `Quick test_topology_siblings;
          Alcotest.test_case "core_of" `Quick test_topology_core_of;
          Alcotest.test_case "placement spreads" `Quick
            test_topology_placement_spreads;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records;
          Alcotest.test_case "ring wraps" `Quick test_trace_ring_wraps;
          Alcotest.test_case "disabled is free" `Quick test_trace_disabled_free;
          Alcotest.test_case "typed events" `Quick test_trace_typed_events;
        ] );
      ( "sched",
        [
          Alcotest.test_case "runs all" `Quick test_sched_runs_all;
          Alcotest.test_case "clock advances" `Quick test_sched_clock_advances;
          Alcotest.test_case "parallel cores" `Quick test_sched_parallel_cores;
          Alcotest.test_case "multiplexing" `Quick
            test_sched_multiplexing_serializes;
          Alcotest.test_case "no preempt alone" `Quick
            test_sched_no_preempt_when_alone;
          Alcotest.test_case "preempt hook" `Quick test_sched_preempt_hook_fires;
          Alcotest.test_case "deterministic" `Quick test_sched_deterministic;
          Alcotest.test_case "crash" `Quick test_sched_crash;
          Alcotest.test_case "crash fires hook" `Quick
            test_sched_crash_fires_preempt_hook;
          Alcotest.test_case "finished" `Quick test_sched_finished;
          Alcotest.test_case "ht penalty" `Quick test_sched_ht_penalty;
          Alcotest.test_case "exception propagates" `Quick
            test_sched_exception_propagates;
          Alcotest.test_case "thread rng independent" `Quick
            test_sched_thread_rng_independent;
          Alcotest.test_case "crash before start" `Quick
            test_sched_crash_before_start;
          Alcotest.test_case "64 threads finish" `Quick
            test_sched_many_threads_all_finish;
          Alcotest.test_case "zero-cost consume" `Quick
            test_sched_zero_cost_consume;
          Alcotest.test_case "timers" `Quick test_sched_timers;
          Alcotest.test_case "timer crash" `Quick test_sched_timer_crash;
        ] );
    ]
