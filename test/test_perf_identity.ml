(* Perf-PR safety net: the allocation-free hot paths must not change any
   observable behaviour, and must actually be allocation-free.

   Three groups:

   - Packed segment log: the tag-packed [int] encoding round-trips every
     entry kind, and replaying a packed log — including rollback to an
     arbitrary checkpoint, the crash-mid-segment case — reproduces exactly
     the boxed entry sequence it encodes.

   - Allocation budget: [Gc.minor_words] across 10k fast-path operations
     (non-transactional accesses; whole HTM segments; scheduler charges
     and crossovers) stays under a fixed per-op budget with tracing and
     profiling off.  This is the regression tripwire for someone
     reintroducing a closure, [Some] box, or fresh table on a per-access
     path.

   - Same-seed identity goldens: re-running the pinned list/queue/hash/
     skip-list configurations across schemes reproduces the committed
     result JSON (and the Chrome traces) byte-for-byte.  These goldens were generated
     BEFORE the hot-path rewrites, so they pin the rewrites to the old
     behaviour, interleaving included. *)

open St_sim
open St_mem
open St_htm
open St_harness
module Packed_log = Stacktrack.Packed_log

let quick name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Packed segment log                                                  *)
(* ------------------------------------------------------------------ *)

let entry_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Packed_log.E_read v) (int_range (-1_000_000) 1_000_000);
        return Packed_log.E_write;
        map (fun b -> Packed_log.E_cas b) bool;
        map (fun v -> Packed_log.E_rand v) (int_range 0 1_000_000);
        map (fun v -> Packed_log.E_alloc v) (int_range 0 1_000_000);
        return Packed_log.E_retire;
      ])

let entry_arb = QCheck.make ~print:Packed_log.entry_to_string entry_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode e) = e, all kinds" ~count:500
    entry_arb
    (fun e -> Packed_log.decode (Packed_log.encode e) = e)

let prop_pack_payload =
  (* The law underneath the boxed view: payload survives the tag shift,
     signs included. *)
  QCheck.Test.make ~name:"payload (pack ~tag p) = p" ~count:500
    QCheck.(pair (int_range 0 5) (int_range (-1_000_000_000) 1_000_000_000))
    (fun (tag, p) ->
      let packed = Packed_log.pack ~tag p in
      Packed_log.tag packed = tag && Packed_log.payload packed = p)

let test_roundtrip_extremes () =
  (* The documented payload range, exactly at its edges. *)
  List.iter
    (fun p ->
      List.iter
        (fun tag ->
          let packed = Packed_log.pack ~tag p in
          Alcotest.(check int)
            (Printf.sprintf "payload %d tag %d" p tag)
            p (Packed_log.payload packed))
        [
          Packed_log.tag_read;
          Packed_log.tag_write;
          Packed_log.tag_cas;
          Packed_log.tag_rand;
          Packed_log.tag_alloc;
          Packed_log.tag_retire;
        ])
    [ Packed_log.max_payload; Packed_log.min_payload; 0; 1; -1 ]

let decode_all log =
  List.init (Vec.length log) (fun i -> Packed_log.decode (Vec.get log i))

(* Replay equivalence against the boxed reference: encoding a segment's
   entries, rolling back to an arbitrary checkpoint (what a crash mid-
   segment does to the log), and re-appending the tail must leave a log
   that decodes to exactly the original boxed sequence. *)
let prop_replay_equivalence =
  QCheck.Test.make
    ~name:"packed log replay = boxed entries (any crash point)" ~count:300
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 64) entry_arb) small_nat)
    (fun (entries, cut) ->
      let log = Vec.create () in
      List.iter (fun e -> Vec.push log (Packed_log.encode e)) entries;
      let full_ok = decode_all log = entries in
      (* Crash mid-segment: rollback truncates to the checkpoint, the
         segment re-executes deterministically and appends the same tail. *)
      let cut = min cut (List.length entries) in
      Vec.truncate log cut;
      List.iteri
        (fun i e -> if i >= cut then Vec.push log (Packed_log.encode e))
        entries;
      full_ok && decode_all log = entries)

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

(* One thread, tracing/profiling off: with a single runnable lcore the
   scheduler's consume fast path never suspends, so the measured words are
   the access paths' own allocations.  The budgets are deliberately loose
   (real numbers are ~0) but tight enough that one boxed option or closure
   per op (>= 2 words each) trips them. *)

let measure_thread_alloc body =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:2 ()) ~seed:11 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~sched ~heap () in
  let words = ref infinity in
  let _ =
    Sched.add_thread sched (fun _tid ->
        let addr = Tsx.alloc tsx ~size:4 in
        (* Warm-up: grow heap/line tables and scheduler state out of the
           measured window. *)
        body tsx addr 100;
        let w0 = Gc.minor_words () in
        body tsx addr 10_000;
        words := Gc.minor_words () -. w0)
  in
  Sched.run sched;
  !words

let check_budget name ops words budget =
  let per_op = words /. float_of_int ops in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4f minor words/op <= %.2f" name per_op budget)
    true (per_op <= budget)

let test_alloc_budget_nt () =
  let words =
    measure_thread_alloc (fun tsx addr n ->
        for _ = 1 to n do
          ignore (Tsx.nt_read tsx addr);
          Tsx.nt_write tsx addr 42
        done)
  in
  (* 2 accesses per iteration. *)
  check_budget "nt read/write" 20_000 words 0.5

let test_alloc_budget_txn () =
  let words =
    measure_thread_alloc (fun tsx addr n ->
        for _ = 1 to n do
          Tsx.start tsx;
          ignore (Tsx.read tsx addr);
          Tsx.write tsx addr 7;
          ignore (Tsx.read tsx (addr + 1));
          Tsx.commit tsx
        done)
  in
  (* Whole segments: start + 3 accesses + commit.  Zero: the active
     registry is flat tid arrays (shift insert/remove), so not even the
     per-segment list cons survives. *)
  check_budget "txn segment" 10_000 words 0.0

(* The trampoline consume fast path: a charge that does not cross the
   event-wheel horizon is a plain function call — three int updates and a
   compare — and must allocate NOTHING.  One thread on the machine means
   [next_event] stays at [max_int], so none of the 10k charges performs
   the scheduling effect; the only tolerated words are the [Gc.minor_words]
   result boxes themselves (a few words total, not per charge). *)
let test_alloc_budget_consume () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:2 ()) ~seed:3 ()
  in
  let words = ref infinity in
  let _ =
    Sched.add_thread sched (fun _tid ->
        Sched.consume sched 100;
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          Sched.consume sched 7
        done;
        words := Gc.minor_words () -. w0)
  in
  Sched.run sched;
  Alcotest.(check bool)
    (Printf.sprintf "no-effect consume allocates nothing (%.1f words/10k)"
       !words)
    true
    (!words <= 8.0)

(* The crossover path: two threads on two lcores charging one cycle at a
   time hand the machine to each other on every charge, so each charge is
   a [perform]/[continue] round trip.  The shared last-tid cell proves the
   alternation (hence that every charge in the window is a crossover).  A
   yield may cost what the runtime charges for capturing the continuation
   (2 words on OCaml 5.1) and nothing of the scheduler's own; the bound
   leaves one word for other runtimes' continuation layout. *)
let test_alloc_budget_crossover () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:2 ~smt:1 ()) ~seed:5 ()
  in
  let n = 10_000 and warm = 100 in
  let last = ref (-1) and alternated = ref true in
  let words = ref infinity in
  let charge tid =
    if !last = tid then alternated := false;
    last := tid;
    Sched.consume sched 1
  in
  let body tid =
    for _ = 1 to warm do
      charge tid
    done;
    let w0 = if tid = 0 then Gc.minor_words () else 0. in
    for _ = 1 to n do
      charge tid
    done;
    if tid = 0 then words := Gc.minor_words () -. w0
  in
  ignore (Sched.add_thread sched body);
  ignore (Sched.add_thread sched body);
  Sched.run sched;
  Alcotest.(check bool) "strict alternation" true !alternated;
  (* Thread 0's window spans its own [n] charges and thread 1's [n]. *)
  check_budget "crossover" (2 * n) !words 3.0

(* ------------------------------------------------------------------ *)
(* Same-seed identity goldens                                          *)
(* ------------------------------------------------------------------ *)

(* Mirror of the bin/stacktrack_bench.exe run-subcommand defaults that
   produced the identity goldens (same mirror as test_analyze's
   [golden_cfg], at the identity runs' duration). *)
let identity_cfg structure scheme threads =
  {
    Experiment.default_config with
    structure;
    scheme;
    threads;
    duration = 250_000;
    key_range = 1024;
    init_size = 512;
    mutation_pct = 20;
    seed = 0xC0FFEE;
    n_buckets = 512;
  }

let hash_scan_scheme =
  Experiment.Stacktrack_s
    { Stacktrack.St_config.default with hash_scan = true; max_free = 4 }

let hash_smr_cfg scheme =
  {
    (identity_cfg Experiment.Hash_s scheme 8) with
    Experiment.key_range = 4096;
    init_size = 2048;
    mutation_pct = 50;
  }

let identity_cases =
  [
    ( "goldens/identity_list_st.json",
      identity_cfg Experiment.List_s Experiment.stacktrack_default 12 );
    ( "goldens/identity_list_st_hashscan.json",
      identity_cfg Experiment.List_s hash_scan_scheme 12 );
    ( "goldens/identity_list_hazards.json",
      identity_cfg Experiment.List_s Experiment.Hazards 12 );
    ( "goldens/identity_list_epoch.json",
      identity_cfg Experiment.List_s Experiment.Epoch 12 );
    ( "goldens/identity_list_dta.json",
      identity_cfg Experiment.List_s Experiment.Dta 12 );
    ( "goldens/identity_queue_st.json",
      identity_cfg Experiment.Queue_s Experiment.stacktrack_default 8 );
    ( "goldens/identity_queue_hazards.json",
      identity_cfg Experiment.Queue_s Experiment.Hazards 8 );
    ( "goldens/identity_queue_epoch.json",
      identity_cfg Experiment.Queue_s Experiment.Epoch 8 );
    ( "goldens/identity_list_debra.json",
      identity_cfg Experiment.List_s Experiment.Debra 12 );
    ( "goldens/identity_list_debra_plus.json",
      identity_cfg Experiment.List_s Experiment.Debra_plus 12 );
    ( "goldens/identity_list_hazard_eras.json",
      identity_cfg Experiment.List_s Experiment.Hazard_eras 12 );
    (* Scaled-down hash-smr slice (the benchmark's manual-scheme workload:
       4096 keys / 2048 live / 512 buckets, 50% mutations) under every
       scheme it runs, plus the skip list and reference counting (the only
       scheme priming link counts during raw population). *)
    ( "goldens/identity_hash_hazards.json",
      hash_smr_cfg Experiment.Hazards );
    ( "goldens/identity_hash_hazard_eras.json",
      hash_smr_cfg Experiment.Hazard_eras );
    ("goldens/identity_hash_epoch.json", hash_smr_cfg Experiment.Epoch);
    ("goldens/identity_hash_debra.json", hash_smr_cfg Experiment.Debra);
    ( "goldens/identity_hash_debra_plus.json",
      hash_smr_cfg Experiment.Debra_plus );
    (* StackTrack on the same hash shape: the scheme the million-object
       hash workload runs, over the raw-populated bucket chains. *)
    ( "goldens/identity_hash_st.json",
      hash_smr_cfg Experiment.stacktrack_default );
    ( "goldens/identity_skiplist_st.json",
      identity_cfg Experiment.Skiplist_s Experiment.stacktrack_default 8 );
    ( "goldens/identity_skiplist_hazards.json",
      identity_cfg Experiment.Skiplist_s Experiment.Hazards 8 );
    (* 80 threads with a short quantum, so every tid runs transactions,
       on a 256-key list contended enough that tids 63-79 doom and are
       doomed through the second bit-word of Tsx's per-line reader/writer
       bitsets. *)
    ( "goldens/identity_list_st80.json",
      {
        (identity_cfg Experiment.List_s Experiment.stacktrack_default 80) with
        Experiment.quantum = 10_000;
        key_range = 256;
        init_size = 128;
      } );
    ( "goldens/identity_list_refcount.json",
      identity_cfg Experiment.List_s Experiment.Refcount_s 12 );
    (* The lifecycle ledger rides the same run: its per-object event
       stream and its sampler timer ([Sched.at]) are pinned here, and the
       result outside [reclaim_lifecycle] is identity_list_st.json's. *)
    ( "goldens/identity_list_st_lifecycle.json",
      {
        (identity_cfg Experiment.List_s Experiment.stacktrack_default 12) with
        Experiment.lifecycle = true;
      } );
  ]

let test_identity_goldens () =
  List.iter
    (fun (golden, cfg) ->
      let r = Experiment.run cfg in
      Alcotest.(check string)
        (golden ^ " byte-identical")
        (read_file golden)
        (Result_json.to_string r ^ "\n"))
    identity_cases

let test_identity_trace_golden () =
  let trace = Trace.create ~capacity:4096 ~enabled:true () in
  let cfg =
    {
      (identity_cfg Experiment.List_s Experiment.stacktrack_default 4) with
      Experiment.duration = 60_000;
      trace = Some trace;
    }
  in
  let _ = Experiment.run cfg in
  Alcotest.(check string)
    "goldens/identity_trace_list_st.json byte-identical"
    (read_file "goldens/identity_trace_list_st.json")
    (Chrome_trace.to_string trace ^ "\n")

(* Chrome traces of the manual schemes' retire/scan/stall/neutralize
   events, pinned as MD5 digests of the [--trace-out] file bytes (the
   traces themselves are ~100 KB each).  One line per case,
   ["<case> <md5>"]. *)
let smr_trace_cases =
  let hash scheme =
    {
      (hash_smr_cfg scheme) with
      Experiment.threads = 4;
      duration = 100_000;
    }
  in
  let list400k ?(crash_tids = []) scheme =
    {
      (identity_cfg Experiment.List_s scheme 4) with
      Experiment.duration = 400_000;
      mutation_pct = 50;
      crash_tids;
    }
  in
  [
    ("hash_epoch", hash Experiment.Epoch);
    ("hash_hazards", hash Experiment.Hazards);
    ("hash_hazard-eras", hash Experiment.Hazard_eras);
    ("hash_debra", hash Experiment.Debra);
    ("hash_debra+", hash Experiment.Debra_plus);
    ("list_dta", list400k Experiment.Dta);
    ("list_epoch_crash", list400k ~crash_tids:[ 0 ] Experiment.Epoch);
    ("list_dta_crash", list400k ~crash_tids:[ 0 ] Experiment.Dta);
    ("list_hazards_crash", list400k ~crash_tids:[ 0 ] Experiment.Hazards);
    ("list_hazard-eras_crash", list400k ~crash_tids:[ 0 ] Experiment.Hazard_eras);
    ("list_debra_crash", list400k ~crash_tids:[ 0 ] Experiment.Debra);
    ("list_debra+_crash", list400k ~crash_tids:[ 0 ] Experiment.Debra_plus);
  ]

let test_smr_trace_digests () =
  let lines =
    List.map
      (fun (name, cfg) ->
        let trace = Trace.create ~capacity:200_000 ~enabled:true () in
        let _ = Experiment.run { cfg with Experiment.trace = Some trace } in
        let bytes = Chrome_trace.to_string trace ^ "\n" in
        Printf.sprintf "%s %s\n" name (Digest.to_hex (Digest.string bytes)))
      smr_trace_cases
  in
  Alcotest.(check string)
    "goldens/identity_trace_smr_digests.txt byte-identical"
    (read_file "goldens/identity_trace_smr_digests.txt")
    (String.concat "" lines)

let () =
  Alcotest.run "perf_identity"
    [
      ( "packed_log",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_pack_payload;
          quick "payload range edges" test_roundtrip_extremes;
          QCheck_alcotest.to_alcotest prop_replay_equivalence;
        ] );
      ( "alloc_budget",
        [
          quick "nt access path" test_alloc_budget_nt;
          quick "txn segment path" test_alloc_budget_txn;
          quick "consume fast path" test_alloc_budget_consume;
          quick "crossover yield" test_alloc_budget_crossover;
        ] );
      ( "identity",
        [
          quick "result JSON across schemes" test_identity_goldens;
          quick "chrome trace" test_identity_trace_golden;
          quick "manual-scheme chrome traces" test_smr_trace_digests;
        ] );
    ]
