(* Tests for the harness layer: the latency histogram math, experiment
   configuration knobs (topology, distribution, crash injection), result
   bookkeeping consistency, and a smoke pass over a figure preset. *)

open St_harness

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                   *)
(* ------------------------------------------------------------------ *)

let test_latency_basics () =
  let l = Latency.create () in
  List.iter (Latency.record l) [ 10; 20; 30; 40; 1000 ];
  checki "count" 5 (Latency.count l);
  checki "max" 1000 (Latency.max_value l);
  checkb "mean" true (abs_float (Latency.mean l -. 220.) < 1.);
  checkb "p50 in bucket of 20-30" true
    (Latency.percentile l 50. >= 16 && Latency.percentile l 50. <= 32);
  checkb "p99 reaches the tail" true (Latency.percentile l 99. >= 512)

let test_latency_percentile_monotone () =
  let l = Latency.create () in
  let rng = St_sim.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    Latency.record l (St_sim.Rng.int rng 100_000)
  done;
  let prev = ref 0 in
  List.iter
    (fun p ->
      let v = Latency.percentile l p in
      checkb (Printf.sprintf "p%.0f >= previous" p) true (v >= !prev);
      prev := v)
    [ 1.; 25.; 50.; 75.; 90.; 99.; 100. ]

let test_latency_merge () =
  let a = Latency.create () and b = Latency.create () in
  Latency.record a 10;
  Latency.record b 1000;
  let m = Latency.merge [ a; b ] in
  checki "merged count" 2 (Latency.count m);
  checki "merged max" 1000 (Latency.max_value m)

(* Boundary behaviour of the half-power-of-two bucketing. *)
let test_latency_bucket_boundaries () =
  (* Degenerate small values all land in bucket 0. *)
  checki "v=0" 0 (Latency.bucket_of 0);
  checki "v=1" 0 (Latency.bucket_of 1);
  (* Exact powers of two: 2^k lands in bucket 2k - 1 (so v=2 reaches
     bucket 1 — every index is populated). *)
  List.iter
    (fun k ->
      checki
        (Printf.sprintf "2^%d" k)
        ((2 * k) - 1)
        (Latency.bucket_of (1 lsl k)))
    [ 1; 2; 3; 10; 20; 30 ];
  (* Half-step values: 1.5 * 2^k lands in bucket 2k. *)
  List.iter
    (fun k ->
      checki (Printf.sprintf "1.5*2^%d" k) (2 * k)
        (Latency.bucket_of (3 lsl (k - 1))))
    [ 1; 2; 3; 10; 20 ];
  (* Just below a power of two stays in the upper half-bucket below it. *)
  checki "2^10 - 1" (2 * 9) (Latency.bucket_of ((1 lsl 10) - 1));
  (* Saturation: enormous values clamp to the last bucket. *)
  checki "max_int saturates" (Latency.n_buckets - 1) (Latency.bucket_of max_int);
  checki "2^60 saturates" (Latency.n_buckets - 1) (Latency.bucket_of (1 lsl 60))

let test_latency_bucket_low_roundtrip () =
  (* bucket_low i is the smallest value in bucket i: it maps back to i, and
     the value just below the next bucket's low bound still maps to i. *)
  checki "bucket_low 0" 0 (Latency.bucket_low 0);
  checki "bucket_low 1" 2 (Latency.bucket_low 1);
  for i = 0 to Latency.n_buckets - 2 do
    checki
      (Printf.sprintf "roundtrip %d" i)
      i
      (Latency.bucket_of (Latency.bucket_low i));
    checki
      (Printf.sprintf "upper edge of %d" i)
      i
      (Latency.bucket_of (Latency.bucket_low (i + 1) - 1))
  done

let test_latency_bucket_low_strictly_increasing () =
  for i = 1 to Latency.n_buckets - 1 do
    checkb
      (Printf.sprintf "bucket_low %d > bucket_low %d" i (i - 1))
      true
      (Latency.bucket_low i > Latency.bucket_low (i - 1))
  done

(* The containment law over a dense small-value sweep plus random large
   values: every recorded value lies inside its bucket's bounds. *)
let test_latency_bucket_invariant_sweep () =
  let check_v v =
    let b = Latency.bucket_of v in
    checkb (Printf.sprintf "low(bucket %d) <= %d" b v) true
      (Latency.bucket_low b <= v);
    if b < Latency.n_buckets - 1 then
      checkb
        (Printf.sprintf "%d < low(bucket %d)" v (b + 1))
        true
        (v < Latency.bucket_low (b + 1))
  in
  for v = 0 to 4096 do
    check_v v
  done;
  let rng = St_sim.Rng.create ~seed:11 in
  for _ = 1 to 2_000 do
    check_v (St_sim.Rng.int rng (1 lsl 50))
  done

(* Merging per-thread histograms must be indistinguishable from recording
   every value into a single histogram. *)
let test_latency_merge_equals_record_all () =
  let rng = St_sim.Rng.create ~seed:7 in
  let parts = Array.init 4 (fun _ -> Latency.create ()) in
  let all = Latency.create () in
  for i = 0 to 4_999 do
    let v = St_sim.Rng.int rng 5_000_000 in
    Latency.record parts.(i mod 4) v;
    Latency.record all v
  done;
  let m = Latency.merge (Array.to_list parts) in
  checki "count" (Latency.count all) (Latency.count m);
  checki "max" (Latency.max_value all) (Latency.max_value m);
  checkb "mean" true (Latency.mean all = Latency.mean m);
  List.iter
    (fun p ->
      checki
        (Printf.sprintf "p%.1f" p)
        (Latency.percentile all p)
        (Latency.percentile m p))
    [ 0.; 1.; 25.; 50.; 75.; 90.; 99.; 99.9; 100. ];
  checkb "nonzero buckets" true
    (Latency.nonzero_buckets all = Latency.nonzero_buckets m)

let test_latency_percentile_empty_singleton () =
  let empty = Latency.create () in
  List.iter
    (fun p -> checki (Printf.sprintf "empty p%.0f" p) 0 (Latency.percentile empty p))
    [ 0.; 50.; 100. ];
  checki "empty count" 0 (Latency.count empty);
  checkb "empty mean" true (Latency.mean empty = 0.);
  (* Singleton: every percentile reports the lone value's bucket bound. *)
  let single = Latency.create () in
  Latency.record single 100;
  let expected = Latency.bucket_low (Latency.bucket_of 100) in
  List.iter
    (fun p ->
      checki (Printf.sprintf "singleton p%.0f" p) expected
        (Latency.percentile single p))
    [ 1.; 50.; 99.; 100. ]

let prop_latency_percentile_bounds =
  QCheck.Test.make ~name:"percentile bounded by max, count preserved" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_bound 1_000_000))
    (fun vs ->
      let l = Latency.create () in
      List.iter (Latency.record l) vs;
      Latency.count l = List.length vs
      && Latency.percentile l 100. <= Latency.max_value l + 1
      && Latency.percentile l 0. >= 0)

(* ------------------------------------------------------------------ *)
(* Experiment knobs                                                    *)
(* ------------------------------------------------------------------ *)

let base =
  {
    Experiment.default_config with
    threads = 4;
    duration = 150_000;
    key_range = 64;
    init_size = 32;
    mutation_pct = 40;
  }

let test_result_consistency () =
  let r = Experiment.run { base with scheme = Experiment.stacktrack_default } in
  checki "ops sum" r.Experiment.total_ops
    (Array.fold_left ( + ) 0 r.Experiment.ops_per_thread);
  checki "latency count = ops" r.Experiment.total_ops
    (Latency.count r.Experiment.latency);
  checkb "throughput consistent" true
    (abs_float
       (r.Experiment.throughput
       -. (float_of_int r.Experiment.total_ops
          *. 1e6
          /. float_of_int r.Experiment.makespan))
    < 0.01);
  checkb "allocs >= frees" true (r.Experiment.allocs + 1000 >= r.Experiment.frees);
  checki "live = allocs - frees"
    (r.Experiment.allocs - r.Experiment.frees)
    r.Experiment.live_at_end

let test_single_core_topology () =
  (* 1 core, no SMT: everything serializes; still correct. *)
  let r =
    Experiment.run
      { base with cores = 1; smt = 1; threads = 3; scheme = Experiment.Epoch }
  in
  checki "no violations" 0 r.Experiment.violations;
  checkb "context switches on one core" true (r.Experiment.context_switches > 0)

let test_zipf_dist () =
  let r =
    Experiment.run
      {
        base with
        dist = St_workload.Workload.Zipf 0.9;
        scheme = Experiment.stacktrack_default;
      }
  in
  checki "no violations" 0 r.Experiment.violations;
  checkb "progress" true (r.Experiment.total_ops > 100)

let test_crash_injection_runs () =
  let r =
    Experiment.run
      { base with crash_tids = [ 1 ]; scheme = Experiment.stacktrack_default }
  in
  checki "no violations" 0 r.Experiment.violations;
  (* The crashed thread completed fewer ops than survivors on average. *)
  let dead = r.Experiment.ops_per_thread.(1) in
  let live = r.Experiment.ops_per_thread.(0) in
  checkb "victim stopped early" true (dead <= live)

let test_structures_all_run () =
  List.iter
    (fun structure ->
      let r =
        Experiment.run { base with structure; scheme = Experiment.Epoch }
      in
      checkb
        (Experiment.structure_name structure ^ " progresses")
        true
        (r.Experiment.total_ops > 50);
      checki "no violations" 0 r.Experiment.violations)
    [ Experiment.List_s; Experiment.Skiplist_s; Experiment.Queue_s; Experiment.Hash_s ]

let quick_opts =
  {
    Figures.verbose = false;
    jobs = 1;
    profile = false;
    lifecycle = false;
    forensics = false;
    speed = Figures.Quick;
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What [f] prints through [Format.printf], and its result. *)
let capture_stdout f =
  let buf = Buffer.create 4096 in
  let ppf = Format.std_formatter in
  let out, flush = Format.pp_get_formatter_output_functions ppf () in
  Format.pp_print_flush ppf ();
  Format.pp_set_formatter_output_functions ppf (Buffer.add_substring buf) ignore;
  let v =
    Fun.protect
      ~finally:(fun () ->
        Format.pp_print_flush ppf ();
        Format.pp_set_formatter_output_functions ppf out flush)
      f
  in
  (Buffer.contents buf, v)

(* The figure contract: [stacktrack_bench figures fig1-list --quick] prints
   golden_fig1.txt and its --json-out is golden_fig1.json. *)
let test_fig1_golden () =
  let text, results =
    capture_stdout (fun () -> List.assoc "fig1-list" Figures.table quick_opts)
  in
  Alcotest.(check string)
    "stdout = golden_fig1.txt"
    (read_file "goldens/golden_fig1.txt")
    text;
  Alcotest.(check string)
    "results = golden_fig1.json"
    (String.trim (read_file "goldens/golden_fig1.json"))
    (Json_out.to_string (Json_out.List (List.map Result_json.encode results)))

let figure ?(o = quick_opts) name = List.assoc name Figures.table o

let test_memory_profile_smoke () =
  (* The epoch curve must end higher than it starts (leak after crash);
     the non-blocking schemes must not. *)
  List.iter
    (fun (r : Experiment.result) ->
      let live =
        List.map (fun (s : Metrics.sample) -> s.live_objects) r.metrics
      in
      match (live, List.rev live) with
      | first :: _, last :: _ -> (
          match r.cfg.scheme with
          | Experiment.Epoch ->
              checkb "epoch leaks after crash" true (last > first + 20)
          | _ -> checkb "non-blocking stays bounded" true (last < first + 60))
      | _ -> Alcotest.fail "no samples")
    (figure "memory")

let test_stm_figure_smoke () =
  let rec pairs = function
    | (htm : Experiment.result) :: (stm : Experiment.result) :: rest ->
        checkb "HTM run first" true (htm.cfg.backend = St_htm.Tsx.Htm);
        checkb "STM run second" true (stm.cfg.backend = St_htm.Tsx.Stm);
        checkb "htm faster than stm" true (htm.throughput > stm.throughput);
        let pct = stm.throughput /. htm.throughput *. 100. in
        checkb "ratio sane" true (pct > 5. && pct < 95.);
        pairs rest
    | [] -> ()
    | [ _ ] -> Alcotest.fail "an HTM run without its STM run"
  in
  pairs (figure "stm")

(* One figure preset end-to-end (tiny thread set via Quick). *)
let test_figure_smoke () =
  let results = figure "fig4-splits" in
  checkb "rows produced" true (List.length results >= 5);
  List.iter
    (fun (r : Experiment.result) ->
      match r.st with
      | Some st ->
          let splits = Stacktrack.Scheme_stats.avg_splits_per_op st
          and len = Stacktrack.Scheme_stats.avg_segment_length st in
          checkb "splits positive" true (splits > 0.);
          checkb "length in range" true (len > 0. && len <= 400.)
      | None -> Alcotest.fail "a StackTrack run without engine stats")
    results

(* The observer flags reach every figure, not only the sweeps that print
   notes from them: the crash figure's three runs carry both. *)
let test_flags_reach_figures () =
  let results =
    figure ~o:{ quick_opts with lifecycle = true; profile = true } "crash"
  in
  checki "three runs" 3 (List.length results);
  List.iter
    (fun (r : Experiment.result) ->
      checkb "lifecycle ledger on" true (Option.is_some r.lifecycle);
      checkb "profile on" true (Option.is_some r.profile))
    results

(* ------------------------------------------------------------------ *)
(* Scheme registry and thread limit                                    *)
(* ------------------------------------------------------------------ *)

(* Exhaustive on purpose: a new [scheme_kind] constructor fails to compile
   here until it is given an index, and then fails the test until it is
   registered. *)
let constructor_index = function
  | Experiment.Original -> 0
  | Hazards -> 1
  | Epoch -> 2
  | Stacktrack_s _ -> 3
  | Dta -> 4
  | Refcount_s -> 5
  | Immediate_unsafe -> 6
  | Debra -> 7
  | Debra_plus -> 8
  | Hazard_eras -> 9

let test_registry_covers_kinds () =
  Alcotest.(check (list int))
    "every constructor registered exactly once"
    (List.init 10 Fun.id)
    (List.sort compare
       (List.map
          (fun (e : Experiment.scheme_entry) -> constructor_index e.kind)
          Experiment.schemes))

let test_registry_names_parse () =
  let all_names =
    List.concat_map (fun (e : Experiment.scheme_entry) -> e.names)
      Experiment.schemes
  in
  checki "no name shared by two entries"
    (List.length all_names)
    (List.length (List.sort_uniq compare all_names));
  List.iter
    (fun (e : Experiment.scheme_entry) ->
      checkb (e.display ^ " display name") true
        (Experiment.scheme_name e.kind = e.display);
      List.iter
        (fun name ->
          match Experiment.scheme_of_name name with
          | Some k ->
              checki (name ^ " parses to its entry")
                (constructor_index e.kind) (constructor_index k)
          | None -> Alcotest.failf "%s does not parse" name)
        e.names)
    Experiment.schemes;
  checkb "unknown name rejected" true (Experiment.scheme_of_name "bogus" = None)

let test_registry_canonical_names () =
  List.iter
    (fun (e : Experiment.scheme_entry) ->
      let sched =
        St_sim.Sched.create ~topology:(St_sim.Topology.create ()) ~seed:1 ()
      in
      let heap = St_mem.Heap.create ~shadow:(St_mem.Shadow.create ()) () in
      let tsx = St_htm.Tsx.create ~sched ~heap () in
      let rt = St_reclaim.Guard.make_runtime ~sched ~tsx in
      match (e.create e.kind rt).packed with
      | Experiment.Packed ((module G), _) ->
          Alcotest.(check string)
            (e.display ^ " canonical name") G.name (List.hd e.names))
    Experiment.schemes

(* One figure-name table serves both CLIs: names are unique, "all" selects
   every figure in table order, and an unknown name is reported instead of
   silently running nothing. *)
let test_figure_names () =
  let names = Figures.names in
  checki "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  checkb "ablations listed" true (List.mem "ablations" names);
  (match Figures.select [ "all" ] with
  | Ok entries ->
      Alcotest.(check (list string)) "all = table" names (List.map fst entries)
  | Error _ -> Alcotest.fail "\"all\" rejected");
  (match Figures.select [ "memory"; "fig1-list" ] with
  | Ok entries ->
      Alcotest.(check (list string))
        "table order" [ "fig1-list"; "memory" ] (List.map fst entries)
  | Error _ -> Alcotest.fail "valid names rejected");
  match Figures.select [ "fig1-list"; "nosuch-fig" ] with
  | Ok _ -> Alcotest.fail "an unknown figure name was accepted"
  | Error unknown ->
      Alcotest.(check (list string)) "unknown reported" [ "nosuch-fig" ] unknown

(* The crash injector and the samplers are scheduler timers, so every
   machine thread slot can hold a worker — with every observer on (trace,
   profile, forensics, lifecycle, metrics) and a crash. *)
let max_threads = St_sim.Topology.max_threads

let limit_cfg threads =
  {
    Experiment.default_config with
    threads;
    duration = 20_000;
    crash_tids = [ 0 ];
    trace = Some (St_sim.Trace.create ~capacity:1024 ~enabled:true ());
    lifecycle = true;
    profile = true;
    forensics = true;
    metrics_interval = 5_000;
  }

let test_threads_at_limit () =
  List.iter
    (fun scheme ->
      let r = Experiment.run { (limit_cfg max_threads) with scheme } in
      checki "one op count per worker" max_threads
        (Array.length r.ops_per_thread);
      (match r.profile with
      | Some p ->
          checki "one scheduler thread per worker" max_threads
            (List.length p.St_sim.Profile.threads)
      | None -> Alcotest.fail "profiled run returned no profile");
      checki "no violations" 0 r.violations)
    [ Experiment.stacktrack_default; Experiment.Debra_plus ]

(* Bad configurations are rejected by name before anything is simulated;
   otherwise an out-of-range crash tid dies a quarter into the run with an
   index error, and a negative initial size never finishes populating. *)
let test_threads_above_limit () =
  let rejects what cfg =
    match Experiment.run cfg with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument msg ->
        checkb
          (what ^ " rejected up front: " ^ msg)
          true
          (String.starts_with ~prefix:"Experiment.run: " msg);
        msg
  in
  let msg =
    rejects "a run above the thread limit" (limit_cfg (max_threads + 1))
  in
  let limit = string_of_int max_threads in
  let rec mentions i =
    i + String.length limit <= String.length msg
    && (String.sub msg i (String.length limit) = limit || mentions (i + 1))
  in
  checkb ("error names the limit: " ^ msg) true (mentions 0);
  let small = { Experiment.default_config with threads = 4; duration = 20_000 } in
  List.iter
    (fun (what, cfg) -> ignore (rejects what cfg))
    [
      ("crash tid = threads", { small with crash_tids = [ 4 ] });
      ("negative crash tid", { small with crash_tids = [ -1 ] });
      ("key_range 0", { small with key_range = 0; init_size = 0 });
      ("negative init_size", { small with init_size = -5 });
      ("init_size above key_range", { small with key_range = 64; init_size = 65 });
      ("mutation_pct 150", { small with mutation_pct = 150 });
      ("mutation_pct -1", { small with mutation_pct = -1 });
      ( "hash table with 0 buckets",
        { small with structure = Experiment.Hash_s; n_buckets = 0 } );
    ];
  checki "last thread may crash" 0
    (Experiment.run { small with crash_tids = [ 3 ] }).violations

let () =
  Alcotest.run "st_harness"
    [
      ( "latency",
        [
          Alcotest.test_case "basics" `Quick test_latency_basics;
          Alcotest.test_case "monotone percentiles" `Quick
            test_latency_percentile_monotone;
          Alcotest.test_case "merge" `Quick test_latency_merge;
          Alcotest.test_case "bucket boundaries" `Quick
            test_latency_bucket_boundaries;
          Alcotest.test_case "bucket_low roundtrip" `Quick
            test_latency_bucket_low_roundtrip;
          Alcotest.test_case "bucket_low strictly increasing" `Quick
            test_latency_bucket_low_strictly_increasing;
          Alcotest.test_case "bucket invariant sweep" `Quick
            test_latency_bucket_invariant_sweep;
          Alcotest.test_case "merge = record-all" `Quick
            test_latency_merge_equals_record_all;
          Alcotest.test_case "percentile empty/singleton" `Quick
            test_latency_percentile_empty_singleton;
          QCheck_alcotest.to_alcotest prop_latency_percentile_bounds;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "result consistency" `Quick test_result_consistency;
          Alcotest.test_case "single core" `Quick test_single_core_topology;
          Alcotest.test_case "zipf" `Quick test_zipf_dist;
          Alcotest.test_case "crash injection" `Quick test_crash_injection_runs;
          Alcotest.test_case "all structures" `Quick test_structures_all_run;
          Alcotest.test_case "threads at the limit" `Quick test_threads_at_limit;
          Alcotest.test_case "threads above the limit" `Quick
            test_threads_above_limit;
        ] );
      ( "registry",
        [
          Alcotest.test_case "every kind once" `Quick test_registry_covers_kinds;
          Alcotest.test_case "names parse back" `Quick test_registry_names_parse;
          Alcotest.test_case "canonical = Guard.S.name" `Quick
            test_registry_canonical_names;
          Alcotest.test_case "figure names" `Quick test_figure_names;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1 golden" `Slow test_fig1_golden;
          Alcotest.test_case "fig4 smoke" `Slow test_figure_smoke;
          Alcotest.test_case "memory profile smoke" `Slow
            test_memory_profile_smoke;
          Alcotest.test_case "stm figure smoke" `Slow test_stm_figure_smoke;
          Alcotest.test_case "observer flags reach figures" `Slow
            test_flags_reach_figures;
        ] );
    ]
