(** One entry point per table/figure of the paper's evaluation (§6).

    Workload scale note: the simulator executes every memory access of every
    simulated thread, so structure sizes are scaled down from the paper's
    (5K-node list -> 1K keys, 100K-node skip list -> 8K keys, 10K-node hash
    -> 4K keys) to keep each data point to seconds of wall clock.  The
    *relative* behaviour the figures demonstrate — scheme ordering, the
    HyperThreading knee at 4 threads, the preemption cliff at 8 — is
    preserved; see EXPERIMENTS.md for paper-vs-measured deltas.

    Driver structure: every figure is split into three phases so that the
    middle one can run on a {!Pool} of domains —
    (1) *enumerate* a pure list of configurations (submission order is the
        report order);
    (2) *run* them through [run_many ~jobs] (each point is a deterministic
        function of its seeded config; no state is shared between points);
    (3) *report*: verbose per-run lines, violation asserts, tables and CSV
        all consume the ordered result list after every point has finished.
    With [jobs = 1] (the default) phase 2 runs in the calling domain, and
    because phase 3 is order-preserving the printed artifacts are
    byte-identical for any [jobs]. *)

open Experiment

type speed = Quick | Full

let thread_points = function
  | Quick -> [ 1; 2; 4; 6; 8; 12; 16 ]
  | Full -> [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ]

let duration = function Quick -> 400_000 | Full -> 1_500_000

let list_config speed =
  {
    default_config with
    structure = List_s;
    key_range = 1024;
    init_size = 512;
    mutation_pct = 20;
    duration = duration speed;
  }

let skiplist_config speed =
  {
    default_config with
    structure = Skiplist_s;
    key_range = 8192;
    init_size = 4096;
    mutation_pct = 20;
    duration = duration speed;
  }

let queue_config speed =
  {
    default_config with
    structure = Queue_s;
    key_range = 1024;
    init_size = 64;
    mutation_pct = 20;
    duration = duration speed;
  }

let hash_config speed =
  {
    default_config with
    structure = Hash_s;
    key_range = 4096;
    init_size = 2048;
    n_buckets = 512;
    mutation_pct = 20;
    duration = duration speed;
  }

(* Phase 2 of every figure: run the enumerated configs, in parallel when
   [jobs > 1], collecting results in submission order. *)
let run_many ?(jobs = 1) cfgs =
  Pool.run ~jobs (List.map (fun cfg () -> Experiment.run cfg) cfgs)

(* Split an ordered result list back into consecutive per-row groups of
   [k] (the inverse of the concat_map that enumerated them). *)
let chunks k xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> invalid_arg "Figures.chunks: list length not a multiple of k"
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let row, rest = take k [] xs in
        go (row :: acc) rest
  in
  go [] xs

(* Throughput sweep over threads x schemes. *)
let throughput_sweep ?(verbose = false) ?(jobs = 1) ?(profile = false)
    ?(lifecycle = false) ~speed ~base ~schemes () =
  let threads = thread_points speed in
  let base : Experiment.config = { base with profile; lifecycle } in
  let cfgs =
    List.concat_map
      (fun t -> List.map (fun scheme -> { base with scheme; threads = t }) schemes)
      threads
  in
  let results = run_many ~jobs cfgs in
  let rows = List.combine threads (chunks (List.length schemes) results) in
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun r ->
          if verbose then Report.run_line r;
          assert (r.violations = 0))
        rs)
    rows;
  rows

let print_throughput ~title ~subtitle ~schemes rows =
  Report.header ~title ~subtitle;
  let columns = List.map scheme_name schemes in
  let table =
    List.map (fun (t, rs) -> (t, List.map (fun r -> r.throughput) rs)) rows
  in
  Report.series ~x_label:"threads" ~columns table;
  Report.csv ~name:(String.lowercase_ascii (String.map (function ' ' -> '_' | c -> c) title))
    ~x_label:"threads" ~columns table

let set_schemes = [ Original; Hazards; Epoch; stacktrack_default ]

(* When the sweep carried the lifecycle ledger, append one reclamation-health
   line per scheme at the highest thread count: the limbo backlog/footprint
   and watchdog columns behind the per-scheme curves (EXPERIMENTS.md).
   Silent for unflagged runs, so figure output stays byte-identical. *)
let lifecycle_notes ~schemes rows =
  match List.rev rows with
  | [] -> ()
  | (t, rs) :: _ ->
      List.iter2
        (fun scheme (r : Experiment.result) ->
          match r.lifecycle with
          | None -> ()
          | Some lc ->
              let wd = lc.watchdog in
              Report.note
                "%-12s @%dthr limbo: peak=%d objs/%d words, end=%d | lag \
                 p50=%d p99=%d | watchdog: %d incident(s)%s"
                (scheme_name scheme) t lc.peak_limbo_objects
                lc.peak_limbo_words lc.limbo_at_end
                (Latency.percentile lc.lag_hist 50.)
                (Latency.percentile lc.lag_hist 99.)
                wd.St_sim.Watchdog.n_incidents
                (if wd.St_sim.Watchdog.ongoing then ", ongoing at exit" else ""))
        schemes rs

(* ------------------------------------------------------------------ *)
(* Figures 1 and 2: throughput vs threads, one per structure           *)
(* ------------------------------------------------------------------ *)

let throughput_figure ~title ~subtitle ~config ~schemes ?verbose ?jobs ?profile
    ?lifecycle ~speed () =
  let rows =
    throughput_sweep ?verbose ?jobs ?profile ?lifecycle ~speed
      ~base:(config speed) ~schemes ()
  in
  print_throughput ~title ~subtitle ~schemes rows;
  lifecycle_notes ~schemes rows;
  rows

let fig1_list =
  throughput_figure ~title:"Figure 1a -- List: throughput vs threads"
    ~subtitle:"1K keys (scaled from 5K), 20% mutations; ops per Mcycle"
    ~config:list_config ~schemes:(set_schemes @ [ Dta ])

let fig1_skiplist =
  throughput_figure ~title:"Figure 1b -- Skip list: throughput vs threads"
    ~subtitle:"8K keys (scaled from 100K), 20% mutations; ops per Mcycle"
    ~config:skiplist_config ~schemes:set_schemes

let fig2_queue =
  throughput_figure ~title:"Figure 2a -- Queue: throughput vs threads"
    ~subtitle:"20% mutations (enqueue/dequeue), 80% peek; ops per Mcycle"
    ~config:queue_config ~schemes:set_schemes

let fig2_hash =
  throughput_figure ~title:"Figure 2b -- Hash table: throughput vs threads"
    ~subtitle:
      "4K keys (scaled from 10K), 512 buckets, 20% mutations; ops per Mcycle"
    ~config:hash_config ~schemes:set_schemes

(* ------------------------------------------------------------------ *)
(* Figure 3: HTM contention and capacity aborts (list, StackTrack)     *)
(* ------------------------------------------------------------------ *)

let fig3_aborts ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = list_config speed in
  let base = { base with duration = base.duration * 3 } in
  let threads = thread_points speed in
  let results =
    run_many ~jobs
      (List.map
         (fun t -> { base with scheme = stacktrack_default; threads = t })
         threads)
  in
  let rows =
    List.map2
      (fun t r ->
        if verbose then Report.run_line r;
        let segs = float_of_int (max 1 r.htm.St_htm.Htm_stats.starts) in
        ( t,
          [
            float_of_int r.htm.St_htm.Htm_stats.conflict_aborts;
            float_of_int r.htm.St_htm.Htm_stats.capacity_aborts;
            float_of_int r.htm.St_htm.Htm_stats.conflict_aborts /. segs *. 1000.;
            float_of_int r.htm.St_htm.Htm_stats.capacity_aborts /. segs *. 1000.;
          ] ))
      threads results
  in
  Report.header
    ~title:"Figure 3 -- List: HTM contention and capacity aborts (StackTrack)"
    ~subtitle:
      "totals over the run, and per 1000 transactional segments started";
  Report.series ~x_label:"threads"
    ~columns:[ "conflict"; "capacity"; "conf/1k-seg"; "cap/1k-seg" ]
    rows;
  Report.csv ~name:"fig3_aborts" ~x_label:"threads"
    ~columns:[ "conflict"; "capacity"; "conf_per_kseg"; "cap_per_kseg" ]
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Figure 4: average splits per operation and split lengths (list)     *)
(* ------------------------------------------------------------------ *)

let fig4_splits ?(verbose = false) ?(jobs = 1) ?(forensics = false) ~speed () =
  (* Longer runs: the +-1-per-5-consecutive predictor (§5.3) converges
     slowly ("able to achieve a good performance after 2 seconds"), so the
     length trend needs volume. *)
  let base = list_config speed in
  let base = { base with duration = base.duration * 3; forensics } in
  let threads = thread_points speed in
  let results =
    run_many ~jobs
      (List.map
         (fun t -> { base with scheme = stacktrack_default; threads = t })
         threads)
  in
  let rows =
    List.map2
      (fun t r ->
        if verbose then Report.run_line r;
        match r.st with
        | None -> (t, [ Float.nan; Float.nan ])
        | Some st ->
            ( t,
              [
                Stacktrack.Scheme_stats.avg_splits_per_op st;
                Stacktrack.Scheme_stats.avg_segment_length st;
              ] ))
      threads results
  in
  Report.header
    ~title:"Figure 4 -- List: HTM splits per operation and split lengths"
    ~subtitle:"averages over committed segments (predictor-converged)";
  Report.series ~x_label:"threads" ~columns:[ "splits/op"; "split-len" ] rows;
  Report.csv ~name:"fig4_splits" ~x_label:"threads"
    ~columns:[ "splits_per_op"; "split_len" ]
    rows;
  if forensics then
    List.iter2
      (fun t (r : Experiment.result) ->
        match r.forensics with
        | None -> ()
        | Some fx ->
            let limits =
              List.map
                (fun (l : Stacktrack.Engine.limit_row) ->
                  l.Stacktrack.Engine.l_limit)
                fx.fx_limits
            in
            let lo = List.fold_left min max_int limits
            and hi = List.fold_left max 0 limits in
            Report.note
              "forensics t=%d: %d segment(s) tracked, %d limit change(s), \
               final limits %s"
              t fx.fx_segments_tracked
              (List.length fx.fx_timeline)
              (if limits = [] then "-" else Printf.sprintf "%d..%d" lo hi))
      threads results;
  rows

(* ------------------------------------------------------------------ *)
(* Figure 5: slow-path fallback impact (skip list)                     *)
(* ------------------------------------------------------------------ *)

let fig5_slowpath ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = skiplist_config speed in
  let threads =
    match speed with Quick -> [ 1; 2; 4; 8; 12 ] | Full -> [ 1; 2; 4; 6; 8; 10; 12; 14 ]
  in
  let pcts = [ 0; 10; 50; 100 ] in
  let cfgs =
    List.concat_map
      (fun t ->
        List.map
          (fun pct ->
            let scheme =
              Stacktrack_s
                { Stacktrack.St_config.default with forced_slow_pct = pct }
            in
            { base with scheme; threads = t })
          pcts)
      threads
  in
  let per_thread = chunks (List.length pcts) (run_many ~jobs cfgs) in
  let rows =
    List.map2
      (fun t rs ->
        if verbose then List.iter Report.run_line rs;
        let base_thr = (List.hd rs).throughput in
        ( t,
          base_thr
          :: List.map
               (fun (r : Experiment.result) ->
                 if base_thr = 0. then 0. else r.throughput /. base_thr *. 100.)
               (List.tl rs) ))
      threads per_thread
  in
  Report.header
    ~title:"Figure 5 -- Skip list: slow-path fallback impact"
    ~subtitle:
      "column 1: StackTrack-0 throughput (ops/Mcycle); others: % of slow-0";
  Report.series ~x_label:"threads"
    ~columns:[ "slow-0"; "slow-10 %"; "slow-50 %"; "slow-100 %" ]
    rows;
  Report.csv ~name:"fig5_slowpath" ~x_label:"threads"
    ~columns:[ "slow0_thr"; "slow10_pct"; "slow50_pct"; "slow100_pct" ]
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* §6 "Scan behavior": scans, stack depth, amortization                *)
(* ------------------------------------------------------------------ *)

let scan_behavior ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = skiplist_config speed in
  let threads =
    match speed with Quick -> [ 1; 2; 4; 8; 16 ] | Full -> thread_points speed
  in
  let cfgs =
    List.concat_map
      (fun t ->
        List.map
          (fun max_free ->
            let scheme =
              Stacktrack_s { Stacktrack.St_config.default with max_free }
            in
            { base with scheme; threads = t })
          [ 1; 32 ])
      threads
  in
  let per_thread = chunks 2 (run_many ~jobs cfgs) in
  let rows =
    List.map2
      (fun t rs ->
        let r1, r10 =
          match rs with [ a; b ] -> (a, b) | _ -> assert false
        in
        if verbose then begin
          Report.run_line r1;
          Report.run_line r10
        end;
        let stat (r : Experiment.result) =
          match r.st with
          | None -> (Float.nan, Float.nan, Float.nan)
          | Some st ->
              ( float_of_int st.Stacktrack.Scheme_stats.scans,
                (* Words inspected per scan pass: grows with the thread
                   count, the paper's "average stack depth inspected
                   increases linearly with the number of threads". *)
                (if st.Stacktrack.Scheme_stats.scans = 0 then 0.
                 else
                   float_of_int st.Stacktrack.Scheme_stats.stack_words
                   /. float_of_int st.Stacktrack.Scheme_stats.scans),
                r.throughput )
        in
        let s1, d1, thr1 = stat r1 in
        let s10, d10, thr10 = stat r10 in
        ignore d1;
        ignore s10;
        ( t,
          [
            s1;
            d10;
            thr1;
            thr10;
            (if thr10 = 0. then 0. else (thr10 -. thr1) /. thr10 *. 100.);
          ] ))
      threads per_thread
  in
  Report.header
    ~title:"Scan behavior (sec. 6) -- skip list"
    ~subtitle:
      "scan-per-free vs batched (max_free=32): depth grows with threads; \
       batching amortizes the scan";
  Report.series ~x_label:"threads"
    ~columns:
      [ "scans(b=1)"; "words/scan"; "thr(b=1)"; "thr(b=32)"; "penalty %" ]
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Extension: operation-latency distribution                           *)
(* ------------------------------------------------------------------ *)

(* Tail latency separates the schemes more sharply than throughput: the
   epoch reclaimer's grace-period waits appear as multi-quantum p99 spikes,
   hazard pointers inflate the median (a fence per node), StackTrack's
   aborted-and-replayed segments widen the p95. *)
let latency_profile ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = { (list_config speed) with mutation_pct = 40 } in
  let schemes = [ Original; Hazards; Epoch; stacktrack_default; Dta ] in
  Report.header
    ~title:"Extension -- operation latency distribution (list, 12 threads)"
    ~subtitle:"cycles per operation; epoch pays its grace waits in the tail";
  Format.printf "%-12s %10s %10s %10s %10s %12s@." "scheme" "mean" "p50" "p95"
    "p99" "max";
  let results =
    run_many ~jobs
      (List.map (fun scheme -> { base with scheme; threads = 12 }) schemes)
  in
  let rows =
    List.map2
      (fun scheme (r : Experiment.result) ->
        if verbose then Report.run_line r;
        let l = r.latency in
        Format.printf "%-12s %10.0f %10d %10d %10d %12d@." (scheme_name scheme)
          (Latency.mean l) (Latency.percentile l 50.)
          (Latency.percentile l 95.) (Latency.percentile l 99.)
          (Latency.max_value l);
        (scheme, l))
      schemes results
  in
  rows

(* ------------------------------------------------------------------ *)
(* Extension: StackTrack over software transactional memory            *)
(* ------------------------------------------------------------------ *)

(* Sec 7: "While StackTrack can also be executed using software
   transactional memory, hardware support is essential for performance."
   Same scheme, same workload, TL2-style STM backend: correctness carries
   over (zero violations), throughput does not. *)
let stm_vs_htm ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = list_config speed in
  let threads = match speed with Quick -> [ 1; 4; 8 ] | Full -> [ 1; 2; 4; 8; 12; 16 ] in
  Report.header
    ~title:"Extension -- StackTrack over HTM vs STM (list)"
    ~subtitle:"TL2-style software transactions: safe but slow (paper sec 7)";
  let cfgs =
    List.concat_map
      (fun t ->
        List.map
          (fun backend ->
            { base with scheme = stacktrack_default; threads = t; backend })
          [ St_htm.Tsx.Htm; St_htm.Tsx.Stm ])
      threads
  in
  let per_thread = chunks 2 (run_many ~jobs cfgs) in
  let rows =
    List.map2
      (fun t rs ->
        let thr (r : Experiment.result) =
          if verbose then Report.run_line r;
          assert (r.violations = 0);
          r.throughput
        in
        let htm, stm =
          match rs with [ a; b ] -> (thr a, thr b) | _ -> assert false
        in
        (t, [ htm; stm; (if htm = 0. then 0. else stm /. htm *. 100.) ]))
      threads per_thread
  in
  Report.series ~x_label:"threads" ~columns:[ "HTM"; "STM"; "STM %" ] rows;
  rows

(* ------------------------------------------------------------------ *)
(* Extension: memory footprint over time                               *)
(* ------------------------------------------------------------------ *)

(* A list run three figure-durations long, mutation-heavy, with thread 0
   crashing mid-operation at 25%. *)
let crash_config speed ~threads =
  {
    (list_config speed) with
    mutation_pct = 80;
    key_range = 256;
    init_size = 128;
    threads;
    duration = duration speed * 3;
    crash_tids = [ 0 ];
  }

(* Run [base] under each scheme; every run must be use-after-free clean. *)
let run_schemes ~verbose ~jobs base schemes =
  List.map2
    (fun scheme (r : Experiment.result) ->
      if verbose then Report.run_line r;
      assert (r.violations = 0);
      (scheme, r))
    schemes
    (run_many ~jobs (List.map (fun scheme -> { base with scheme }) schemes))

(* Per-scheme [(time, value)] series side by side, by sample index; the
   time column comes from the first scheme's series. *)
let series_table per_scheme series =
  let n =
    List.fold_left
      (fun acc (_, r) -> max acc (List.length (series r)))
      0 per_scheme
  in
  List.init n (fun i ->
      ( (match List.nth_opt (series (snd (List.hd per_scheme))) i with
        | Some (t, _) -> t
        | None -> 0),
        List.map
          (fun (_, r) ->
            match List.nth_opt (series r) i with
            | Some (_, v) -> float_of_int v
            | None -> Float.nan)
          per_scheme ))

(* The paper's qualitative claim made quantitative: "a thread crash can
   result in an unbounded amount of unreclaimed memory" for quiescence
   schemes (sec 1).  Thread 0 crashes at 25% of the run; live objects are
   read from the metrics series over time: epoch's curve climbs from the
   crash onward while the non-blocking schemes stay flat. *)
let memory_profile ?(verbose = false) ?(jobs = 1) ?(profile = false)
    ?(lifecycle = false) ~speed () =
  let base = crash_config speed ~threads:4 in
  let base =
    { base with metrics_interval = base.duration / 12; profile; lifecycle }
  in
  let per_scheme =
    run_schemes ~verbose ~jobs base [ Epoch; Hazards; stacktrack_default ]
  in
  Report.header
    ~title:"Extension -- live objects over time (list, thread 0 crashes at 25%)"
    ~subtitle:"epoch stops reclaiming at the crash; non-blocking schemes stay flat";
  let columns = List.map (fun (s, _) -> scheme_name s) per_scheme in
  let live (r : Experiment.result) =
    List.map (fun (s : Metrics.sample) -> (s.time, s.live_objects)) r.metrics
  in
  let rows = series_table per_scheme live in
  Report.series ~x_label:"time" ~columns rows;
  List.iter
    (fun (scheme, r) ->
      Report.note "%-12s mean reclamation lag=%-9.0f max=%-9d peak live=%d"
        (scheme_name scheme)
        (St_reclaim.Guard.mean_lag r.reclaim)
        r.reclaim.St_reclaim.Guard.lag_max r.peak_live)
    per_scheme;
  (* With the ledger on, the crash figure gains its watchdog column: epoch
     stagnates (the crashed thread pins the epoch), the non-blocking
     schemes report no incidents. *)
  List.iter
    (fun (scheme, (r : Experiment.result)) ->
      match r.lifecycle with
      | None -> ()
      | Some lc ->
          let wd = lc.watchdog in
          Report.note
            "%-12s limbo peak=%d objs/%d words end=%d | watchdog: %d \
             incident(s), %d stalled cycles%s"
            (scheme_name scheme) lc.peak_limbo_objects lc.peak_limbo_words
            lc.limbo_at_end wd.St_sim.Watchdog.n_incidents
            wd.St_sim.Watchdog.total_stalled_cycles
            (if wd.St_sim.Watchdog.ongoing then ", ongoing at exit" else ""))
    per_scheme;
  per_scheme

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures                                *)
(* ------------------------------------------------------------------ *)

let ablation_predictor ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = list_config speed in
  let threads = [ 4; 8; 16 ] in
  let variants =
    [
      ("adaptive", Stacktrack.St_config.default);
      ( "fixed-1",
        { Stacktrack.St_config.default with initial_limit = 1; max_limit = 1 } );
      ( "fixed-10",
        {
          Stacktrack.St_config.default with
          initial_limit = 10;
          min_limit = 10;
          max_limit = 10;
        } );
      ( "fixed-200",
        {
          Stacktrack.St_config.default with
          initial_limit = 200;
          min_limit = 200;
          max_limit = 200;
        } );
    ]
  in
  let cfgs =
    List.concat_map
      (fun t ->
        List.map
          (fun (_, cfg) -> { base with scheme = Stacktrack_s cfg; threads = t })
          variants)
      threads
  in
  let per_thread = chunks (List.length variants) (run_many ~jobs cfgs) in
  let rows =
    List.map2
      (fun t rs ->
        ( t,
          List.map
            (fun (r : Experiment.result) ->
              if verbose then Report.run_line r;
              r.throughput)
            rs ))
      threads per_thread
  in
  Report.header
    ~title:"Ablation -- split-length predictor"
    ~subtitle:"adaptive vs fixed split lengths (list, ops/Mcycle)";
  Report.series ~x_label:"threads" ~columns:(List.map fst variants) rows;
  rows

let ablation_contention ?(verbose = false) ?(jobs = 1) ~speed:_ () =
  (* Contended queue: effect of committing at CAS linearization points and
     of conflict backoff (both on by default; see St_config). *)
  let base =
    {
      default_config with
      structure = Queue_s;
      threads = 8;
      duration = 400_000;
      init_size = 64;
      mutation_pct = 100;
    }
  in
  let variants =
    [
      ("default", Stacktrack.St_config.default);
      ( "no-cas-commit",
        { Stacktrack.St_config.default with commit_after_cas = false } );
      ("no-backoff", { Stacktrack.St_config.default with conflict_backoff = 0 });
      ( "neither",
        {
          Stacktrack.St_config.default with
          commit_after_cas = false;
          conflict_backoff = 0;
        } );
    ]
  in
  Report.header
    ~title:"Ablation -- contention countermeasures (queue, 8 threads, 100% enq/deq)"
    ~subtitle:"CAS-point commits and conflict backoff vs doom-replay storms";
  let results =
    run_many ~jobs
      (List.map (fun (_, cfg) -> { base with scheme = Stacktrack_s cfg }) variants)
  in
  let rows =
    List.map2
      (fun (name, _) (r : Experiment.result) ->
        if verbose then Report.run_line r;
        (name, r))
      variants results
  in
  List.iter
    (fun (name, (r : Experiment.result)) ->
      Report.note "%-14s thr=%-9.1f conflicts=%-7d replays=%d" name
        r.throughput r.htm.St_htm.Htm_stats.conflict_aborts
        (match r.st with
        | Some st -> st.Stacktrack.Scheme_stats.replays
        | None -> 0))
    rows;
  rows

let ablation_scan ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = list_config speed in
  let threads = [ 4; 8; 16 ] in
  let variants =
    [
      ("per-ptr", Stacktrack.St_config.default);
      ("hash-scan", { Stacktrack.St_config.default with hash_scan = true });
      ( "expose-final",
        { Stacktrack.St_config.default with expose_on_final = true } );
    ]
  in
  let cfgs =
    List.concat_map
      (fun t ->
        List.map
          (fun (_, cfg) -> { base with scheme = Stacktrack_s cfg; threads = t })
          variants)
      threads
  in
  let per_thread = chunks (List.length variants) (run_many ~jobs cfgs) in
  let rows =
    List.map2
      (fun t rs ->
        ( t,
          List.map
            (fun (r : Experiment.result) ->
              if verbose then Report.run_line r;
              r.throughput)
            rs ))
      threads per_thread
  in
  Report.header
    ~title:"Ablation -- scan variant and final expose"
    ~subtitle:
      "per-pointer scan (Alg.1) vs single-pass hash scan (sec. 5.2) vs \
       expose-on-final-commit (list, ops/Mcycle)";
  Report.series ~x_label:"threads" ~columns:(List.map fst variants) rows;
  rows

let crash_resilience ?(verbose = false) ?(jobs = 1) ~speed:_ () =
  (* Epoch stalls after a crash (unbounded leak); StackTrack and hazard
     pointers keep reclaiming — the paper's §1/§6 robustness claim. *)
  Report.header
    ~title:"Crash resilience -- list, thread 0 crashed mid-run"
    ~subtitle:"frees after crash; Epoch stops reclaiming, non-blocking schemes continue";
  let base =
    {
      (list_config Quick) with
      threads = 4;
      duration = 1_200_000;
      mutation_pct = 40;
      crash_tids = [ 0 ];
    }
  in
  let schemes = [ Epoch; Hazards; stacktrack_default ] in
  let results =
    run_many ~jobs (List.map (fun scheme -> { base with scheme }) schemes)
  in
  let rows =
    List.map2
      (fun scheme (r : Experiment.result) ->
        if verbose then Report.run_line r;
        (scheme_name scheme, r.frees, r.live_at_end, r.violations))
      schemes results
  in
  List.iter
    (fun (name, frees, live, viol) ->
      Report.note "%-12s frees=%-8d live-at-end=%-8d violations=%d" name frees
        live viol)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Stalled-thread robustness: the modern-SMR contrast figure           *)
(* ------------------------------------------------------------------ *)

let robustness_schemes =
  [ Epoch; Debra; Debra_plus; Hazard_eras; stacktrack_default ]

(* One thread crashes mid-operation at 25% of the run; the lifecycle
   ledger samples the limbo backlog every quantum.  The per-scheme curves
   are the figure: Epoch and DEBRA stop reclaiming at the crash (the
   corpse pins the epoch — unbounded backlog, an open watchdog incident),
   DEBRA+ neutralizes the corpse and recovers, Hazard Eras and StackTrack
   only ever pin what the corpse could reach and stay bounded. *)
let robustness ?(verbose = false) ?(jobs = 1) ~speed () =
  let base = { (crash_config speed ~threads:8) with lifecycle = true } in
  let per_scheme = run_schemes ~verbose ~jobs base robustness_schemes in
  Report.header
    ~title:"Robustness -- limbo backlog under a stalled thread (list)"
    ~subtitle:
      "thread 0 crashes mid-op at 25%; retired-but-unfreed objects over time";
  let columns = List.map (fun (s, _) -> scheme_name s) per_scheme in
  let rows =
    series_table per_scheme (fun (r : Experiment.result) ->
        match r.lifecycle with
        | Some lc ->
            List.map
              (fun s -> (s.Metrics.lc_time, s.Metrics.limbo_objects))
              lc.lc_series
        | None -> [])
  in
  Report.series ~x_label:"time" ~columns rows;
  Report.csv ~name:"robustness_limbo" ~x_label:"time" ~columns rows;
  List.iter
    (fun (scheme, (r : Experiment.result)) ->
      match r.lifecycle with
      | None -> ()
      | Some lc ->
          let wd = lc.watchdog in
          let extras =
            match r.extras with
            | [] -> ""
            | kvs ->
                " | "
                ^ String.concat " "
                    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)
          in
          Report.note
            "%-12s limbo peak=%d end=%d | freed=%d/%d | watchdog: %d \
             incident(s)%s%s"
            (scheme_name scheme) lc.peak_limbo_objects lc.limbo_at_end
            r.reclaim.St_reclaim.Guard.freed r.reclaim.St_reclaim.Guard.retired
            wd.St_sim.Watchdog.n_incidents
            (if wd.St_sim.Watchdog.ongoing then ", ongoing at exit" else "")
            extras)
    per_scheme;
  per_scheme

(* ------------------------------------------------------------------ *)
(* Scale: million-object memory-proportionality proof                  *)
(* ------------------------------------------------------------------ *)

let scale_points = function
  | Quick -> [ 10_000; 50_000 ]
  | Full -> [ 10_000; 100_000; 1_000_000 ]

let scale_schemes = [ Epoch; Hazards; Debra; stacktrack_default ]

let scale_config ~live =
  {
    default_config with
    structure = Hash_s;
    key_range = live * 2;
    init_size = live;
    n_buckets = max 256 (live / 4);
    mutation_pct = 20;
    threads = 8;
    duration = 150_000;
    lifecycle = true;
  }

(* The scale sweep ramps the live-object count rather than the thread
   count: the structure is raw-populated to [live] keys, then a fixed
   simulated duration runs on top.  The interesting columns are therefore
   not throughput curves but footprint — the chunked heap's resident
   backing store should track the touched address space (about four
   payload words per object plus table granularity), where the old dense
   arrays held a doubled capacity in four parallel copies.  Host
   wall-clock per point is printed to stderr (it is machine-dependent;
   stdout must stay byte-identical across runs and [--jobs] values — CI
   diffs it). *)
let fig_scale ?(verbose = false) ?(jobs = 1) ~speed () =
  let points = scale_points speed in
  let schemes = scale_schemes in
  let cfgs =
    List.concat_map
      (fun live ->
        List.map (fun scheme -> { (scale_config ~live) with scheme }) schemes)
      points
  in
  let timed =
    Pool.run ~jobs
      (List.map
         (fun cfg () ->
           let t0 = Unix.gettimeofday () in
           let r = Experiment.run cfg in
           (r, (Unix.gettimeofday () -. t0) *. 1000.))
         cfgs)
  in
  let rows = List.combine points (chunks (List.length schemes) timed) in
  List.iter
    (fun (live, rs) ->
      List.iter2
        (fun scheme ((r : Experiment.result), ms) ->
          if verbose then Report.run_line r;
          assert (r.violations = 0);
          Format.eprintf "fig-scale: %-12s live=%-8d host=%8.1f ms@."
            (scheme_name scheme) live ms)
        schemes rs)
    rows;
  let columns = List.map scheme_name schemes in
  Report.header ~title:"Scale -- throughput vs live objects (hash)"
    ~subtitle:
      "raw-populated to N live objects, 20% mutations, 8 threads; ops per \
       Mcycle";
  let tput =
    List.map
      (fun (live, rs) ->
        (live, List.map (fun ((r : Experiment.result), _) -> r.throughput) rs))
      rows
  in
  Report.series ~x_label:"live" ~columns tput;
  Report.csv ~name:"scale_throughput" ~x_label:"live" ~columns tput;
  Report.header ~title:"Scale -- resident heap footprint (Kwords)"
    ~subtitle:
      "backing store of the chunked per-address tables at end of run; grows \
       with touched chunks, not allocator doubling";
  let resident =
    List.map
      (fun (live, rs) ->
        ( live,
          List.map
            (fun ((r : Experiment.result), _) ->
              float_of_int r.resident_words /. 1024.)
            rs ))
      rows
  in
  Report.series ~x_label:"live" ~columns resident;
  Report.csv ~name:"scale_resident" ~x_label:"live" ~columns resident;
  (match List.rev rows with
  | [] -> ()
  | (live, rs) :: _ ->
      List.iter2
        (fun scheme ((r : Experiment.result), _) ->
          match r.lifecycle with
          | None -> ()
          | Some lc ->
              Report.note
                "%-12s @%d live: resident=%dK words, line tables=%dK | peak \
                 live=%d objs | limbo peak=%d objs/%d words, end=%d"
                (scheme_name scheme) live
                (r.resident_words / 1024)
                (r.line_table_words / 1024)
                r.peak_live lc.peak_limbo_objects lc.peak_limbo_words
                lc.limbo_at_end)
        schemes rs);
  List.map (fun (live, rs) -> (live, List.map fst rs)) rows

(* ------------------------------------------------------------------ *)
(* Figure names: the one table both CLIs read                          *)
(* ------------------------------------------------------------------ *)

type opts = {
  verbose : bool;
  jobs : int;
  profile : bool;
  lifecycle : bool;
  forensics : bool;
  speed : speed;
}

(* A figure taking only the common options, reporting derived series. *)
let plain : type a.
    (?verbose:bool -> ?jobs:int -> speed:speed -> unit -> a) ->
    opts ->
    Experiment.result list =
 fun f o ->
  ignore (f ~verbose:o.verbose ~jobs:o.jobs ~speed:o.speed ());
  []

let sweep
    (f :
      ?verbose:bool ->
      ?jobs:int ->
      ?profile:bool ->
      ?lifecycle:bool ->
      speed:speed ->
      unit ->
      (int * Experiment.result list) list) o =
  List.concat_map snd
    (f ~verbose:o.verbose ~jobs:o.jobs ~profile:o.profile
       ~lifecycle:o.lifecycle ~speed:o.speed ())

let table =
  [
    ("fig1-list", sweep fig1_list);
    ("fig1-skiplist", sweep fig1_skiplist);
    ("fig2-queue", sweep fig2_queue);
    ("fig2-hash", sweep fig2_hash);
    ("fig3-aborts", plain fig3_aborts);
    ( "fig4-splits",
      fun o ->
        ignore
          (fig4_splits ~verbose:o.verbose ~jobs:o.jobs ~forensics:o.forensics
             ~speed:o.speed ());
        [] );
    ("fig5-slowpath", plain fig5_slowpath);
    ("scan-behavior", plain scan_behavior);
    ( "ablations",
      fun o ->
        plain ablation_predictor o @ plain ablation_scan o
        @ plain ablation_contention o );
    ("crash", plain crash_resilience);
    ( "robustness",
      fun o ->
        List.map snd
          (robustness ~verbose:o.verbose ~jobs:o.jobs ~speed:o.speed ()) );
    ("latency", plain latency_profile);
    ( "memory",
      fun o ->
        List.map snd
          (memory_profile ~verbose:o.verbose ~jobs:o.jobs ~profile:o.profile
             ~lifecycle:o.lifecycle ~speed:o.speed ()) );
    ("stm", plain stm_vs_htm);
    ( "fig-scale",
      fun o ->
        List.concat_map snd
          (fig_scale ~verbose:o.verbose ~jobs:o.jobs ~speed:o.speed ()) );
  ]

let names = List.map fst table

let select wanted =
  match
    List.filter (fun n -> n <> "all" && not (List.mem_assoc n table)) wanted
  with
  | [] ->
      Ok
        (List.filter
           (fun (n, _) -> List.mem "all" wanted || List.mem n wanted)
           table)
  | unknown -> Error unknown
