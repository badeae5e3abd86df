(** One entry point per table/figure of the paper's evaluation (§6).

    Workload scale note: the simulator executes every memory access of every
    simulated thread, so structure sizes are scaled down from the paper's
    (5K-node list -> 1K keys, 100K-node skip list -> 8K keys, 10K-node hash
    -> 4K keys) to keep each data point to seconds of wall clock.  The
    *relative* behaviour the figures demonstrate — scheme ordering, the
    HyperThreading knee at 4 threads, the preemption cliff at 8 — is
    preserved; see EXPERIMENTS.md for paper-vs-measured deltas.

    Driver structure: every figure is one function [opts -> result list]
    built on {!grid}, which runs a rows x columns grid of configurations on
    a {!Pool} of [o.jobs] domains (each point is a deterministic function
    of its seeded config; no state is shared between points), prints the
    verbose run lines, asserts zero violations and regroups the results by
    row.  Tables, notes and CSV are printed afterwards from those ordered
    rows, so the printed artifacts and the returned results are
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

type opts = {
  verbose : bool;
  jobs : int;
  profile : bool;
  lifecycle : bool;
  forensics : bool;
  speed : speed;
}

let grid (o : opts) ~rows ~cols cfg =
  let run (c : config) () =
    Experiment.run
      {
        c with
        profile = c.profile || o.profile;
        lifecycle = c.lifecycle || o.lifecycle;
        forensics = c.forensics || o.forensics;
      }
  in
  let results =
    Array.of_list
      (Pool.run ~jobs:o.jobs
         (List.concat_map
            (fun x -> List.map (fun y -> run (cfg x y)) cols)
            rows))
  in
  Array.iter
    (fun (r : result) ->
      if o.verbose then Report.run_line r;
      assert (r.violations = 0))
    results;
  let k = List.length cols in
  List.mapi (fun i x -> (x, List.init k (fun j -> results.((i * k) + j)))) rows

let results_of rows = List.concat_map snd rows

(* One row of table values from each row of runs. *)
let values f rows = List.map (fun (x, rs) -> (x, f rs)) rows

let throughput (r : result) = r.throughput
let name (r : result) = scheme_name r.cfg.scheme

(* A titled table, followed by its CSV block (with the CSV's own column
   names) when [csv] is given. *)
let print_table ~title ~subtitle ?csv ?(x_label = "threads") ~columns rows =
  Report.header ~title ~subtitle;
  Report.series ~x_label ~columns rows;
  Option.iter
    (fun (name, columns) -> Report.csv ~name ~x_label ~columns rows)
    csv

(* A one-row grid: [base] under each scheme, results in scheme order. *)
let per_scheme o base schemes =
  results_of
    (grid o ~rows:[ () ] ~cols:schemes (fun () scheme -> { base with scheme }))

let set_schemes = [ Original; Hazards; Epoch; stacktrack_default ]

(* When the sweep carried the lifecycle ledger, append one reclamation-health
   line per scheme at the highest thread count: the limbo backlog/footprint
   and watchdog columns behind the per-scheme curves (EXPERIMENTS.md).
   Silent for unflagged runs, so figure output stays byte-identical. *)
let lifecycle_notes rows =
  match List.rev rows with
  | [] -> ()
  | (t, rs) :: _ ->
      List.iter
        (fun (r : result) ->
          match r.lifecycle with
          | None -> ()
          | Some lc ->
              let wd = lc.watchdog in
              Report.note
                "%-12s @%dthr limbo: peak=%d objs/%d words, end=%d | lag \
                 p50=%d p99=%d | watchdog: %d incident(s)%s"
                (name r) t lc.peak_limbo_objects lc.peak_limbo_words
                lc.limbo_at_end
                (Latency.percentile lc.lag_hist 50.)
                (Latency.percentile lc.lag_hist 99.)
                wd.St_sim.Watchdog.n_incidents
                (if wd.St_sim.Watchdog.ongoing then ", ongoing at exit" else ""))
        rs

(* ------------------------------------------------------------------ *)
(* Figures 1 and 2: throughput vs threads, one per structure           *)
(* ------------------------------------------------------------------ *)

let throughput_figure ~title ~subtitle ~config ~schemes o =
  let rows =
    grid o ~rows:(thread_points o.speed) ~cols:schemes (fun threads scheme ->
        { (config o.speed) with scheme; threads })
  in
  let columns = List.map scheme_name schemes in
  print_table ~title ~subtitle
    ~csv:
      ( String.lowercase_ascii
          (String.map (function ' ' -> '_' | c -> c) title),
        columns )
    ~columns
    (values (List.map throughput) rows);
  lifecycle_notes rows;
  results_of rows

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
(* Figures 3 and 4: HTM aborts and splits (list, StackTrack)           *)
(* ------------------------------------------------------------------ *)

(* Longer runs: the +-1-per-5-consecutive predictor (§5.3) converges
   slowly ("able to achieve a good performance after 2 seconds"), so the
   length trend needs volume. *)
let stacktrack_list_sweep o =
  let base = list_config o.speed in
  grid o ~rows:(thread_points o.speed) ~cols:[ stacktrack_default ]
    (fun threads scheme ->
      { base with scheme; threads; duration = base.duration * 3 })

let fig3_aborts o =
  let rows = stacktrack_list_sweep o in
  let aborts (r : result) =
    let h = r.htm in
    let segs = float_of_int (max 1 h.St_htm.Htm_stats.starts) in
    let conflict = float_of_int h.conflict_aborts
    and capacity = float_of_int h.capacity_aborts in
    [ conflict; capacity; conflict /. segs *. 1000.; capacity /. segs *. 1000. ]
  in
  print_table
    ~title:"Figure 3 -- List: HTM contention and capacity aborts (StackTrack)"
    ~subtitle:"totals over the run, and per 1000 transactional segments started"
    ~csv:
      ( "fig3_aborts",
        [ "conflict"; "capacity"; "conf_per_kseg"; "cap_per_kseg" ] )
    ~columns:[ "conflict"; "capacity"; "conf/1k-seg"; "cap/1k-seg" ]
    (values (List.concat_map aborts) rows);
  results_of rows

let fig4_splits o =
  let rows = stacktrack_list_sweep o in
  let splits (r : result) =
    match r.st with
    | None -> [ Float.nan; Float.nan ]
    | Some st ->
        [
          Stacktrack.Scheme_stats.avg_splits_per_op st;
          Stacktrack.Scheme_stats.avg_segment_length st;
        ]
  in
  print_table
    ~title:"Figure 4 -- List: HTM splits per operation and split lengths"
    ~subtitle:"averages over committed segments (predictor-converged)"
    ~csv:("fig4_splits", [ "splits_per_op"; "split_len" ])
    ~columns:[ "splits/op"; "split-len" ]
    (values (List.concat_map splits) rows);
  List.iter
    (fun (t, rs) ->
      List.iter
        (fun (r : result) ->
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
        rs)
    rows;
  results_of rows

(* ------------------------------------------------------------------ *)
(* Figure 5: slow-path fallback impact (skip list)                     *)
(* ------------------------------------------------------------------ *)

let fig5_slowpath o =
  let threads =
    match o.speed with
    | Quick -> [ 1; 2; 4; 8; 12 ]
    | Full -> [ 1; 2; 4; 6; 8; 10; 12; 14 ]
  in
  let rows =
    grid o ~rows:threads ~cols:[ 0; 10; 50; 100 ] (fun threads pct ->
        {
          (skiplist_config o.speed) with
          threads;
          scheme =
            Stacktrack_s
              { Stacktrack.St_config.default with forced_slow_pct = pct };
        })
  in
  let relative = function
    | [] -> []
    | (r0 : result) :: rs ->
        let base = r0.throughput in
        base
        :: List.map
             (fun (r : result) ->
               if base = 0. then 0. else r.throughput /. base *. 100.)
             rs
  in
  print_table ~title:"Figure 5 -- Skip list: slow-path fallback impact"
    ~subtitle:
      "column 1: StackTrack-0 throughput (ops/Mcycle); others: % of slow-0"
    ~csv:
      ( "fig5_slowpath",
        [ "slow0_thr"; "slow10_pct"; "slow50_pct"; "slow100_pct" ] )
    ~columns:[ "slow-0"; "slow-10 %"; "slow-50 %"; "slow-100 %" ]
    (values relative rows);
  results_of rows

(* ------------------------------------------------------------------ *)
(* §6 "Scan behavior": scans, stack depth, amortization                *)
(* ------------------------------------------------------------------ *)

let scan_behavior o =
  let threads =
    match o.speed with
    | Quick -> [ 1; 2; 4; 8; 16 ]
    | Full -> thread_points o.speed
  in
  let rows =
    grid o ~rows:threads ~cols:[ 1; 32 ] (fun threads max_free ->
        {
          (skiplist_config o.speed) with
          threads;
          scheme = Stacktrack_s { Stacktrack.St_config.default with max_free };
        })
  in
  let amortization = function
    | [ (r1 : result); r32 ] ->
        let s1 = Option.get r1.st and s32 = Option.get r32.st in
        let thr1 = r1.throughput and thr32 = r32.throughput in
        [
          float_of_int s1.scans;
          (* Words inspected per scan pass: grows with the thread count,
             the paper's "average stack depth inspected increases linearly
             with the number of threads". *)
          (if s32.scans = 0 then 0.
           else float_of_int s32.stack_words /. float_of_int s32.scans);
          thr1;
          thr32;
          (if thr32 = 0. then 0. else (thr32 -. thr1) /. thr32 *. 100.);
        ]
    | _ -> assert false
  in
  print_table ~title:"Scan behavior (sec. 6) -- skip list"
    ~subtitle:
      "scan-per-free vs batched (max_free=32): depth grows with threads; \
       batching amortizes the scan"
    ~columns:
      [ "scans(b=1)"; "words/scan"; "thr(b=1)"; "thr(b=32)"; "penalty %" ]
    (values amortization rows);
  results_of rows

(* ------------------------------------------------------------------ *)
(* Extension: operation-latency distribution                           *)
(* ------------------------------------------------------------------ *)

(* Tail latency separates the schemes more sharply than throughput: the
   epoch reclaimer's grace-period waits appear as multi-quantum p99 spikes,
   hazard pointers inflate the median (a fence per node), StackTrack's
   aborted-and-replayed segments widen the p95. *)
let latency_profile o =
  let rs =
    per_scheme o
      { (list_config o.speed) with mutation_pct = 40; threads = 12 }
      [ Original; Hazards; Epoch; stacktrack_default; Dta ]
  in
  Report.header
    ~title:"Extension -- operation latency distribution (list, 12 threads)"
    ~subtitle:"cycles per operation; epoch pays its grace waits in the tail";
  Format.printf "%-12s %10s %10s %10s %10s %12s@." "scheme" "mean" "p50" "p95"
    "p99" "max";
  List.iter
    (fun (r : result) ->
      let l = r.latency in
      Format.printf "%-12s %10.0f %10d %10d %10d %12d@." (name r)
        (Latency.mean l) (Latency.percentile l 50.) (Latency.percentile l 95.)
        (Latency.percentile l 99.) (Latency.max_value l))
    rs;
  rs

(* ------------------------------------------------------------------ *)
(* Extension: StackTrack over software transactional memory            *)
(* ------------------------------------------------------------------ *)

(* Sec 7: "While StackTrack can also be executed using software
   transactional memory, hardware support is essential for performance."
   Same scheme, same workload, TL2-style STM backend: correctness carries
   over (zero violations), throughput does not. *)
let stm_vs_htm o =
  let threads =
    match o.speed with Quick -> [ 1; 4; 8 ] | Full -> [ 1; 2; 4; 8; 12; 16 ]
  in
  let rows =
    grid o ~rows:threads ~cols:[ St_htm.Tsx.Htm; St_htm.Tsx.Stm ]
      (fun threads backend ->
        {
          (list_config o.speed) with
          scheme = stacktrack_default;
          threads;
          backend;
        })
  in
  let ratio = function
    | [ (htm : result); stm ] ->
        let htm = htm.throughput and stm = stm.throughput in
        [ htm; stm; (if htm = 0. then 0. else stm /. htm *. 100.) ]
    | _ -> assert false
  in
  print_table ~title:"Extension -- StackTrack over HTM vs STM (list)"
    ~subtitle:"TL2-style software transactions: safe but slow (paper sec 7)"
    ~columns:[ "HTM"; "STM"; "STM %" ]
    (values ratio rows);
  results_of rows

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

(* Per-scheme [(time, value)] series side by side, by sample index; the
   time column comes from the first scheme's series. *)
let series_table rs series =
  let n = List.fold_left (fun acc r -> max acc (List.length (series r))) 0 rs in
  List.init n (fun i ->
      ( (match List.nth_opt (series (List.hd rs)) i with
        | Some (t, _) -> t
        | None -> 0),
        List.map
          (fun r ->
            match List.nth_opt (series r) i with
            | Some (_, v) -> float_of_int v
            | None -> Float.nan)
          rs ))

(* The paper's qualitative claim made quantitative: "a thread crash can
   result in an unbounded amount of unreclaimed memory" for quiescence
   schemes (sec 1).  Thread 0 crashes at 25% of the run; live objects are
   read from the metrics series over time: epoch's curve climbs from the
   crash onward while the non-blocking schemes stay flat. *)
let memory_profile o =
  let base = crash_config o.speed ~threads:4 in
  let rs =
    per_scheme o
      { base with metrics_interval = base.duration / 12 }
      [ Epoch; Hazards; stacktrack_default ]
  in
  print_table
    ~title:"Extension -- live objects over time (list, thread 0 crashes at 25%)"
    ~subtitle:"epoch stops reclaiming at the crash; non-blocking schemes stay flat"
    ~x_label:"time" ~columns:(List.map name rs)
    (series_table rs (fun (r : result) ->
         List.map
           (fun (s : Metrics.sample) -> (s.time, s.live_objects))
           r.metrics));
  List.iter
    (fun (r : result) ->
      Report.note "%-12s mean reclamation lag=%-9.0f max=%-9d peak live=%d"
        (name r)
        (St_reclaim.Guard.mean_lag r.reclaim)
        r.reclaim.St_reclaim.Guard.lag_max r.peak_live)
    rs;
  (* With the ledger on, the crash figure gains its watchdog column: epoch
     stagnates (the crashed thread pins the epoch), the non-blocking
     schemes report no incidents. *)
  List.iter
    (fun (r : result) ->
      match r.lifecycle with
      | None -> ()
      | Some lc ->
          let wd = lc.watchdog in
          Report.note
            "%-12s limbo peak=%d objs/%d words end=%d | watchdog: %d \
             incident(s), %d stalled cycles%s"
            (name r) lc.peak_limbo_objects lc.peak_limbo_words lc.limbo_at_end
            wd.St_sim.Watchdog.n_incidents
            wd.St_sim.Watchdog.total_stalled_cycles
            (if wd.St_sim.Watchdog.ongoing then ", ongoing at exit" else ""))
    rs;
  rs

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures                                *)
(* ------------------------------------------------------------------ *)

(* StackTrack variants on the list at 4, 8 and 16 threads (ops/Mcycle). *)
let variant_table ~title ~subtitle variants o =
  let rows =
    grid o ~rows:[ 4; 8; 16 ] ~cols:(List.map snd variants) (fun threads cfg ->
        { (list_config o.speed) with scheme = Stacktrack_s cfg; threads })
  in
  print_table ~title ~subtitle ~columns:(List.map fst variants)
    (values (List.map throughput) rows);
  results_of rows

let ablation_predictor =
  let fixed n =
    {
      Stacktrack.St_config.default with
      initial_limit = n;
      min_limit = n;
      max_limit = n;
    }
  in
  variant_table ~title:"Ablation -- split-length predictor"
    ~subtitle:"adaptive vs fixed split lengths (list, ops/Mcycle)"
    [
      ("adaptive", Stacktrack.St_config.default);
      ( "fixed-1",
        { Stacktrack.St_config.default with initial_limit = 1; max_limit = 1 } );
      ("fixed-10", fixed 10);
      ("fixed-200", fixed 200);
    ]

let ablation_scan =
  variant_table ~title:"Ablation -- scan variant and final expose"
    ~subtitle:
      "per-pointer scan (Alg.1) vs single-pass hash scan (sec. 5.2) vs \
       expose-on-final-commit (list, ops/Mcycle)"
    [
      ("per-ptr", Stacktrack.St_config.default);
      ("hash-scan", { Stacktrack.St_config.default with hash_scan = true });
      ( "expose-final",
        { Stacktrack.St_config.default with expose_on_final = true } );
    ]

(* Contended queue: effect of committing at CAS linearization points and
   of conflict backoff (both on by default; see St_config). *)
let ablation_contention o =
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
  let rs =
    results_of
      (grid o ~rows:[ () ] ~cols:variants (fun () (_, cfg) ->
           { base with scheme = Stacktrack_s cfg }))
  in
  Report.header
    ~title:"Ablation -- contention countermeasures (queue, 8 threads, 100% enq/deq)"
    ~subtitle:"CAS-point commits and conflict backoff vs doom-replay storms";
  List.iter2
    (fun (variant, _) (r : result) ->
      Report.note "%-14s thr=%-9.1f conflicts=%-7d replays=%d" variant
        r.throughput r.htm.St_htm.Htm_stats.conflict_aborts
        (match r.st with
        | Some st -> st.Stacktrack.Scheme_stats.replays
        | None -> 0))
    variants rs;
  rs

let ablations o =
  List.concat_map
    (fun figure -> figure o)
    [ ablation_contention; ablation_scan; ablation_predictor ]

(* Epoch stalls after a crash (unbounded leak); StackTrack and hazard
   pointers keep reclaiming — the paper's §1/§6 robustness claim. *)
let crash_resilience o =
  let rs =
    per_scheme o
      {
        (list_config Quick) with
        threads = 4;
        duration = 1_200_000;
        mutation_pct = 40;
        crash_tids = [ 0 ];
      }
      [ Epoch; Hazards; stacktrack_default ]
  in
  Report.header ~title:"Crash resilience -- list, thread 0 crashed mid-run"
    ~subtitle:
      "frees after crash; Epoch stops reclaiming, non-blocking schemes continue";
  List.iter
    (fun (r : result) ->
      Report.note "%-12s frees=%-8d live-at-end=%-8d violations=%d" (name r)
        r.frees r.live_at_end r.violations)
    rs;
  rs

(* ------------------------------------------------------------------ *)
(* Stalled-thread robustness: the modern-SMR contrast figure           *)
(* ------------------------------------------------------------------ *)

(* One thread crashes mid-operation at 25% of the run; the lifecycle
   ledger samples the limbo backlog every quantum.  The per-scheme curves
   are the figure: Epoch and DEBRA stop reclaiming at the crash (the
   corpse pins the epoch — unbounded backlog, an open watchdog incident),
   DEBRA+ neutralizes the corpse and recovers, Hazard Eras and StackTrack
   only ever pin what the corpse could reach and stay bounded. *)
let robustness o =
  let rs =
    per_scheme o
      { (crash_config o.speed ~threads:8) with lifecycle = true }
      [ Epoch; Debra; Debra_plus; Hazard_eras; stacktrack_default ]
  in
  let columns = List.map name rs in
  print_table ~title:"Robustness -- limbo backlog under a stalled thread (list)"
    ~subtitle:
      "thread 0 crashes mid-op at 25%; retired-but-unfreed objects over time"
    ~csv:("robustness_limbo", columns) ~x_label:"time" ~columns
    (series_table rs (fun (r : result) ->
         match r.lifecycle with
         | Some lc ->
             List.map
               (fun s -> (s.Metrics.lc_time, s.Metrics.limbo_objects))
               lc.lc_series
         | None -> []));
  List.iter
    (fun (r : result) ->
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
            (name r) lc.peak_limbo_objects lc.limbo_at_end
            r.reclaim.St_reclaim.Guard.freed r.reclaim.St_reclaim.Guard.retired
            wd.St_sim.Watchdog.n_incidents
            (if wd.St_sim.Watchdog.ongoing then ", ongoing at exit" else "")
            extras)
    rs;
  rs

(* ------------------------------------------------------------------ *)
(* Scale: million-object memory-proportionality proof                  *)
(* ------------------------------------------------------------------ *)

let scale_points = function
  | Quick -> [ 10_000; 50_000 ]
  | Full -> [ 10_000; 100_000; 1_000_000 ]

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
   wall-clock of this path is timed by [bench/hosttime.exe scale-list]. *)
let fig_scale o =
  let schemes = [ Epoch; Hazards; Debra; stacktrack_default ] in
  let rows =
    grid o ~rows:(scale_points o.speed) ~cols:schemes (fun live scheme ->
        { (scale_config ~live) with scheme })
  in
  let columns = List.map scheme_name schemes in
  print_table ~title:"Scale -- throughput vs live objects (hash)"
    ~subtitle:
      "raw-populated to N live objects, 20% mutations, 8 threads; ops per \
       Mcycle"
    ~csv:("scale_throughput", columns) ~x_label:"live" ~columns
    (values (List.map throughput) rows);
  print_table ~title:"Scale -- resident heap footprint (Kwords)"
    ~subtitle:
      "backing store of the chunked per-address tables at end of run; grows \
       with touched chunks, not allocator doubling"
    ~csv:("scale_resident", columns) ~x_label:"live" ~columns
    (values
       (List.map (fun (r : result) -> float_of_int r.resident_words /. 1024.))
       rows);
  (match List.rev rows with
  | [] -> ()
  | (live, rs) :: _ ->
      List.iter
        (fun (r : result) ->
          match r.lifecycle with
          | None -> ()
          | Some lc ->
              Report.note
                "%-12s @%d live: resident=%dK words, line tables=%dK | peak \
                 live=%d objs | limbo peak=%d objs/%d words, end=%d"
                (name r) live
                (r.resident_words / 1024)
                (r.line_table_words / 1024)
                r.peak_live lc.peak_limbo_objects lc.peak_limbo_words
                lc.limbo_at_end)
        rs);
  results_of rows

(* ------------------------------------------------------------------ *)
(* Figure names: the one table [stacktrack_bench figures] reads        *)
(* ------------------------------------------------------------------ *)

let table =
  [
    ("fig1-list", fig1_list);
    ("fig1-skiplist", fig1_skiplist);
    ("fig2-queue", fig2_queue);
    ("fig2-hash", fig2_hash);
    ("fig3-aborts", fig3_aborts);
    ("fig4-splits", fig4_splits);
    ("fig5-slowpath", fig5_slowpath);
    ("scan-behavior", scan_behavior);
    ("ablations", ablations);
    ("crash", crash_resilience);
    ("robustness", robustness);
    ("latency", latency_profile);
    ("memory", memory_profile);
    ("stm", stm_vs_htm);
    ("fig-scale", fig_scale);
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
