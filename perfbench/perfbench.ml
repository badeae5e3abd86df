(* The repository benchmark.  One process runs one workload:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --selftest [--seed N]

   [--trace 0] times [Experiment.run] with tracing off and prints the
   end-to-end metrics; [--trace 1] runs the layer fixtures and the traced
   machine and prints the per-layer metrics.  Either way the last line of
   standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; a failed correctness
   check sets [correct] to false and counts the run's operations as
   failed.  See README.md for the workloads and the metric definitions. *)

open St_harness

let median = Fixtures.median
let now_s () = Float.of_int (Spans.now_ns ()) *. 1e-9

let ratio a b = if b = 0. then 0. else a /. b
let fi = Float.of_int

(* ---- correctness bookkeeping ------------------------------------------ *)

type book = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let book = { attempted = 0; failed = 0; errors = [] }

let fail ~ops fmt =
  Printf.ksprintf
    (fun msg ->
      book.failed <- book.failed + max 1 ops;
      if List.length book.errors < 20 then book.errors <- msg :: book.errors)
    fmt

(* Count [ops] attempted; charge them as failed unless every check held. *)
let account ~ops ~label checks =
  book.attempted <- book.attempted + ops;
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | None -> ()
  | Some (what, _) -> fail ~ops "%s: %s" label what

(* ---- the untraced set ------------------------------------------------- *)

type run = { result : Experiment.result; wall_s : float; words : float }

let run_one cfg =
  match
    let w0 = Gc.minor_words () in
    let t0 = now_s () in
    let result = Experiment.run cfg in
    let t1 = now_s () in
    { result; wall_s = t1 -. t0; words = Gc.minor_words () -. w0 }
  with
  | r -> Some r
  | exception e ->
      fail ~ops:0 "%s: Experiment.run raised %s" (Machine.scheme_label cfg)
        (Printexc.to_string e);
      None

(* One pass over the workload's configs, checked against [reference] (the
   first pass) when given. *)
let run_set ?reference (w : Machine.workload) =
  let runs = List.map run_one w.configs in
  if List.mem None runs then None
  else begin
    let runs = List.map Option.get runs in
    List.iteri
      (fun i r ->
        let sim = Machine.sim_of_result r.result in
        let same =
          match reference with
          | None -> None
          | Some refs -> Machine.sim_diff (List.nth refs i) sim
        in
        account ~ops:sim.ops
          ~label:(Machine.scheme_label r.result.cfg)
          [
            ("shadow violations", sim.violations = 0);
            ( "simulated result differs between repeats ("
              ^ Option.value same ~default:"" ^ ")",
              same = None );
          ])
      runs;
    Some runs
  end

let sims runs = List.map (fun r -> Machine.sim_of_result r.result) runs
let set_wall runs = List.fold_left (fun a r -> a +. r.wall_s) 0. runs

(* Traced (or count-only) composition of every config, each checked
   against the untraced reference. *)
let traced_set ?(timed = true) ?delay_ns (w : Machine.workload) refs =
  List.map2
    (fun cfg reference ->
      let t0 = now_s () in
      let t = Machine.run_traced ~timed ?delay_ns cfg in
      let wall = now_s () -. t0 in
      let diff = Machine.sim_diff reference t.Machine.t_sim in
      let sp = t.spans in
      account ~ops:t.t_sim.ops
        ~label:("traced " ^ Machine.scheme_label cfg)
        [
          ( "traced result differs from Experiment.run ("
            ^ Option.value diff ~default:"" ^ ")",
            diff = None );
          ("check_raw of the final structure", t.check_ok);
          ("shadow violations", t.t_sim.violations = 0);
          ("spans left open", sp.Spans.s_closed);
        ];
      (t, wall))
    w.configs refs

(* ---- output ----------------------------------------------------------- *)

let print_metrics metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %16.6f %s\n" n v u) metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let emit metrics =
  let correct = book.failed = 0 in
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev book.errors);
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 book.attempted) book.failed (String.concat ", " fields);
  if correct then 0 else 1

(* ---- end-to-end (--trace 0) ------------------------------------------- *)

(* Failures over operations attempted so far in this process. *)
let failed_op_pct () =
  ("failed_op_pct", 100. *. ratio (fi book.failed) (fi (max 1 book.attempted)), "%")

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* Percentile of a latency histogram, interpolated linearly inside its
   bucket ([Latency.percentile] reports the bucket's lower bound, which
   steps by ~41% between neighbours). *)
let percentile lat q =
  let rank = q *. fi (Latency.count lat) in
  let rec go cum = function
    | [] -> 0.
    | (_, n) :: rest when fi (cum + n) < rank && rest <> [] -> go (cum + n) rest
    | (low, n) :: _ ->
        let b = Latency.bucket_of low in
        let high =
          if b = Latency.n_buckets - 1 then low else Latency.bucket_low (b + 1)
        in
        let high = min high (Latency.max_value lat + 1) in
        fi low +. (fi (high - low) *. Float.max 0. (rank -. fi cum) /. fi n)
  in
  go 0 (Latency.nonzero_buckets lat)

let sim_metrics (sims : Machine.sim list) =
  let ops = sum (fun (s : Machine.sim) -> s.ops) sims in
  let makespan = sum (fun (s : Machine.sim) -> s.makespan) sims in
  let lat = Latency.merge (List.map (fun (s : Machine.sim) -> s.latency) sims) in
  let starts = sum (fun (s : Machine.sim) -> s.htm.starts) sims in
  let aborts = sum (fun (s : Machine.sim) -> St_htm.Htm_stats.aborts s.htm) sims in
  ( ops,
    [
      ("sim_ops_per_mcycle", ratio (fi ops *. 1e6) (fi makespan), "ops/Mcycle");
      ("sim_op_p50_cycles", percentile lat 0.50, "cycles");
      ("sim_op_p99_cycles", percentile lat 0.99, "cycles");
      ( "sim_peak_live",
        fi (List.fold_left (fun a (s : Machine.sim) -> max a s.peak_live) 0 sims),
        "objects" );
    ],
    ("sim_abort_pct", 100. *. ratio (fi aborts) (fi starts), "%") )

let end_to_end (w : Machine.workload) ~seconds =
  match run_set w with
  | None -> []
  | Some warm ->
      let refs = sims warm in
      (* Accesses: exact count of Guard read/write/cas/protected_read calls,
         from the count-only composition (which is also checked against the
         untraced result). *)
      let accesses =
        sum (fun (t, _) -> Spans.accesses t.Machine.spans) (traced_set ~timed:false w refs)
      in
      (* Set-up: the same configs at zero duration, in batches of about
         half a second with a calibration around each batch; at least five
         sets and one second in all. *)
      let zero =
        { w with configs = List.map (fun c -> { c with Experiment.duration = 0 }) w.configs }
      in
      let setups = ref [] and setups_raw = ref [] and spent = ref 0. and ok = ref true in
      let last = ref 0. in
      while !ok && (List.length !setups < 5 || !spent < 1.0) do
        let walls, wall, scaled =
          Calib.measure ~samples:(Calib.samples_for !last) (fun () ->
              let acc = ref [] and t0 = now_s () in
              while !ok && (!acc = [] || now_s () -. t0 < 0.5) do
                match run_set zero with
                | Some runs -> acc := set_wall runs :: !acc
                | None -> ok := false
              done;
              !acc)
        in
        setups := List.map (fun x -> x *. scaled /. wall) walls @ !setups;
        setups_raw := walls @ !setups_raw;
        spent := !spent +. wall;
        last := wall
      done;
      let walls = ref [] and walls_raw = ref [] and words = ref [] in
      let t_end = now_s () +. seconds in
      let rec timed n =
        if n < 3 || now_s () < t_end then begin
          Gc.full_major ();
          let samples = Calib.samples_for (match !walls_raw with x :: _ -> x | [] -> !last) in
          match Calib.measure ~samples (fun () -> run_set ~reference:refs w) with
          | None, _, _ -> ()
          | Some runs, wall, scaled ->
              walls := scaled :: !walls;
              walls_raw := wall :: !walls_raw;
              words := List.fold_left (fun a r -> a +. r.words) 0. runs :: !words;
              timed (n + 1)
        end
      in
      timed 0;
      let ops, sim, abort_pct = sim_metrics refs in
      let host_s = median !walls in
      let peak_mb =
        fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) *. 1e-6
      in
      Printf.printf
        "  samples: %d timed sets, %d set-up sets; per set %d simulated ops \
         (the latency histogram's count) and %d accesses\n\
        \  raw wall medians: host %.6f s, set-up %.6f s (times below are \
         rescaled to the calibration loop's %.3f s)\n"
        (List.length !walls) (List.length !setups) ops accesses
        (median !walls_raw) (median !setups_raw) Calib.reference_s;
      print_metrics [ abort_pct; failed_op_pct () ];
      [
        ("host_s", host_s, "s");
        ("setup_s", median !setups, "s");
        ("ns_per_access", ratio (host_s *. 1e9) (fi accesses), "ns");
        ("minor_words_per_op", ratio (median !words) (fi ops), "words");
        ("peak_heap_mb", peak_mb, "MB");
      ]
      @ sim

(* ---- per layer (--trace 1) -------------------------------------------- *)

let layer_fixtures ~seed =
  let consume = Fixtures.sched_consume () in
  let crossover = Fixtures.sched_crossover () in
  let ctx = Fixtures.sched_ctx_switch () in
  let tsx = Fixtures.tsx () in
  let alloc_free = Fixtures.heap_alloc_free () in
  let owner_1e3 = Fixtures.heap_owner_of ~seed ~live:1_000 in
  let owner_1e6 = Fixtures.heap_owner_of ~seed ~live:1_000_000 in
  Gc.compact ();
  let pair name (c : Fixtures.cost) =
    [ (name ^ "_ns", c.ns, "ns"); (name ^ "_words", c.words, "words") ]
  in
  pair "sched.consume" consume
  @ pair "sched.crossover" crossover
  @ [ ("sched.ctx_switch_ns", ctx.ns, "ns") ]
  @ pair "tsx.read" tsx.read @ pair "tsx.write" tsx.write
  @ pair "tsx.commit" tsx.commit @ pair "tsx.abort" tsx.abort
  @ pair "tsx.nt_read" tsx.nt_read @ pair "tsx.nt_cas" tsx.nt_cas
  @ pair "heap.alloc_free" alloc_free
  @ [
      ("heap.owner_of_ns.1e3", owner_1e3.ns, "ns");
      ("heap.owner_of_ns.1e6", owner_1e6.ns, "ns");
    ]

let per_layer (w : Machine.workload) ~seed ~seconds =
  let fixtures = layer_fixtures ~seed in
  match run_set w with
  | None -> fixtures
  | Some warm ->
      let refs = sims warm in
      let traced = ref [] and traced_wall = ref [] and count_wall = ref [] in
      let t_end = now_s () +. seconds in
      let rec loop n =
        if n < 2 || now_s () < t_end then begin
          let wall set = List.fold_left (fun a (_, s) -> a +. s) 0. set in
          Gc.full_major ();
          let set = traced_set w refs in
          traced := set :: !traced;
          traced_wall := wall set :: !traced_wall;
          Gc.full_major ();
          count_wall := wall (traced_set ~timed:false w refs) :: !count_wall;
          loop (n + 1)
        end
      in
      loop 0;
      let sets = List.map (List.map fst) !traced in
      let last = List.hd sets in
      let sum_t f = sum f last in
      let over_sets f =
        median (List.map (fun set -> f (List.map (fun t -> t.Machine.spans) set)) sets)
      in
      (* Self ns per call of [kinds], over the set's schemes. *)
      let self kinds spans =
        let calls = sum (fun sp -> sum (Spans.calls sp) kinds) spans in
        let ns = sum (fun sp -> sum (Spans.self_ns sp) kinds) spans in
        ratio (fi ns) (fi calls)
      in
      let self_metric name kinds = (name, over_sets (self kinds), "ns") in
      let htm = St_htm.Htm_stats.merge (List.map (fun t -> t.Machine.t_sim.htm) last) in
      let guard = St_reclaim.Guard.merge_stats (List.map (fun t -> t.Machine.guard) last) in
      let engine =
        match List.filter_map (fun t -> t.Machine.engine) last with
        | [ e ] -> e
        | _ -> Stacktrack.Scheme_stats.create ()
      in
      let ops = sum_t (fun t -> t.t_sim.ops) in
      let accesses = sum_t (fun t -> Spans.accesses t.spans) in
      let _, _, abort_pct = sim_metrics (List.map (fun t -> t.Machine.t_sim) last) in
      (* Per-scheme breakdown of the hash-smr set, printed only: the metric
         list is common to every workload. *)
      if List.length w.configs > 1 then
        List.iteri
          (fun i cfg ->
            let label = Machine.scheme_label cfg in
            let one kinds =
              median (List.map (fun set -> self kinds [ (List.nth set i).Machine.spans ]) sets)
            in
            Printf.printf "  (guard.read_ns.%s %.3f ns) (guard.retire_ns.%s %.3f ns)\n"
              label (one [ Spans.Read ]) label (one [ Spans.Retire ]))
          w.configs;
      (* Printed only: on list-st16 every alloc and retire call switches
         fibers, so both read exactly 0 on every run. *)
      Printf.printf "  (guard.alloc_ns %.3f ns) (guard.retire_ns %.3f ns)\n"
        (over_sets (self [ Spans.Alloc ]))
        (over_sets (self [ Spans.Retire ]));
      Printf.printf "  samples: %d traced sets, %d count-only sets\n"
        (List.length !traced_wall) (List.length !count_wall);
      let traced_wall = median !traced_wall and count_wall = median !count_wall in
      fixtures
      @ [
          ("sched.context_switches", fi (sum_t (fun t -> t.t_sim.context_switches)), "count");
          ( "sched.self_ms",
            over_sets (fun spans -> fi (sum (fun sp -> sp.Spans.s_sched_self_ns) spans) *. 1e-6),
            "ms" );
          ("tsx.starts", fi htm.starts, "count");
          ("tsx.commits", fi htm.commits, "count");
          ("tsx.commit_ratio", ratio (fi htm.commits) (fi htm.starts), "ratio");
          ("tsx.aborts_conflict", fi htm.conflict_aborts, "count");
          ("tsx.aborts_capacity", fi htm.capacity_aborts, "count");
          ("tsx.aborts_interrupt", fi htm.interrupt_aborts, "count");
          ( "tsx.wasted_cycles_pct",
            100. *. ratio (fi (sum_t (fun t -> t.wasted_cycles))) (fi (sum_t (fun t -> t.consumed_cycles))),
            "%" );
          ("tsx.line_table_kwords", fi (sum_t (fun t -> t.line_table_words)) *. 1e-3, "kwords");
          ("heap.allocs", fi (sum_t (fun t -> t.t_sim.allocs)), "count");
          ("heap.frees", fi (sum_t (fun t -> t.t_sim.frees)), "count");
          ("heap.resident_mwords", fi (sum_t (fun t -> t.heap_resident_words)) *. 1e-6, "Mwords");
          ("engine.segments_per_op", Stacktrack.Scheme_stats.avg_splits_per_op engine, "segments");
          ("engine.avg_segment_len", Stacktrack.Scheme_stats.avg_segment_length engine, "blocks");
          ("engine.replays", fi engine.replays, "count");
          ("engine.replay_ratio", ratio (fi engine.replays) (fi (engine.segments + engine.replays)), "ratio");
          ("engine.scans", fi engine.scans, "count");
          ("engine.scan_restarts", fi engine.scan_restarts, "count");
          ("engine.stack_words_per_scan", ratio (fi engine.stack_words) (fi engine.scans), "words");
          ("engine.slow_ops", fi engine.slow_ops, "count");
          ("guard.retired", fi guard.retired, "count");
          ("guard.freed", fi guard.freed, "count");
          ("guard.scans", fi guard.scans, "count");
          ("guard.scan_words", fi guard.scan_words, "count");
          ("guard.stall_cycles", fi guard.stall_cycles, "cycles");
          ("guard.protect_fences", fi guard.protect_fences, "count");
          ("guard.mean_lag_cycles", St_reclaim.Guard.mean_lag guard, "cycles");
          self_metric "guard.run_op_ns" [ Spans.Run_op ];
          self_metric "guard.read_ns" [ Spans.Read ];
          self_metric "guard.write_cas_ns" [ Spans.Write_cas ];
          ("dslib.accesses_per_op", ratio (fi accesses) (fi ops), "accesses");
          self_metric "dslib.contains_ns" [ Spans.Contains ];
          self_metric "dslib.insert_ns" [ Spans.Insert ];
          self_metric "dslib.delete_ns" [ Spans.Delete ];
          ("trace.overhead_pct", 100. *. (ratio traced_wall count_wall -. 1.), "%");
          abort_pct;
          failed_op_pct ();
        ]

(* ---- self-test -------------------------------------------------------- *)

(* The bound [host_s] carries in BENCHMARK.json. *)
let host_bound = 0.25

let check name ok fmt =
  Printf.ksprintf
    (fun detail ->
      Printf.printf "  %s %s: %s\n" (if ok then "ok  " else "FAIL") name detail;
      if not ok then fail ~ops:0 "%s: %s" name detail)
    fmt

(* Accounting: per run, span self times plus [sched.self_ms] must cover
   the traced wall time of [Sched.run], with every span closed. *)
let test_accounting (w : Machine.workload) refs =
  List.iter
    (fun (t, _) ->
      let sp = t.Machine.spans in
      let run_ns = fi sp.Spans.s_run_ns in
      let gap = Float.abs (fi (Spans.accounted_ns sp) -. run_ns) in
      check
        (w.name ^ " accounting")
        (sp.s_closed && gap <= 0.001 *. run_ns)
        "spans + sched self = %.3f ms of %.3f ms traced"
        (fi (Spans.accounted_ns sp) *. 1e-6)
        (run_ns *. 1e-6))
    (traced_set w refs)

(* Negative control: a delay injected into the benchmark's own Guard
   wrapper, for every scheme but StackTrack, must move the traced host time
   of hash-smr beyond the bound and leave list-st16 within it.  Medians of
   alternating plain/delayed pairs. *)
let delay_ns = 500

let test_negative_control (w : Machine.workload) refs ~expect_flagged =
  let plain = ref [] and delayed = ref [] in
  for _ = 1 to 5 do
    let wall ?delay_ns () =
      List.fold_left (fun a (_, s) -> a +. s) 0. (traced_set ?delay_ns w refs)
    in
    plain := wall () :: !plain;
    delayed := wall ~delay_ns () :: !delayed
  done;
  let change = (median !delayed /. median !plain) -. 1. in
  let flagged = change > host_bound in
  check
    (w.name ^ " negative control")
    (flagged = expect_flagged)
    "a %d ns delay per non-StackTrack read moved traced host time by %+.1f%% \
     (bound %.0f%%): %s"
    delay_ns (100. *. change) (100. *. host_bound)
    (if flagged then "flagged" else "within bound")

let selftest ~seed =
  List.iter
    (fun name ->
      let w = Option.get (Machine.workload name ~seed) in
      match run_set w with
      | None -> ()
      | Some warm ->
          let refs = sims warm in
          test_accounting w refs;
          test_negative_control w refs ~expect_flagged:(name = "hash-smr"))
    [ "list-st16"; "hash-smr" ];
  emit []

(* ---- command line ----------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 12648430 and seconds = ref 10.
  and trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " list-st16 | hash-smr | hash-1m");
      ("--seed", Arg.Set_int seed, " workload seed (default 12648430)");
      ("--seconds", Arg.Set_float seconds, " measuring time per run (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--selftest", Arg.Set self, " run the benchmark's own tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let code =
    if !self then selftest ~seed:!seed
    else
      match Machine.workload !workload ~seed:!seed with
      | None ->
          Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
            (String.concat ", " Machine.workload_names);
          2
      | Some w ->
          Printf.printf "workload %s, seed %d, %s\n%!" w.name !seed
            (if !trace = 0 then "end-to-end" else "per-layer (traced)");
          let metrics =
            if !trace = 0 then end_to_end w ~seconds:!seconds
            else per_layer w ~seed:!seed ~seconds:!seconds
          in
          print_metrics metrics;
          emit metrics
  in
  exit code
