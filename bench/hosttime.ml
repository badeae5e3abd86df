(* Host wall-clock harness.

   The bechamel micro-benchmarks in [main.ml] track the cost of one tiny
   experiment; this harness times *figure-sized* runs so that simulator
   performance work (e.g. the O(max_threads) -> O(active) conflict-index
   rewrite) is measured, not asserted.  Each target runs the same config the
   figure sweeps use, at one thread count, and prints the host milliseconds
   next to the simulated throughput, so a perf regression shows up as a
   bigger [host_ms] for identical simulated numbers.

   Usage:
     dune exec bench/hosttime.exe -- [--threads N] [--duration D] [--seed S]
                                     [--repeat R] [--scheme NAME] [--jobs J]
                                     [target ...]

   Targets (default fig1-list): fig1-list fig1-skiplist fig2-queue fig2-hash
   fig5-slowpath scan-list scale-list all — one experiment at [--threads].
   [scan-list] is the fig1 list config with [max_free = 1], making
   reclamation scans (not per-access instrumentation) the dominant cost.
   [scale-list] is the largest fig-scale point (a hash table raw-populated
   to 10^6 live objects at a fixed short duration), timing the chunked
   heap and line tables at scale.

   Sweep targets time the *whole figure sweep* (every thread point x every
   scheme column of the figure, Full thread grid at [--duration]) through
   the domain pool at [--jobs], so the parallel driver's host wall-clock
   speedup is measured, not asserted: run the same sweep with --jobs 1 and
   --jobs N and compare.  Targets: sweep-fig1-list sweep-fig1-skiplist
   sweep-fig2-queue sweep-fig2-hash sweep-all. *)

open St_harness

let threads = ref 16
let duration = ref 1_500_000
let seed = ref Experiment.default_config.Experiment.seed
let repeat = ref 1
let scheme_arg = ref "stacktrack"
let scheme = ref Experiment.stacktrack_default
let jobs = ref 1
let targets = ref []
let json_out = ref ""
let check_against = ref ""

let git_rev =
  (* No subprocess: CI passes the sha through the flag or GIT_REV. *)
  ref (try Sys.getenv "GIT_REV" with Not_found -> "unknown")

let spec =
  [
    ("--threads", Arg.Set_int threads, "N  Worker threads (default 16)");
    ( "--duration",
      Arg.Set_int duration,
      "D  Virtual cycles per thread (default 1500000, the Full figure \
       duration)" );
    ("--seed", Arg.Set_int seed, "S  RNG seed");
    ("--repeat", Arg.Set_int repeat, "R  Repetitions per target (default 1)");
    ( "--scheme",
      Arg.String
        (fun s ->
          match Experiment.scheme_of_name s with
          | Some k ->
              scheme_arg := s;
              scheme := k
          | None -> raise (Arg.Bad (Printf.sprintf "unknown scheme %S" s))),
      "NAME  "
      ^ String.concat "|"
          (List.concat_map (fun e -> e.Experiment.names) Experiment.schemes)
      ^ " (default stacktrack)" );
    ( "--jobs",
      Arg.Set_int jobs,
      "J  Domain-pool size for sweep-* targets (default 1 = sequential; 0 = \
       recommended domain count)" );
    ( "--json-out",
      Arg.Set_string json_out,
      "FILE  Write a machine-readable summary (per-target best-of-N ms, \
       scheme, threads, git rev)" );
    ( "--check-against",
      Arg.Set_string check_against,
      "FILE  Compare against a previously written --json-out file; exit 1 \
       if any shared target regressed by more than 25%" );
    ( "--git-rev",
      Arg.Set_string git_rev,
      "REV  Git revision recorded in --json-out (default: $GIT_REV or \
       \"unknown\")" );
  ]

let base_config target =
  let open Experiment in
  let base =
    {
      default_config with
      threads = !threads;
      duration = !duration;
      seed = !seed;
      scheme = !scheme;
      mutation_pct = 20;
    }
  in
  match target with
  | "fig1-list" ->
      Some { base with structure = List_s; key_range = 1024; init_size = 512 }
  | "fig1-skiplist" ->
      Some
        { base with structure = Skiplist_s; key_range = 8192; init_size = 4096 }
  | "fig2-queue" ->
      Some { base with structure = Queue_s; key_range = 1024; init_size = 64 }
  | "fig2-hash" ->
      Some
        {
          base with
          structure = Hash_s;
          key_range = 4096;
          init_size = 2048;
          n_buckets = 512;
        }
  | "fig5-slowpath" ->
      Some
        {
          base with
          structure = Skiplist_s;
          key_range = 8192;
          init_size = 4096;
          scheme =
            Stacktrack_s
              { Stacktrack.St_config.default with forced_slow_pct = 50 };
        }
  | "scale-list" ->
      (* Million-object slice: the hash structure raw-populated to the
         largest fig-scale point, then the usual mutation mix on top.
         Times the chunked-heap allocation/claim/free paths and the
         chunked line tables at a touched address space ~3 orders of
         magnitude beyond fig1-list; population cost (one claim per
         object) is part of the measurement.  [duration] is fixed rather
         than [--duration]: host time here should scale with the object
         count, not the figure-length virtual run. *)
      Some
        {
          base with
          structure = Hash_s;
          key_range = 2_000_000;
          init_size = 1_000_000;
          n_buckets = 250_000;
          duration = 150_000;
        }
  | "scan-list" ->
      (* Scan-heavy slice: with [max_free = 1] every retirement triggers a
         full stack scan, so this target times the [scan_and_free] path
         (stack walks, owner lookups, hashed scan tables) rather than the
         per-access engine path that fig1-list is dominated by. *)
      Some
        {
          base with
          structure = List_s;
          key_range = 1024;
          init_size = 512;
          scheme = Stacktrack_s { Stacktrack.St_config.default with max_free = 1 };
        }
  | _ -> None

(* Every point of a figure's Full sweep: thread grid x scheme columns,
   enumerated exactly as Figures does, at the configured duration/seed. *)
let sweep_configs target =
  let open Experiment in
  let sweep base schemes =
    let base = { base with duration = !duration; seed = !seed } in
    Some
      (List.concat_map
         (fun t -> List.map (fun scheme -> { base with scheme; threads = t }) schemes)
         (Figures.thread_points Figures.Full))
  in
  match target with
  | "sweep-fig1-list" ->
      sweep (Figures.list_config Figures.Full) (Figures.set_schemes @ [ Dta ])
  | "sweep-fig1-skiplist" ->
      sweep (Figures.skiplist_config Figures.Full) Figures.set_schemes
  | "sweep-fig2-queue" ->
      sweep (Figures.queue_config Figures.Full) Figures.set_schemes
  | "sweep-fig2-hash" ->
      sweep (Figures.hash_config Figures.Full) Figures.set_schemes
  | _ -> None

(* Immediate(unsafe) exists to demonstrate use-after-free: shadow
   violations are its expected output, not a harness failure. *)
let check_safe (r : Experiment.result) =
  match r.Experiment.cfg.Experiment.scheme with
  | Experiment.Immediate_unsafe -> ()
  | _ -> assert (r.Experiment.violations = 0)

let run_sweep target cfgs =
  let best = ref infinity in
  for _ = 1 to max 1 !repeat do
    let t0 = Unix.gettimeofday () in
    let results =
      Pool.run ~jobs:!jobs (List.map (fun cfg () -> Experiment.run cfg) cfgs)
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    if ms < !best then best := ms;
    let ops =
      List.fold_left (fun acc r -> acc + r.Experiment.total_ops) 0 results
    in
    List.iter check_safe results;
    Printf.printf
      "%-20s points=%-3d jobs=%-3d host_ms=%9.1f total_ops=%d\n%!" target
      (List.length cfgs) !jobs ms ops
  done;
  (target, !best)

let run_single target =
  match base_config target with
  | None ->
      Printf.eprintf "hosttime: unknown target %S\n" target;
      exit 2
  | Some cfg ->
      let best = ref infinity in
      for _ = 1 to max 1 !repeat do
        let t0 = Unix.gettimeofday () in
        let r = Experiment.run cfg in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        if ms < !best then best := ms;
        check_safe r;
        Printf.printf
          "%-14s threads=%-3d scheme=%-10s host_ms=%9.1f ops=%-8d \
           makespan=%-9d tput=%8.1f ops/Mcycle\n%!"
          target !threads !scheme_arg ms r.Experiment.total_ops
          r.Experiment.makespan r.Experiment.throughput
      done;
      (target, !best)

let run_target target =
  match sweep_configs target with
  | Some cfgs -> run_sweep target cfgs
  | None -> run_single target

(* ------------------------------------------------------------------ *)
(* JSON summary + soft perf gate                                       *)
(* ------------------------------------------------------------------ *)

let write_json path results =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"git_rev\": %S,\n" !git_rev;
  Printf.fprintf oc "  \"scheme\": %S,\n" !scheme_arg;
  Printf.fprintf oc "  \"threads\": %d,\n" !threads;
  Printf.fprintf oc "  \"repeat\": %d,\n" (max 1 !repeat);
  Printf.fprintf oc "  \"targets\": [\n";
  List.iteri
    (fun i (t, ms) ->
      Printf.fprintf oc "    { \"target\": %S, \"best_ms\": %.1f }%s\n" t ms
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Reads only the files [write_json] produces: one
   [{ "target": ..., "best_ms": ... }] object per line. *)
let read_json path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       try
         Scanf.sscanf (String.trim line)
           "{ %_[\"]target%_[\"]: %S, %_[\"]best_ms%_[\"]: %f }"
           (fun t ms -> entries := (t, ms) :: !entries)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !entries

(* Soft host-performance gate: alarm on a clear regression, stay quiet
   through CI-runner noise.  25% is far above run-to-run jitter on one
   machine but small enough to catch an accidentally reintroduced
   per-access allocation or scan. *)
let tolerance_pct = 25.

let check_regressions baseline_path results =
  let baseline = read_json baseline_path in
  if baseline = [] then begin
    Printf.eprintf "hosttime: no targets parsed from %s\n" baseline_path;
    exit 2
  end;
  let failed = ref false in
  List.iter
    (fun (t, ms) ->
      match List.assoc_opt t baseline with
      | None -> Printf.printf "gate: %-14s no baseline entry, skipped\n" t
      | Some base ->
          let delta_pct = (ms -. base) /. base *. 100. in
          if delta_pct > tolerance_pct then begin
            failed := true;
            Printf.printf
              "gate: %-14s REGRESSION %9.1f ms vs baseline %9.1f ms \
               (%+.1f%% > %.0f%% tolerance)\n"
              t ms base delta_pct tolerance_pct
          end
          else
            Printf.printf
              "gate: %-14s ok %9.1f ms vs baseline %9.1f ms (%+.1f%%)\n" t ms
              base delta_pct)
    results;
  if !failed then begin
    Printf.printf
      "gate: FAILED — host wall-clock regressed beyond %.0f%% (baseline %s, \
       rev %s).  If the slowdown is intentional, regenerate the baseline \
       with --json-out.\n"
      tolerance_pct baseline_path !git_rev;
    exit 1
  end

let () =
  Arg.parse spec (fun t -> targets := t :: !targets) "hosttime [options] targets";
  if !threads < 1 || !threads > St_sim.Topology.max_threads then begin
    Printf.eprintf "hosttime: --threads %d: must be between 1 and %d\n"
      !threads St_sim.Topology.max_threads;
    exit 2
  end;
  let all = [ "fig1-list"; "fig1-skiplist"; "fig2-queue"; "fig2-hash" ] in
  let sweep_all =
    [
      "sweep-fig1-list";
      "sweep-fig1-skiplist";
      "sweep-fig2-queue";
      "sweep-fig2-hash";
    ]
  in
  let ts =
    match List.rev !targets with
    | [] -> [ "fig1-list" ]
    | l when List.mem "all" l -> all
    | l when List.mem "sweep-all" l -> sweep_all
    | l -> l
  in
  let results = List.map run_target ts in
  Printf.printf "\nbest-of-%d summary:\n" (max 1 !repeat);
  List.iter (fun (t, ms) -> Printf.printf "  %-14s %9.1f ms\n" t ms) results;
  if !json_out <> "" then write_json !json_out results;
  if !check_against <> "" then check_regressions !check_against results
