(* Benchmark entry point.

   Usage:  dune exec bench/main.exe -- [target ...] [--quick] [--verbose]
                                       [--jobs N] [--json-out FILE]
                                       [--profile] [--flame-out FILE]

   Targets (default: all): every name in Figures.table, plus micro and all;
   an unknown target exits 2 and lists the valid ones.

   --jobs N runs the sweep points of each figure on a pool of N domains
   (default 1 = sequential; 0 = Domain.recommended_domain_count).  Reports
   are always emitted from the ordered results after a sweep completes, so
   the output is byte-identical for every N — CI diffs --jobs 2 against
   --jobs 1.  --json-out FILE additionally writes every Experiment.result
   of the result-returning figures (fig1/fig2 sweeps, memory profile) as a
   deterministic JSON list, the machine-checkable form of that A/B.

   Each paper table/figure is regenerated two ways:
   - the harness prints the full series exactly as the paper reports it
     (thread sweeps, scheme columns) — these are the numbers recorded in
     EXPERIMENTS.md;
   - a Bechamel [Test.make] per figure runs a small representative
     configuration under the statistics engine (one simulated experiment
     per iteration), giving a regression-trackable wall-clock cost for each
     experiment family. *)

open St_harness

let targets = ref []
let quick = ref false
let verbose = ref false
let jobs = ref 1
let json_out = ref None
let profile = ref false
let flame_out = ref None
let lifecycle = ref false
let forensics = ref false

let usage () =
  prerr_endline
    "usage: main.exe [target ...] [--quick|--full] [--verbose] [--jobs N] \
     [--json-out FILE] [--profile] [--flame-out FILE] [--lifecycle] \
     [--forensics]";
  exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--full" :: rest ->
        quick := false;
        go rest
    | "--verbose" :: rest ->
        verbose := true;
        go rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
            jobs := n;
            go rest
        | _ -> usage ())
    | [ "--jobs" ] -> usage ()
    | "--json-out" :: file :: rest ->
        json_out := Some file;
        go rest
    | [ "--json-out" ] -> usage ()
    | "--profile" :: rest ->
        profile := true;
        go rest
    | "--flame-out" :: file :: rest ->
        flame_out := Some file;
        go rest
    | [ "--flame-out" ] -> usage ()
    | "--lifecycle" :: rest ->
        lifecycle := true;
        go rest
    | "--forensics" :: rest ->
        forensics := true;
        go rest
    | t :: rest ->
        targets := t :: !targets;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  if !targets = [] then targets := [ "all" ]

let want t = List.mem t !targets || List.mem "all" !targets

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per figure family           *)
(* ------------------------------------------------------------------ *)

let mini_cfg structure scheme =
  {
    Experiment.default_config with
    structure;
    scheme;
    threads = 4;
    duration = 60_000;
    key_range = 256;
    init_size = 128;
  }

let bench_experiment name cfg =
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage (fun () -> ignore (Experiment.run cfg)))

let micro_tests () =
  let open Experiment in
  Bechamel.Test.make_grouped ~name:"figures"
    [
      bench_experiment "fig1a-list-stacktrack"
        (mini_cfg List_s stacktrack_default);
      bench_experiment "fig1a-list-hazards" (mini_cfg List_s Hazards);
      bench_experiment "fig1a-list-epoch" (mini_cfg List_s Epoch);
      bench_experiment "fig1a-list-dta" (mini_cfg List_s Dta);
      bench_experiment "fig1b-skiplist-stacktrack"
        (mini_cfg Skiplist_s stacktrack_default);
      bench_experiment "fig2a-queue-stacktrack"
        (mini_cfg Queue_s stacktrack_default);
      bench_experiment "fig2b-hash-stacktrack"
        (mini_cfg Hash_s stacktrack_default);
      bench_experiment "fig3-4-aborts-splits"
        { (mini_cfg List_s stacktrack_default) with threads = 8 };
      bench_experiment "fig5-slowpath"
        (mini_cfg Skiplist_s
           (Stacktrack_s
              { Stacktrack.St_config.default with forced_slow_pct = 50 }));
    ]

let run_micro () =
  let open Bechamel in
  Report.header ~title:"Bechamel micro-benchmarks"
    ~subtitle:"wall-clock cost of one mini experiment per figure family";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%10.3f ms/run" (e /. 1e6)
        | _ -> "          n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "r2=%.3f" r
        | None -> ""
      in
      Format.printf "  %-40s %s %s@." name est r2)
    results

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  let figures =
    match Figures.select (List.filter (( <> ) "micro") !targets) with
    | Ok figures -> figures
    | Error unknown ->
        Printf.eprintf "main.exe: unknown target %s; valid: %s\n"
          (String.concat ", " unknown)
          (String.concat " " (Figures.names @ [ "micro"; "all" ]));
        exit 2
  in
  let opts =
    {
      Figures.verbose = !verbose;
      jobs = !jobs;
      profile = !profile || !flame_out <> None;
      lifecycle = !lifecycle;
      forensics = !forensics;
      speed = (if !quick then Figures.Quick else Figures.Full);
    }
  in
  (* Results of the figures that return full Experiment.results, in the
     order the figures ran, for --json-out. *)
  let collected = List.concat_map (fun (_, run) -> run opts) figures in
  if want "micro" then run_micro ();
  (match !json_out with
  | Some file ->
      Json_out.write_file file
        (Json_out.List (List.map Result_json.encode collected));
      (* stderr, so stdout stays byte-identical across output filenames *)
      Format.eprintf "json: %s (%d results)@." file (List.length collected)
  | None -> ());
  (match !flame_out with
  | Some file ->
      Result_json.write_flame_file file collected;
      Format.eprintf "flame: %s (%d results)@." file (List.length collected)
  | None -> ());
  Format.printf "@.done.@."
