(* Tests for the observability layer: typed trace capture through a full
   simulated run, Chrome trace-event export (golden determinism: the
   simulator is deterministic, so identical seeds must produce
   byte-identical exports), the JSON result encoder, the virtual-time
   metrics sampler, and schedule invisibility: no combination of observers
   changes the simulated result. *)

open St_harness
open St_sim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let base ~trace ~metrics_interval =
  {
    Experiment.default_config with
    scheme = Experiment.stacktrack_default;
    threads = 4;
    duration = 120_000;
    key_range = 64;
    init_size = 32;
    mutation_pct = 40;
    trace;
    metrics_interval;
  }

let run_traced () =
  let trace = Trace.create ~capacity:(1 lsl 18) ~enabled:true () in
  let r = Experiment.run (base ~trace:(Some trace) ~metrics_interval:20_000) in
  (r, trace)

(* ------------------------------------------------------------------ *)
(* Golden determinism                                                  *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_deterministic () =
  let _, t1 = run_traced () in
  let _, t2 = run_traced () in
  let j1 = Chrome_trace.to_string t1 and j2 = Chrome_trace.to_string t2 in
  checkb "trace non-trivial" true (String.length j1 > 1000);
  Alcotest.(check string) "byte-identical chrome traces" j1 j2

let test_result_json_deterministic () =
  let r1, _ = run_traced () in
  let r2, _ = run_traced () in
  Alcotest.(check string) "byte-identical result json"
    (Result_json.to_string r1) (Result_json.to_string r2);
  (* A different seed must actually change the output (the check above is
     vacuous if the encoder ignores its input). *)
  let r3 =
    Experiment.run
      { (base ~trace:None ~metrics_interval:0) with seed = 0xBEEF }
  in
  checkb "different seed differs" true
    (Result_json.to_string r1 <> Result_json.to_string r3)

(* ------------------------------------------------------------------ *)
(* Trace contents                                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_captures_all_layers () =
  let _, trace = run_traced () in
  let seen = Hashtbl.create 8 in
  Trace.iter trace (fun e -> Hashtbl.replace seen e.Trace.category ());
  List.iter
    (fun (cat, label) ->
      checkb (label ^ " events present") true (Hashtbl.mem seen cat))
    [
      (Trace.Htm, "htm");
      (Trace.Reclaim, "reclaim");
      (Trace.Engine, "engine");
    ];
  checkb "events recorded" true (Trace.total trace > 100)

let test_trace_spans_balanced () =
  (* In a crash-free run every Begin span is eventually closed: operations
     end with a commit (or abort), scans and stalls return.  Count B/E per
     (tid, name) pair. *)
  let _, trace = run_traced () in
  let counts = Hashtbl.create 64 in
  Trace.iter trace (fun e ->
      let bump key delta =
        Hashtbl.replace counts key
          (delta + Option.value ~default:0 (Hashtbl.find_opt counts key))
      in
      match e.Trace.phase with
      | Trace.Begin -> bump (e.Trace.tid, e.Trace.name) 1
      | Trace.End -> bump (e.Trace.tid, e.Trace.name) (-1)
      | Trace.Instant | Trace.Counter -> ());
  Hashtbl.iter
    (fun (tid, name) n ->
      checki (Printf.sprintf "t%d %s balanced" tid name) 0 n)
    counts

let test_disabled_trace_records_nothing () =
  let trace = Trace.create ~enabled:false () in
  let _ = Experiment.run (base ~trace:(Some trace) ~metrics_interval:0) in
  checki "no events through a full run" 0 (Trace.total trace);
  (* And the exporter renders it as an empty event list. *)
  let j = Chrome_trace.to_string trace in
  checkb "empty traceEvents" true
    (String.length j < 200
    &&
    let sub = "\"traceEvents\":[]" in
    let n = String.length sub and m = String.length j in
    let rec go i = i + n <= m && (String.sub j i n = sub || go (i + 1)) in
    go 0)

(* ------------------------------------------------------------------ *)
(* Metrics sampler                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_sampled () =
  let r, _ = run_traced () in
  let ms = r.Experiment.metrics in
  checkb "samples taken" true (List.length ms >= 2);
  let rec monotone f = function
    | a :: (b :: _ as rest) -> f a <= f b && monotone f rest
    | _ -> true
  in
  checkb "time increases" true (monotone (fun s -> s.Metrics.time) ms);
  checkb "ops cumulative" true (monotone (fun s -> s.Metrics.ops) ms);
  checkb "commits cumulative" true (monotone (fun s -> s.Metrics.commits) ms);
  List.iter
    (fun s ->
      checkb "pending non-negative" true (s.Metrics.pending_frees >= 0);
      checkb "live = allocs - frees" true
        (s.Metrics.live_objects = s.Metrics.allocs - s.Metrics.frees))
    ms;
  (* The last cumulative sample cannot exceed the run's totals. *)
  match List.rev ms with
  | last :: _ ->
      checkb "ops bounded by total" true (last.Metrics.ops <= r.Experiment.total_ops);
      checkb "commits bounded" true
        (last.Metrics.commits <= r.Experiment.htm.St_htm.Htm_stats.commits)
  | [] -> Alcotest.fail "no samples"

let test_metrics_off_by_default () =
  let r = Experiment.run (base ~trace:None ~metrics_interval:0) in
  checki "no samples when off" 0 (List.length r.Experiment.metrics)

(* ------------------------------------------------------------------ *)
(* Schedule invisibility                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The result JSON with every observer section removed: what the same
   configuration prints with no observer on. *)
let core (r : Experiment.result) =
  Result_json.to_string
    {
      r with
      cfg = { r.cfg with metrics_interval = 0; trace = None };
      metrics = [];
      profile = None;
      heatmap = None;
      lifecycle = None;
      forensics = None;
    }

(* Every subset of {trace, profile, forensics, lifecycle, metrics} yields
   the unflagged run's core.  The samplers and the crash injector are
   scheduler timers, so this holds for the crashed run too. *)
let check_invisible name cfg =
  let unflagged = Experiment.run cfg in
  for mask = 1 to 31 do
    let on bit = mask land (1 lsl bit) <> 0 in
    let r =
      Experiment.run
        {
          cfg with
          trace =
            (if on 0 then Some (Trace.create ~capacity:4096 ~enabled:true ())
             else None);
          profile = on 1;
          forensics = on 2;
          lifecycle = on 3;
          metrics_interval = (if on 4 then 30_000 else 0);
        }
    in
    Alcotest.(check string)
      (Printf.sprintf "%s, observer mask %d" name mask)
      (core unflagged) (core r)
  done

(* Eight threads fill the eight lcores, so a harness thread would have to
   share one with a worker. *)
let invisible_cfg =
  {
    Experiment.default_config with
    scheme = Experiment.stacktrack_default;
    threads = 8;
    duration = 160_000;
    key_range = 256;
    init_size = 128;
    mutation_pct = 40;
  }

let test_invisible_stacktrack () = check_invisible "stacktrack" invisible_cfg

let test_invisible_crash () =
  check_invisible "debra+ crash"
    { invisible_cfg with scheme = Experiment.Debra_plus; crash_tids = [ 0 ] }

(* The committed lifecycle golden is the plain StackTrack golden plus its
   reclaim_lifecycle section. *)
let test_lifecycle_golden_core () =
  let plain = read_file "goldens/identity_list_st.json" in
  let flagged = read_file "goldens/identity_list_st_lifecycle.json" in
  let section = ",\"reclaim_lifecycle\":" in
  let rec find i =
    if i + String.length section > String.length flagged then
      Alcotest.fail "lifecycle golden has no reclaim_lifecycle section"
    else if String.sub flagged i (String.length section) = section then i
    else find (i + 1)
  in
  Alcotest.(check string)
    "identity_list_st_lifecycle core = identity_list_st" plain
    (String.sub flagged 0 (find 0) ^ "}\n")

(* ------------------------------------------------------------------ *)
(* JSON writer                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  Alcotest.(check string) "escapes specials"
    "{\"k\\\"ey\":\"a\\nb\\\\c\\u0001\"}"
    (Json_out.to_string
       (Json_out.Obj [ ("k\"ey", Json_out.String "a\nb\\c\x01") ]));
  Alcotest.(check string) "non-finite floats become null" "[null,null,1.5]"
    (Json_out.to_string
       (Json_out.List
          [ Json_out.Float nan; Json_out.Float infinity; Json_out.Float 1.5 ]))

let () =
  Alcotest.run "st_observability"
    [
      ( "golden",
        [
          Alcotest.test_case "chrome export deterministic" `Quick
            test_chrome_export_deterministic;
          Alcotest.test_case "result json deterministic" `Quick
            test_result_json_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "all layers emit" `Quick
            test_trace_captures_all_layers;
          Alcotest.test_case "spans balanced" `Quick test_trace_spans_balanced;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_trace_records_nothing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "sampled series" `Quick test_metrics_sampled;
          Alcotest.test_case "off by default" `Quick test_metrics_off_by_default;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "every observer subset, stacktrack" `Quick
            test_invisible_stacktrack;
          Alcotest.test_case "every observer subset, crashed debra+" `Quick
            test_invisible_crash;
          Alcotest.test_case "lifecycle golden core" `Quick
            test_lifecycle_golden_core;
        ] );
      ("json", [ Alcotest.test_case "escaping" `Quick test_json_escaping ]);
    ]
