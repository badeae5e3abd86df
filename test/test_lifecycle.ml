(* Memory-lifecycle observability: the ledger's census must conserve
   objects across every scheme (crash and oversubscribed schedules
   included), the stalled-reclamation watchdog must fire exactly on
   stagnation, and the whole subsystem must be invisible when off —
   unflagged runs stay byte-identical to the committed goldens.

   Four groups:

   - Ledger unit tests: stamp bookkeeping, retire idempotence, the
     rollback free-without-retire path, limbo/footprint peaks, and the
     cross-check diagnostics on seeded divergence.

   - Watchdog unit tests: synthetic observation sequences — threshold
     firing, the constant-backlog (idle tail) non-firing case, closing on
     resumed progress or a drained backlog.

   - Full-run conservation: all ten schemes (including DEBRA, DEBRA+ and
     Hazard Eras), plus crashed-thread runs and an oversubscribed
     (threads > logical cores) run; each run's
     summary must agree with the heap census and conserve
     allocs = frees + live.  (Experiment.run itself cross-checks the
     ledger against heap/shadow and raises on divergence, so completing
     at all is half the test.)

   - Flag gating: the epoch-with-crash run stagnates (ongoing incident,
     limbo backlog at exit) where the same schedule under StackTrack does
     not; reclaim_lifecycle appears in result JSON iff the flag was set;
     an unflagged identity run still reproduces its golden byte-for-byte. *)

open St_sim
open St_harness

let quick name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Ledger unit tests                                                   *)
(* ------------------------------------------------------------------ *)

(* A hand-driven ledger over a fake clock and a fake address map:
   addresses 100+i resolve to birth witness i+1 while "live". *)
let make_ledger ?(n = 8) () =
  let clock = ref 0 in
  let live = Array.make n true in
  let resolve addr =
    let i = addr - 100 in
    if i >= 0 && i < n && live.(i) then i + 1 else 0
  in
  let lc = St_mem.Lifecycle.create ~now:(fun () -> !clock) ~resolve () in
  (lc, clock, live)

let test_ledger_stamps () =
  let open St_mem.Lifecycle in
  let lc, clock, _live = make_ledger () in
  clock := 10;
  on_alloc lc ~birth:0 ~words:4;
  clock := 25;
  on_retire lc ~now:25 100;
  clock := 40;
  on_free lc ~birth:0 ~words:4;
  Alcotest.(check (option (triple int (option int) (option int))))
    "full lifecycle stamps" (Some (10, Some 25, Some 40)) (stamps lc 0);
  Alcotest.(check (option (triple int (option int) (option int))))
    "unallocated birth" None (stamps lc 1);
  let lags = ref [] in
  iter_lags lc (fun l -> lags := l :: !lags);
  Alcotest.(check (list int)) "one lag sample" [ 15 ] !lags;
  Alcotest.(check int) "allocs" 1 (allocs lc);
  Alcotest.(check int) "retires" 1 (retires lc);
  Alcotest.(check int) "frees" 1 (frees lc);
  Alcotest.(check int) "live after free" 0 (live_objects lc);
  Alcotest.(check int) "limbo drained" 0 (limbo_objects lc)

let test_ledger_retire_idempotent () =
  let open St_mem.Lifecycle in
  let lc, clock, live = make_ledger () in
  clock := 5;
  on_alloc lc ~birth:0 ~words:2;
  on_retire lc ~now:7 100;
  on_retire lc ~now:9 100;
  (* replay keeps the first stamp *)
  Alcotest.(check (option (triple int (option int) (option int))))
    "first retire stamp wins"
    (Some (5, Some 7, None))
    (stamps lc 0);
  Alcotest.(check int) "counted once" 1 (retires lc);
  Alcotest.(check int) "one in limbo" 1 (limbo_objects lc);
  (* A retire of an address that is no longer a live base is dropped. *)
  live.(0) <- false;
  on_retire lc ~now:11 100;
  Alcotest.(check int) "dead address dropped" 1 (retires lc)

let test_ledger_rollback_free () =
  let open St_mem.Lifecycle in
  let lc, clock, _live = make_ledger () in
  (* Speculative alloc rolled back: freed without ever being retired. *)
  clock := 3;
  on_alloc lc ~birth:0 ~words:4;
  clock := 6;
  on_free lc ~birth:0 ~words:4;
  Alcotest.(check int) "never entered limbo" 0 (peak_limbo_objects lc);
  let n_lags = ref 0 in
  iter_lags lc (fun _ -> incr n_lags);
  Alcotest.(check int) "no lag sample" 0 !n_lags;
  Alcotest.(check int) "census still counts it" 1 (frees lc);
  (* Double free stamp is ignored; birth < 0 (violating free) too. *)
  on_free lc ~birth:0 ~words:4;
  on_free lc ~birth:(-1) ~words:4;
  Alcotest.(check int) "free stamped once" 1 (frees lc)

let test_ledger_peaks () =
  let open St_mem.Lifecycle in
  let lc, clock, _live = make_ledger () in
  clock := 0;
  for i = 0 to 3 do
    on_alloc lc ~birth:i ~words:8
  done;
  Alcotest.(check int) "live words" 32 (live_words lc);
  on_retire lc ~now:1 100;
  on_retire lc ~now:2 101;
  on_retire lc ~now:3 102;
  Alcotest.(check int) "limbo peak objects" 3 (peak_limbo_objects lc);
  Alcotest.(check int) "limbo peak words" 24 (peak_limbo_words lc);
  clock := 10;
  on_free lc ~birth:0 ~words:8;
  on_free lc ~birth:1 ~words:8;
  Alcotest.(check int) "limbo drains" 1 (limbo_objects lc);
  Alcotest.(check int) "peak survives the drain" 3 (peak_limbo_objects lc);
  Alcotest.(check int) "peak live words" 32 (peak_live_words lc);
  Alcotest.(check int) "live words after frees" 16 (live_words lc)

let test_ledger_cross_check () =
  let open St_mem.Lifecycle in
  let lc, clock, _live = make_ledger () in
  clock := 1;
  on_alloc lc ~birth:0 ~words:4;
  on_alloc lc ~birth:1 ~words:4;
  clock := 2;
  on_free lc ~birth:0 ~words:4;
  Alcotest.(check bool)
    "consistent census passes" true
    (cross_check lc ~heap_allocs:2 ~heap_frees:1 ~heap_live:1 = None);
  let diverged msg = Alcotest.(check bool) msg true in
  diverged "alloc undercount caught"
    (cross_check lc ~heap_allocs:3 ~heap_frees:1 ~heap_live:2 <> None);
  diverged "freed-but-live divergence caught"
    (cross_check lc ~heap_allocs:2 ~heap_frees:2 ~heap_live:0 <> None);
  diverged "leaked-at-exit divergence caught"
    (cross_check lc ~heap_allocs:2 ~heap_frees:1 ~heap_live:2 <> None);
  Alcotest.(check bool)
    "disabled ledger never diverges" true
    (cross_check disabled ~heap_allocs:99 ~heap_frees:0 ~heap_live:42 = None)

(* ------------------------------------------------------------------ *)
(* Watchdog unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let make_wd ?threshold () =
  Watchdog.create ?threshold
    ~trace:(Trace.create ~capacity:64 ~enabled:false ())
    ()

let test_watchdog_fires () =
  let wd = make_wd () in
  (* Baseline, then three no-progress observations with a growing
     backlog: the default threshold (3 quanta) is met on the third. *)
  Watchdog.observe wd ~time:0 ~tid:0 ~progress:5 ~backlog:2;
  Watchdog.observe wd ~time:100 ~tid:0 ~progress:5 ~backlog:4;
  Watchdog.observe wd ~time:200 ~tid:0 ~progress:5 ~backlog:6;
  let r = Watchdog.report wd ~now:250 in
  Alcotest.(check int) "not yet at threshold" 0 r.Watchdog.n_incidents;
  Watchdog.observe wd ~time:300 ~tid:0 ~progress:5 ~backlog:8;
  let r = Watchdog.report wd ~now:350 in
  Alcotest.(check int) "incident flagged" 1 r.Watchdog.n_incidents;
  Alcotest.(check bool) "ongoing" true r.Watchdog.ongoing;
  let inc = List.hd r.Watchdog.incidents in
  Alcotest.(check int)
    "incident starts at first stalled obs" 100 inc.Watchdog.start_time;
  Alcotest.(check int) "peak backlog" 8 inc.Watchdog.peak_backlog;
  Alcotest.(check int)
    "stalled cycles count to now" 250 r.Watchdog.total_stalled_cycles

let test_watchdog_constant_backlog_silent () =
  let wd = make_wd () in
  (* An idle tail: nothing frees, but nothing retires either.  The
     backlog never grows past the stall's start, so no incident. *)
  Watchdog.observe wd ~time:0 ~tid:0 ~progress:7 ~backlog:5;
  for i = 1 to 10 do
    Watchdog.observe wd ~time:(i * 100) ~tid:0 ~progress:7 ~backlog:5
  done;
  let r = Watchdog.report wd ~now:1100 in
  Alcotest.(check int) "constant backlog never fires" 0 r.Watchdog.n_incidents;
  Alcotest.(check int) "observations counted" 11 r.Watchdog.n_observations

let test_watchdog_closes_on_progress () =
  let wd = make_wd () in
  Watchdog.observe wd ~time:0 ~tid:0 ~progress:0 ~backlog:1;
  Watchdog.observe wd ~time:100 ~tid:0 ~progress:0 ~backlog:2;
  Watchdog.observe wd ~time:200 ~tid:0 ~progress:0 ~backlog:3;
  Watchdog.observe wd ~time:300 ~tid:0 ~progress:0 ~backlog:4;
  Alcotest.(check bool)
    "open before progress" true
    (Watchdog.report wd ~now:300).Watchdog.ongoing;
  Watchdog.observe wd ~time:400 ~tid:0 ~progress:1 ~backlog:3;
  let r = Watchdog.report wd ~now:500 in
  Alcotest.(check bool) "closed by progress" false r.Watchdog.ongoing;
  Alcotest.(check int) "still one incident" 1 r.Watchdog.n_incidents;
  let inc = List.hd r.Watchdog.incidents in
  Alcotest.(check int) "end stamped" 400 inc.Watchdog.end_time;
  Alcotest.(check int)
    "duration is start..end" 300 r.Watchdog.total_stalled_cycles

let test_watchdog_closes_on_drain () =
  let wd = make_wd ~threshold:2 () in
  Watchdog.observe wd ~time:0 ~tid:0 ~progress:0 ~backlog:1;
  Watchdog.observe wd ~time:100 ~tid:0 ~progress:0 ~backlog:2;
  Watchdog.observe wd ~time:200 ~tid:0 ~progress:0 ~backlog:3;
  Alcotest.(check bool)
    "threshold 2 fires earlier" true
    (Watchdog.report wd ~now:200).Watchdog.ongoing;
  (* Backlog drains without the progress counter moving (a competing
     counter's view): an empty limbo cannot be stagnation. *)
  Watchdog.observe wd ~time:300 ~tid:0 ~progress:0 ~backlog:0;
  Alcotest.(check bool)
    "closed by drained backlog" false
    (Watchdog.report wd ~now:300).Watchdog.ongoing

(* ------------------------------------------------------------------ *)
(* Full-run conservation                                               *)
(* ------------------------------------------------------------------ *)

let lifecycle_cfg ?(crash = []) ?(threads = 8) scheme =
  {
    Experiment.default_config with
    scheme;
    threads;
    duration = 400_000;
    crash_tids = crash;
    lifecycle = true;
  }

let summary_of r =
  match r.Experiment.lifecycle with
  | Some lc -> lc
  | None -> Alcotest.fail "flagged run lost its lifecycle summary"

let check_conservation name (r : Experiment.result) =
  let lc = summary_of r in
  let chk what = Alcotest.(check int) (name ^ ": " ^ what) in
  chk "ledger allocs = heap allocs" r.Experiment.allocs lc.Experiment.lc_allocs;
  chk "ledger frees = heap frees" r.Experiment.frees lc.Experiment.lc_frees;
  chk "ledger live = heap live" r.Experiment.live_at_end
    lc.Experiment.lc_live_at_end;
  chk "allocs = frees + live"
    lc.Experiment.lc_allocs
    (lc.Experiment.lc_frees + lc.Experiment.lc_live_at_end);
  Alcotest.(check bool)
    (name ^ ": limbo within retires") true
    (lc.Experiment.limbo_at_end >= 0
    && lc.Experiment.limbo_at_end <= lc.Experiment.lc_retires);
  Alcotest.(check bool)
    (name ^ ": peaks dominate exit state") true
    (lc.Experiment.peak_limbo_objects >= lc.Experiment.limbo_at_end
    && lc.Experiment.peak_limbo_words >= lc.Experiment.limbo_words_at_end);
  Alcotest.(check bool)
    (name ^ ": lag samples need both stamps") true
    (Latency.count lc.Experiment.lag_hist
     <= min lc.Experiment.lc_retires lc.Experiment.lc_frees);
  Alcotest.(check bool)
    (name ^ ": sampler produced a series") true
    (lc.Experiment.lc_series <> []);
  let monotone, _ =
    List.fold_left
      (fun (ok, prev) (s : Metrics.lifecycle_sample) ->
        (ok && s.Metrics.lc_time > prev, s.Metrics.lc_time))
      (true, -1) lc.Experiment.lc_series
  in
  Alcotest.(check bool) (name ^ ": series time monotone") true monotone

(* Every registered scheme, by its canonical CLI name. *)
let all_schemes =
  List.map
    (fun (e : Experiment.scheme_entry) -> (List.hd e.names, e.kind))
    Experiment.schemes

let test_conservation_all_schemes () =
  List.iter
    (fun (name, scheme) ->
      check_conservation name (Experiment.run (lifecycle_cfg scheme)))
    all_schemes

let test_conservation_crash () =
  (* A crashed thread pins the epoch: the run must still conserve the
     census even though reclamation stalls.  DEBRA+ additionally delivers
     signals at the corpse and restarts live victims; Hazard Eras keeps
     stamping birth/retire eras across the crash — both must balance. *)
  check_conservation "epoch+crash"
    (Experiment.run (lifecycle_cfg ~crash:[ 0 ] Experiment.Epoch));
  check_conservation "stacktrack+crash"
    (Experiment.run
       (lifecycle_cfg ~crash:[ 0 ] Experiment.stacktrack_default));
  check_conservation "debra+crash"
    (Experiment.run (lifecycle_cfg ~crash:[ 0 ] Experiment.Debra));
  check_conservation "debra-plus+crash"
    (Experiment.run (lifecycle_cfg ~crash:[ 0 ] Experiment.Debra_plus));
  check_conservation "hazard-eras+crash"
    (Experiment.run (lifecycle_cfg ~crash:[ 0 ] Experiment.Hazard_eras))

let test_conservation_oversubscribed () =
  (* More threads than logical cores: stamps cross preemption points and
     the now_or_global clock is exercised on descheduled threads.  For
     DEBRA+ this is also the neutralization stress: preempted threads sit
     announced-in-op past patience and get signalled mid-operation. *)
  check_conservation "epoch x12"
    (Experiment.run (lifecycle_cfg ~threads:12 Experiment.Epoch));
  check_conservation "stacktrack x12"
    (Experiment.run (lifecycle_cfg ~threads:12 Experiment.stacktrack_default));
  check_conservation "debra x12"
    (Experiment.run (lifecycle_cfg ~threads:12 Experiment.Debra));
  check_conservation "debra-plus x12"
    (Experiment.run (lifecycle_cfg ~threads:12 Experiment.Debra_plus));
  check_conservation "hazard-eras x12"
    (Experiment.run (lifecycle_cfg ~threads:12 Experiment.Hazard_eras))

(* ------------------------------------------------------------------ *)
(* Stagnation contrast + flag gating                                   *)
(* ------------------------------------------------------------------ *)

let stall_cfg scheme =
  {
    Experiment.default_config with
    scheme;
    threads = 8;
    duration = 2_000_000;
    crash_tids = [ 0 ];
    lifecycle = true;
  }

let test_stalled_epoch_vs_stacktrack () =
  (* The paper's §1 failure mode: a crashed thread pins the epoch, so the
     limbo backlog grows without bound and the watchdog stays open at
     exit.  StackTrack's stack scans shrug the crash off — the same
     schedule drains its backlog and any stall closes. *)
  let epoch = summary_of (Experiment.run (stall_cfg Experiment.Epoch)) in
  let st =
    summary_of (Experiment.run (stall_cfg Experiment.stacktrack_default))
  in
  Alcotest.(check bool)
    "epoch stagnates (ongoing incident)" true
    epoch.Experiment.watchdog.Watchdog.ongoing;
  Alcotest.(check bool)
    "epoch limbo backlog left at exit" true
    (epoch.Experiment.limbo_at_end > 0);
  Alcotest.(check bool)
    "stacktrack does not stagnate" false
    st.Experiment.watchdog.Watchdog.ongoing;
  Alcotest.(check bool)
    "stacktrack keeps limbo below the stalled epoch" true
    (st.Experiment.limbo_at_end < epoch.Experiment.limbo_at_end)

let test_robustness_contrast () =
  (* The modern-SMR robustness matrix under one crashed thread:
     - DEBRA inherits the epoch failure mode — the corpse's announcement
       pins the epoch, bags never rotate, ongoing stagnation incident;
     - DEBRA+ neutralizes the corpse (trace-visible signals), the epoch
       advances, and the backlog drains — no open incident at exit;
     - Hazard Eras only pins nodes born inside the corpse's frozen era
       interval, so reclamation continues and no incident opens. *)
  let debra_r = Experiment.run (stall_cfg Experiment.Debra) in
  let debra = summary_of debra_r in
  Alcotest.(check bool)
    "debra stagnates like epoch (ongoing incident)" true
    debra.Experiment.watchdog.Watchdog.ongoing;
  Alcotest.(check bool)
    "debra limbo backlog left at exit" true
    (debra.Experiment.limbo_at_end > 0);
  let dp_r = Experiment.run (stall_cfg Experiment.Debra_plus) in
  let dp = summary_of dp_r in
  Alcotest.(check bool)
    "debra+ neutralized the corpse" true
    (List.assoc "neutralizations" dp_r.Experiment.extras > 0);
  Alcotest.(check bool)
    "debra+ does not stagnate" false
    dp.Experiment.watchdog.Watchdog.ongoing;
  Alcotest.(check bool)
    "debra+ keeps limbo below stalled debra" true
    (dp.Experiment.limbo_at_end < debra.Experiment.limbo_at_end);
  let he_r = Experiment.run (stall_cfg Experiment.Hazard_eras) in
  let he = summary_of he_r in
  Alcotest.(check bool)
    "hazard eras does not stagnate" false
    he.Experiment.watchdog.Watchdog.ongoing;
  Alcotest.(check bool)
    "hazard eras advanced its era clock" true
    (List.assoc "era" he_r.Experiment.extras > 1);
  Alcotest.(check bool)
    "hazard eras keeps its backlog below stalled debra" true
    (he.Experiment.limbo_at_end < debra.Experiment.limbo_at_end);
  Alcotest.(check bool)
    "hazard eras kept reclaiming after the crash" true
    (he_r.Experiment.reclaim.St_reclaim.Guard.freed > 0)

let test_clean_run_silent () =
  (* No crash, steady reclamation: the detector must stay quiet. *)
  let r = Experiment.run (lifecycle_cfg Experiment.Epoch) in
  let lc = summary_of r in
  Alcotest.(check int)
    "no incidents on a clean epoch run" 0
    lc.Experiment.watchdog.Watchdog.n_incidents;
  Alcotest.(check bool)
    "observations were made" true
    (lc.Experiment.watchdog.Watchdog.n_observations > 0)

let test_json_gating () =
  let base = lifecycle_cfg Experiment.Epoch in
  let flagged = Result_json.to_string (Experiment.run base) in
  let unflagged =
    Result_json.to_string
      (Experiment.run { base with Experiment.lifecycle = false })
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "flagged JSON has reclaim_lifecycle" true
    (contains flagged "\"reclaim_lifecycle\"");
  Alcotest.(check bool)
    "unflagged JSON omits it" false
    (contains unflagged "\"reclaim_lifecycle\"")

(* Unflagged identity run: the disabled ledger hooks and the absent
   sampler must leave the committed golden byte-for-byte intact (mirror
   of test_perf_identity's pinned configuration). *)
let test_unflagged_identity () =
  let cfg =
    {
      Experiment.default_config with
      structure = Experiment.List_s;
      scheme = Experiment.Epoch;
      threads = 12;
      duration = 250_000;
      key_range = 1024;
      init_size = 512;
      mutation_pct = 20;
      seed = 0xC0FFEE;
      n_buckets = 512;
    }
  in
  let r = Experiment.run cfg in
  Alcotest.(check string)
    "goldens/identity_list_epoch.json byte-identical"
    (read_file "goldens/identity_list_epoch.json")
    (Result_json.to_string r ^ "\n")

let () =
  Alcotest.run "lifecycle"
    [
      ( "ledger",
        [
          quick "stamps + lag" test_ledger_stamps;
          quick "retire idempotence" test_ledger_retire_idempotent;
          quick "rollback free skips limbo" test_ledger_rollback_free;
          quick "limbo/footprint peaks" test_ledger_peaks;
          quick "cross-check diagnostics" test_ledger_cross_check;
        ] );
      ( "watchdog",
        [
          quick "fires at threshold" test_watchdog_fires;
          quick "constant backlog silent" test_watchdog_constant_backlog_silent;
          quick "closes on progress" test_watchdog_closes_on_progress;
          quick "closes on drained backlog" test_watchdog_closes_on_drain;
        ] );
      ( "conservation",
        [
          quick "all ten schemes" test_conservation_all_schemes;
          quick "crashed thread" test_conservation_crash;
          quick "oversubscribed" test_conservation_oversubscribed;
        ] );
      ( "gating",
        [
          quick "stalled epoch vs stacktrack" test_stalled_epoch_vs_stacktrack;
          quick "modern-SMR robustness contrast" test_robustness_contrast;
          quick "clean run silent" test_clean_run_silent;
          quick "json section iff flagged" test_json_gating;
          quick "unflagged identity golden" test_unflagged_identity;
        ] );
    ]
