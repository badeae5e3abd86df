(** One entry point per table/figure of the paper's evaluation (§6).

    Every figure runs in three phases: enumerate a pure list of
    configurations, execute them (concurrently when [jobs > 1], on a
    {!Pool} of domains), then report from the ordered results — so the
    printed tables/CSV and any JSON export are byte-identical for every
    [jobs] value.  [jobs] defaults to [1] (in-domain, no parallelism);
    [0] means [Domain.recommended_domain_count ()].

    [stacktrack_bench figures] runs figures by name through {!table}; the
    figure functions exported below are the ones tests and external
    drivers call directly. *)

type speed = Quick | Full

val thread_points : speed -> int list
(** X axis of the thread sweeps (7 points quick, 1..16 full). *)

val duration : speed -> int
(** Virtual cycles per thread (400K quick, 1.5M full). *)

(** Base configurations of the four workload families, scaled as described
    in EXPERIMENTS.md.  Exposed for external drivers (hosttime sweeps). *)

val list_config : speed -> Experiment.config
val skiplist_config : speed -> Experiment.config
val queue_config : speed -> Experiment.config
val hash_config : speed -> Experiment.config

val set_schemes : Experiment.scheme_kind list
(** Original, Hazards, Epoch, StackTrack — the scheme columns shared by the
    set-structure figures. *)

val throughput_sweep :
  ?verbose:bool ->
  ?jobs:int ->
  ?profile:bool ->
  ?lifecycle:bool ->
  speed:speed ->
  base:Experiment.config ->
  schemes:Experiment.scheme_kind list ->
  unit ->
  (int * Experiment.result list) list
(** Threads x schemes sweep; rows keyed by thread count, results in scheme
    order.  Asserts zero shadow-checker violations per point.  [profile]
    turns on the cycle-attribution profiler and contention heatmap for
    every point; [lifecycle] the memory-lifecycle ledger + watchdog (both
    off by default; see {!Experiment.config}).  The fig1/fig2 wrappers
    append one reclamation-health note per scheme when [lifecycle] is
    set. *)

val fig4_splits :
  ?verbose:bool -> ?jobs:int -> ?forensics:bool -> speed:speed -> unit ->
  (int * float list) list
(** With [forensics], each sweep point runs with the abort-forensics
    ledger on and appends a per-thread-count note (segments tracked,
    predictor limit changes, final limit range) under the table. *)

val stm_vs_htm :
  ?verbose:bool -> ?jobs:int -> speed:speed -> unit -> (int * float list) list

val memory_profile :
  ?verbose:bool -> ?jobs:int -> ?profile:bool -> ?lifecycle:bool ->
  speed:speed -> unit -> (Experiment.scheme_kind * Experiment.result) list
(** Thread 0 crashes at 25% of the run; prints live objects over time
    from each scheme's metrics series ([metrics_interval] = duration / 12).
    Epoch climbs from the crash on, Hazards and StackTrack stay flat. *)

(** {2 Figure names} *)

type opts = {
  verbose : bool;
  jobs : int;
  profile : bool;  (** Passed to the fig1/fig2 sweeps and the memory figure. *)
  lifecycle : bool;  (** Likewise. *)
  forensics : bool;  (** Passed to fig4-splits. *)
  speed : speed;
}
(** The options the CLI passes to every figure it runs; each figure reads the
    ones its function takes. *)

val table : (string * (opts -> Experiment.result list)) list
(** Every figure name the CLI accepts, with its runner, in run order.
    ["ablations"] runs the predictor, scan and contention ablations.  A
    runner prints its report and returns the full results it exports
    (the fig1/fig2 and scale sweeps, the robustness and memory figures;
    [[]] for figures that report only derived series). *)

val names : string list
(** The names of {!table}, in order. *)

val select :
  string list ->
  ((string * (opts -> Experiment.result list)) list, string list) result
(** The entries of {!table} named in the list, in table order; ["all"]
    selects every one.  [Error unknown] lists the names that are neither a
    figure nor ["all"]. *)
