(** One entry point per table/figure of the paper's evaluation (§6).

    Every figure is one function [opts -> Experiment.result list] built on
    {!grid}: it runs its grid of configurations (concurrently when
    [jobs > 1], on a {!Pool} of domains), then reports from the ordered
    results — so the printed tables/CSV and the returned results are
    byte-identical for every [jobs] value.

    [stacktrack_bench figures] runs figures by name through {!table}. *)

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

type opts = {
  verbose : bool;  (** Print each run's one-line summary. *)
  jobs : int;
      (** Pool size: [1] runs in the calling domain, [0] means
          [Domain.recommended_domain_count ()]. *)
  profile : bool;
  lifecycle : bool;
  forensics : bool;
  speed : speed;
}
(** The options every figure takes.  [profile], [lifecycle] and
    [forensics] switch the matching {!Experiment.config} observer on for
    every run of the figure; they are schedule-invisible, so the printed
    figure only gains the notes that read them. *)

val grid :
  opts ->
  rows:'x list ->
  cols:'y list ->
  ('x -> 'y -> Experiment.config) ->
  ('x * Experiment.result list) list
(** [grid o ~rows ~cols cfg] runs [cfg x y] for every row [x] and column
    [y] on a pool of [o.jobs] domains, with [o]'s observers on.  It prints
    each run's summary line when [o.verbose], asserts zero shadow-checker
    violations per run, and returns the results grouped by row, in column
    order. *)

(** {2 Figure names} *)

val table : (string * (opts -> Experiment.result list)) list
(** Every figure name the CLI accepts, with its runner, in run order.
    ["ablations"] runs the contention, scan and predictor ablations.  A
    runner prints its report and returns every result it ran, in run
    order. *)

val names : string list
(** The names of {!table}, in order. *)

val select :
  string list ->
  ((string * (opts -> Experiment.result list)) list, string list) result
(** The entries of {!table} named in the list, in table order; ["all"]
    selects every one.  [Error unknown] lists the names that are neither a
    figure nor ["all"]. *)
