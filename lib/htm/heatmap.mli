(** Per-cache-line contention heatmap.

    The HTM layer records, per modelled cache line: how many memory
    accesses touched it, how many conflict dooms it caused (requester-wins
    resolution choosing a victim on that line), and how many associativity
    capacity aborts the line triggered.  Pressure-eviction capacity aborts
    doom a whole transaction, not a line, and are not attributed here.

    Each HTM manager owns one, and it is the layer's only per-line store:
    the conflict-doom counts are recorded even when the heatmap is
    disabled, and feed the text report's doomed-by table and the
    abort-forensics views.  Touches and capacity aborts are recorded only
    when enabled; a disabled heatmap costs one branch per access.
    Recording performs no RNG draws and no cycle charges, so it never
    perturbs a run. *)

type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool

val touch : t -> int -> unit
val conflict : t -> int -> unit
(** Counted whether or not the heatmap is enabled. *)

val capacity : t -> int -> unit

type row = { line : int; touches : int; conflicts : int; capacity : int }

val snapshot : ?top:int -> t -> row list
(** The [top] (default 16) hottest lines: conflicts descending, then
    touches descending, then line ascending — a deterministic order. *)

val conflict_lines : t -> (int * int) list
(** [(line, conflict dooms)] for every line with at least one, line
    ascending. *)
