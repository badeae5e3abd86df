(** The paper's "Original" baseline: no memory reclamation at all.

    Retired nodes leak.  This is the upper bound on data-structure
    performance — every scheme's overhead is measured against it.

    Hook contract: [retire] calls [Guard.note_retire] and nothing else;
    [Guard.note_free] is never called, so the lifecycle ledger reports a
    monotonically growing limbo backlog and the stalled-reclamation
    watchdog flags one permanently ongoing incident — the correct reading
    of a leak-everything baseline. *)

include Guard.S

val create : Guard.runtime -> t

(** The body shared with {!Immediate}: no per-thread state, plain
    non-transactional accesses; only [retire] differs. *)
module Trivial (R : sig
  val name : string
  val retire : Guard.runtime -> Guard.stats -> St_mem.Word.addr -> unit
end) : sig
  include Guard.S

  val create : Guard.runtime -> t
end
