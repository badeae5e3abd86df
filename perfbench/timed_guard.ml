(* A [Guard.S] that forwards every call to the scheme [G] and brackets
   with {!Spans} events the calls that cross the dslib -> Guard boundary,
   and the operation body the scheme runs (a span of the dslib operation).
   The types are [G]'s own, so a structure built over this wrapper runs
   exactly the code it runs over [G]: the wrapper reads the host clock and
   nothing else, and the simulated result is unchanged (the benchmark
   checks it against [Experiment.run] on every run).

   [block] is not bracketed: no dslib structure calls it (StackTrack's
   split checkpoints run inside its [read]/[write]).  The other calls are
   written out rather than passed to a shared helper, which would allocate
   a closure per simulated access.

   Spans close on every exception crossing the boundary: [Tsx.Abort] when a
   StackTrack segment replays, [Sched.Signal_interrupt] under DEBRA+, and
   [Sched.Thread_crashed].

   [delayed] schemes busy-wait [Spans.delay_ns] inside each read span; the
   self-test injects that delay into every scheme but StackTrack. *)

open St_reclaim

module type SPANS = sig
  val spans : Spans.t
end

module Make (G : Guard.S) (X : SPANS) :
  Guard.S with type t = G.t and type thread = G.thread and type env = G.env =
struct
  include G

  let s = X.spans
  let delayed = s.Spans.delay_ns > 0 && G.name <> Stacktrack.Engine.name

  let body f env =
    Spans.enter_body s;
    match f env with
    | v ->
        Spans.exit s;
        v
    | exception e ->
        Spans.exit s;
        raise e

  let run_op th ~op_id f =
    Spans.enter s Spans.Run_op;
    match G.run_op th ~op_id (body f) with
    | v ->
        Spans.exit s;
        v
    | exception e ->
        Spans.exit s;
        raise e

  let read env a =
    Spans.enter s Spans.Read;
    if delayed then Spans.spin s.Spans.delay_ns;
    match G.read env a with
    | v ->
        Spans.exit s;
        v
    | exception e ->
        Spans.exit s;
        raise e

  let protected_read env ~slot a =
    Spans.enter s Spans.Read;
    if delayed then Spans.spin s.Spans.delay_ns;
    match G.protected_read env ~slot a with
    | v ->
        Spans.exit s;
        v
    | exception e ->
        Spans.exit s;
        raise e

  let write env a v =
    Spans.enter s Spans.Write_cas;
    match G.write env a v with
    | () -> Spans.exit s
    | exception e ->
        Spans.exit s;
        raise e

  let cas env a ~expect v =
    Spans.enter s Spans.Write_cas;
    match G.cas env a ~expect v with
    | ok ->
        Spans.exit s;
        ok
    | exception e ->
        Spans.exit s;
        raise e

  let alloc env ~size =
    Spans.enter s Spans.Alloc;
    match G.alloc env ~size with
    | a ->
        Spans.exit s;
        a
    | exception e ->
        Spans.exit s;
        raise e

  let retire env a =
    Spans.enter s Spans.Retire;
    match G.retire env a with
    | () -> Spans.exit s
    | exception e ->
        Spans.exit s;
        raise e
end
