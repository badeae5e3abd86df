(** DEBRA+ (Brown, PODC 2015): the {!Epoch_bags} core with neutralization
    — the recovery path that closes epoch reclamation's stalled-thread
    hole.

    Identical to {!Debra} on the fast path.  The difference is what
    happens when the rotating advance check parks on a peer announced
    inside an operation at an old epoch: instead of waiting forever, after
    [patience] cycles the checking thread {e neutralizes} the peer with a
    simulated POSIX signal ({!Sched.signal}).  The signal handler marks
    the victim quiescent — safe, because the victim's interrupted
    operation unwinds with {!Sched.Signal_interrupt} at its next resume
    and restarts from scratch ({!Simple.Make_recoverable}), so references
    acquired by the interrupted attempt are never used again.  A crashed
    victim never resumes at all, which is equally safe and is precisely
    the robustness story: the epoch advances past the corpse and limbo
    backlog stays bounded where DEBRA's grows without bound.

    Costs: the signaller pays a context-switch charge per neutralization
    (the pthread_kill syscall); the victim pays by re-running its
    operation.  A neutralization that lands between a victim's allocation
    and publication leaks that node (visible in [leaked]) — the price of
    restart semantics, shared with real DEBRA+ unless every operation is
    written against the recovery API. *)

open St_sim
open Epoch_bags

type policy = {
  patience : int;
  neutralized : bool array; (* set by the handler, cleared on recovery *)
  mutable neutralizations : int; (* signals delivered *)
  mutable recoveries : int; (* restarts observed by live victims *)
}

(* Neutralize [peer]: deliver the signal while it is provably announced
   inside an operation.  The announcement re-check, the delivery and the
   handler all run in this scheduler step (no [consume] between), so the
   victim cannot complete its operation in the window.  The syscall cost
   is charged after delivery. *)
let neutralize th peer =
  let sched = th.s.rt.Guard.sched in
  if th.s.announce.(peer) land 1 = 1 then begin
    Sched.signal sched peer;
    Sched.consume sched (Sched.costs sched).context_switch
  end

module Neutralize = struct
  type t = policy

  let name = "debra+"

  (* The handler runs synchronously at delivery, in the signaller's
     context: all it publishes is the quiescent announcement the victim
     itself would have written. *)
  let on_register s ~tid =
    let sched = s.rt.Guard.sched in
    Sched.set_signal_handler sched ~tid (fun () ->
        s.announce.(tid) <- (s.announce.(tid) asr 1) lsl 1;
        s.policy.neutralized.(tid) <- true;
        s.policy.neutralizations <- s.policy.neutralizations + 1;
        let tr = Sched.trace sched in
        if Trace.on tr then
          Trace.instant tr ~time:(Sched.now_or_global sched) ~tid
            Trace.Reclaim "neutralize" Trace.no_detail)

  (* We were neutralized and unwound: this is the recovery path. *)
  let on_begin th =
    let p = th.s.policy in
    if p.neutralized.(th.tid) then begin
      p.neutralized.(th.tid) <- false;
      p.recoveries <- p.recoveries + 1
    end

  (* A peer that stays parked below the current epoch for [patience]
     cycles gets neutralized instead of stalling the epoch forever. *)
  let stalled th ~peer =
    let now = Sched.now th.s.rt.Guard.sched in
    if th.blocked_on <> peer then begin
      th.blocked_on <- peer;
      th.blocked_since <- now
    end
    else if now - th.blocked_since > th.s.policy.patience then begin
      neutralize th peer;
      th.blocked_on <- -1
    end

  (* A peer stuck inside an operation does not block the drain: it is
     neutralized on sight (always sound — at worst it restarts an
     operation). *)
  let blocks_drain th ~peer =
    neutralize th peer;
    false
end

include Simple.Make_recoverable (Epoch_bags.Hooks (Neutralize))

let neutralizations s = s.policy.neutralizations
let recoveries s = s.policy.recoveries

let create ?(patience = 100_000) rt =
  Epoch_bags.create rt
    {
      patience;
      neutralized = Array.make Topology.max_threads false;
      neutralizations = 0;
      recoveries = 0;
    }
