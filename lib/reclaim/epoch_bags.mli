(** The epoch-bag core shared by DEBRA and DEBRA+ (Brown, PODC 2015).

    Each thread announces "inside an operation at epoch e" on operation
    begin and "quiescent" on operation end.  Retired nodes go into one of
    three per-thread limbo bags indexed by epoch.  Advancing the global
    epoch is amortized: each operation checks {e one} peer's announcement
    (a rotating index), and a thread that has seen every peer quiescent or
    at the current epoch bumps it.  A thread observing a new epoch rotates
    its bags, freeing those whose index came around again in one batch.
    Per-operation overhead is O(1): one epoch load, one announcement
    store, one peer-announcement load.

    The two schemes differ only in their {!POLICY} for a peer parked
    inside an operation below the current epoch: DEBRA waits (a crashed
    peer stops the epoch forever), DEBRA+ neutralizes it. *)

open St_sim
open St_mem

type 'p scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  mutable epoch : int;
  announce : int array;  (** Per tid: [(epoch lsl 1) lor in_op]. *)
  registered : Guard.Peers.t;  (** Checked in registration order. *)
  policy : 'p;
}

type 'p thread = {
  s : 'p scheme;
  tid : int;
  bags : Word.addr Vec.t array;  (** Indexed by epoch mod 3. *)
  mutable my_epoch : int;  (** Epoch the bags are synced to. *)
  mutable check_idx : int;  (** Rotating peer index. *)
  mutable blocked_on : int;  (** Peer the check is parked on, or [-1]. *)
  mutable blocked_since : int;
}

module type POLICY = sig
  type t

  val name : string
  val on_register : t scheme -> tid:int -> unit
  val on_begin : t thread -> unit  (** First thing at operation begin. *)

  val stalled : t thread -> peer:int -> unit
  (** The advance check is parked on [peer]; [blocked_on] still holds the
      previously parked peer. *)

  val blocks_drain : t thread -> peer:int -> bool
  (** [quiesce] found [peer] stuck; [true] stops the drain. *)
end

val create : Guard.runtime -> 'p -> 'p scheme

module Hooks (P : POLICY) :
  Simple.HOOKS with type t = P.t scheme and type thread = P.t thread
