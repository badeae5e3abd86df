open St_sim
open St_mem
open St_htm

module type HOOKS = sig
  type t
  type thread

  val name : string
  val runtime : t -> Guard.runtime
  val stats : t -> Guard.stats
  val create_thread : t -> tid:int -> thread
  val on_begin : thread -> op_id:int -> unit
  val on_end : thread -> unit

  val protected_read : thread -> slot:int -> Word.addr -> Word.value
  val release : thread -> slot:int -> unit
  val protect_value : thread -> slot:int -> Word.value -> unit
  val alloc : thread -> size:int -> Word.addr
  val retire : thread -> Word.addr -> unit
  val quiesce : thread -> unit

  val write : thread -> Word.addr -> Word.value -> unit
  val cas : thread -> Word.addr -> expect:Word.value -> Word.value -> bool
end

(* Unsealed implementation shared by [Make] and [Make_recoverable]; the
   sealed functors below pick an operation-wrapper discipline on top. *)
module Impl (H : HOOKS) = struct
  type t = H.t

  type thread = {
    h : H.thread;
    rt : Guard.runtime;
    locals : int array;
    rng : Rng.t;
  }

  type env = thread

  let name = H.name

  let create_thread t ~tid =
    let rt = H.runtime t in
    {
      h = H.create_thread t ~tid;
      rt;
      locals = Array.make St_machine.Ctx.max_frame 0;
      rng = Sched.thread_rng rt.Guard.sched tid;
    }

  (* No cleanup on exceptions: the only exception that crosses an operation
     is thread destruction (Sched.Thread_crashed), and a crashed thread must
     NOT look quiescent — its epoch timestamp stays odd and its hazards stay
     published, which is precisely the failure mode the paper analyses. *)
  let run_op th ~op_id f =
    H.on_begin th.h ~op_id;
    Array.fill th.locals 0 (Array.length th.locals) 0;
    let r = f th in
    H.on_end th.h;
    r

  let read env addr = Tsx.nt_read env.rt.Guard.tsx addr
  let write env addr v = H.write env.h addr v
  let cas env addr ~expect v = H.cas env.h addr ~expect v
  let protected_read env ~slot addr = H.protected_read env.h ~slot addr
  let release env ~slot = H.release env.h ~slot
  let protect_value env ~slot v = H.protect_value env.h ~slot v
  let local_set env i v = env.locals.(i) <- v
  let local_get env i = env.locals.(i)

  let block env =
    Sched.consume env.rt.Guard.sched (Sched.costs env.rt.Guard.sched).local_op

  let rand env bound = Rng.int env.rng bound
  let alloc env ~size = H.alloc env.h ~size
  let retire env addr = H.retire env.h addr
  let quiesce th = H.quiesce th.h
  let stats = H.stats
end

module Make (H : HOOKS) : Guard.S with type t = H.t = Impl (H)

module Make_recoverable (H : HOOKS) : Guard.S with type t = H.t = struct
  module I = Impl (H)
  include I

  (* Like [Impl.run_op], but catches the simulated-signal unwind
     ([Sched.Signal_interrupt]) delivered by a neutralizing reclaimer and
     restarts the operation from scratch: re-announce ([on_begin]), clear
     the frame locals, re-run the body.  The interrupted attempt never
     resumes, so references it held are dead — which is what makes the
     neutralizer's quiescent-announcement of this thread sound.  A scheme
     using this wrapper must only deliver signals to threads that are
     announced as inside an operation (between [on_begin]'s announcement
     and [on_end]'s quiescence), so a completed body is never re-run. *)
  let rec run_op th ~op_id f =
    try I.run_op th ~op_id f
    with Sched.Signal_interrupt -> run_op th ~op_id f
end
