(* Host-speed calibration.  The benchmark's host measures the same binary
   up to 1.6x slower for tens of seconds at a time (a shared machine: the
   slowdown shows while the process is on-CPU, so it is not descheduling).
   A fixed loop of the work the simulator does -- effect-handler fiber
   switches, small allocations, random reads and writes over a 2 MB array
   -- slows down with it, so host times are reported as multiples of this
   loop's time measured around them, rescaled by [reference_s].

   The loop is the benchmark's own code and uses nothing from the
   repository's libraries, so a change to the simulator moves the rescaled
   times exactly as it moves the raw ones. *)

type _ Effect.t += Yield : unit Effect.t

let size = 1 lsl 18
let fibers = 4
let steps = 200_000

(* Wall time of the loop on this machine when it is not slowed down. *)
let reference_s = 0.05

(* Allocated once, so that calibrating adds a fixed 2 MB to the peak heap
   and no garbage beyond the loop's own small blocks. *)
let arr = Array.make size 0

let loop () =
  let st = ref 12345 and acc = ref 0 in
  let fiber () =
    for i = 1 to steps do
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = !st land (size - 1) in
      arr.(j) <- arr.(j) + i;
      acc := !acc + arr.((j * 7) land (size - 1));
      if i land 7 = 0 then ignore (Sys.opaque_identity (ref i));
      if i land 3 = 0 then Effect.perform Yield
    done
  in
  let runnable = Queue.create () in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.push (fun () -> Effect.Deep.continue k ()) runnable)
          | _ -> None);
    }
  in
  for _ = 1 to fibers do
    Queue.push (fun () -> Effect.Deep.match_with fiber () handler) runnable
  done;
  while not (Queue.is_empty runnable) do
    (Queue.pop runnable) ()
  done;
  !acc

let time_s () =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (loop ()));
  Float.of_int (Spans.now_ns () - t0) *. 1e-9

(* [f ()]'s wall time, and that time rescaled by the mean of [samples]
   calibrations just before and [samples] just after it. *)
let measure ~samples f =
  let cal () =
    let t = ref 0. in
    for _ = 1 to samples do
      t := !t +. time_s ()
    done;
    !t
  in
  let c0 = cal () in
  let t0 = Spans.now_ns () in
  let r = f () in
  let wall = Float.of_int (Spans.now_ns () - t0) *. 1e-9 in
  let c1 = cal () in
  (r, wall, wall *. reference_s /. ((c0 +. c1) /. Float.of_int (2 * samples)))

(* Calibration samples per side for a measurement expected to last
   [wall_s]: one, plus one per second up to four, so that a long
   measurement is not rescaled by a single 50 ms sample. *)
let samples_for wall_s = 1 + min 3 (int_of_float wall_s)
