(** Workload generation for the benchmarks.

    The paper's set benchmarks draw uniform keys from a fixed range and
    perform a configurable percentage of mutations (half inserts, half
    deletes); queue benchmarks mix enqueue/dequeue pairs with read-only
    peeks.  A zipfian generator is provided for skewed-contention ablations
    beyond the paper. *)

open St_sim

type set_op = Contains of int | Insert of int | Delete of int
type queue_op = Enqueue of int | Dequeue | Peek

type key_dist = Uniform | Zipf of float

type set_profile = {
  key_range : int;
  mutation_pct : int;  (** Percentage of insert+delete operations. *)
  dist : key_dist;
}

let set_profile ?(dist = Uniform) ~key_range ~mutation_pct () =
  assert (key_range > 0 && mutation_pct >= 0 && mutation_pct <= 100);
  { key_range; mutation_pct; dist }

(* Zipf by inverse-CDF over a precomputed table (exact, O(log n) draw). *)
type zipf_table = { cum : float array }

let zipf_table ~n ~theta =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.of_int (i + 1) ** theta);
    cum.(i) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun i v -> cum.(i) <- v /. total) cum;
  { cum }

let zipf_draw table rng =
  let u = Rng.float rng in
  let cum = table.cum in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cum.(mid) < u then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 (Array.length cum - 1)

type set_gen = { profile : set_profile; rng : Rng.t; zipf : zipf_table option }

let set_gen profile rng =
  let zipf =
    match profile.dist with
    | Uniform -> None
    | Zipf theta -> Some (zipf_table ~n:profile.key_range ~theta)
  in
  { profile; rng; zipf }

let draw_key g =
  match g.zipf with
  | None -> Rng.int g.rng g.profile.key_range
  | Some table -> zipf_draw table g.rng

let next_set_op g =
  let key = draw_key g in
  if Rng.pct g.rng g.profile.mutation_pct then
    if Rng.bool g.rng then Insert key else Delete key
  else Contains key

(* Queue profile: [mutation_pct] of operations are enqueue/dequeue
   (alternating to keep the queue near its initial size); the rest peek. *)
type queue_gen = {
  q_mutation_pct : int;
  q_value_range : int;
  q_rng : Rng.t;
  mutable q_toggle : bool;
}

let queue_gen ~mutation_pct ~value_range rng =
  { q_mutation_pct = mutation_pct; q_value_range = value_range; q_rng = rng; q_toggle = false }

let next_queue_op g =
  if Rng.pct g.q_rng g.q_mutation_pct then begin
    g.q_toggle <- not g.q_toggle;
    if g.q_toggle then Enqueue (Rng.int g.q_rng g.q_value_range) else Dequeue
  end
  else Peek

(* Initial contents: [size] distinct keys drawn uniformly from the range
   (deterministic in the rng).  Drawn keys are marked in a bitmap over the
   range: at 10^6 keys a hash table of them cost most of the draw. *)
let initial_keys ~rng ~key_range ~size =
  assert (size <= key_range);
  let seen = Bytes.make ((key_range + 7) / 8) '\000' in
  let rec draw acc n =
    if n = 0 then acc
    else
      let k = Rng.int rng key_range in
      let byte = Bytes.get_uint8 seen (k lsr 3) and bit = 1 lsl (k land 7) in
      if byte land bit <> 0 then draw acc n
      else begin
        Bytes.set_uint8 seen (k lsr 3) (byte lor bit);
        draw (k :: acc) (n - 1)
      end
  in
  draw [] size
