(** Lock-free hash table with Harris-list buckets (the paper's low-contention
    benchmark: "a lock-free hash-table based on the Harris lock-free list").

    The table is a fixed array of bucket sentinel pointers (one immutable
    word per bucket, set up before concurrency starts), each heading an
    independent sorted list.  All list logic is reused from
    {!Harris_list}. *)

open St_mem
open St_reclaim

type t = { buckets : Word.addr; n_buckets : int }

let bucket_of t key = key mod t.n_buckets

let create_raw heap ~n_buckets =
  let buckets = Heap.alloc heap ~tid:0 ~size:n_buckets in
  for b = 0 to n_buckets - 1 do
    let l = Harris_list.create_raw heap in
    Heap.write heap ~tid:0 (buckets + b) l.Harris_list.head
  done;
  { buckets; n_buckets }

let bucket_head_raw heap t b = Heap.peek heap (t.buckets + b)

(* Build every bucket of an empty table at once, with the result the
   insert-by-insert build gives: nodes allocated in key-list order (so
   addresses and births do not depend on the layout work), each bucket a
   sorted chain, a repeated key dropped at its later occurrences, and one
   [note_link] per stored node pointer.  Four sequential passes over flat
   arrays do the work, because at 10^6 keys a walk of a random bucket
   chain per key is dominated by cache and TLB misses:
   1. a counting sort groups list positions by bucket, in list order;
   2. an insertion sort orders each (short) bucket by key — stable, so the
      first occurrence of a repeated key leads its run and the rest are
      dropped;
   3. the survivors are allocated in list order;
   4. each bucket's chain is linked in one pass. *)
let populate_raw heap t ~keys ~note_link =
  let nb = t.n_buckets in
  let n = List.length keys in
  (* [first.(b)] .. [first.(b + 1) - 1]: bucket [b]'s slots in [slot_key] /
     [slot_pos] (key and list position). *)
  let first = Array.make (nb + 1) 0 in
  List.iter
    (fun k ->
      let b = bucket_of t k + 1 in
      first.(b) <- first.(b) + 1)
    keys;
  for b = 1 to nb do
    first.(b) <- first.(b) + first.(b - 1)
  done;
  let fill = Array.sub first 0 nb in
  let slot_key = Array.make n 0 and slot_pos = Array.make n 0 in
  List.iteri
    (fun i k ->
      let b = bucket_of t k in
      let s = fill.(b) in
      slot_key.(s) <- k;
      slot_pos.(s) <- i;
      fill.(b) <- s + 1)
    keys;
  (* [node.(i)]: the address allocated for list position [i] (0 until
     then), or -1 when position [i] repeats an earlier key. *)
  let node = Array.make n 0 in
  for b = 0 to nb - 1 do
    let lo = first.(b) and hi = first.(b + 1) in
    for s = lo + 1 to hi - 1 do
      let k = slot_key.(s) and p = slot_pos.(s) in
      let j = ref (s - 1) in
      while !j >= lo && slot_key.(!j) > k do
        slot_key.(!j + 1) <- slot_key.(!j);
        slot_pos.(!j + 1) <- slot_pos.(!j);
        decr j
      done;
      slot_key.(!j + 1) <- k;
      slot_pos.(!j + 1) <- p
    done;
    for s = lo + 1 to hi - 1 do
      if slot_key.(s) = slot_key.(s - 1) then node.(slot_pos.(s)) <- -1
    done
  done;
  List.iteri
    (fun i k ->
      if node.(i) = 0 then begin
        let addr = Heap.alloc heap ~tid:0 ~size:Harris_list.node_size in
        Heap.write heap ~tid:0 (addr + Harris_list.key_off) k;
        node.(i) <- addr;
        note_link addr
      end)
    keys;
  (* The chain's last [next] stays null: the head starts empty and
     [Heap.alloc] zeroes a node's words. *)
  for b = 0 to nb - 1 do
    let prev = ref (bucket_head_raw heap t b) in
    assert (Heap.peek heap (!prev + Harris_list.next_off) = Word.null);
    for s = first.(b) to first.(b + 1) - 1 do
      let addr = node.(slot_pos.(s)) in
      if addr > 0 then begin
        Heap.write heap ~tid:0 (!prev + Harris_list.next_off) addr;
        prev := addr
      end
    done
  done

let to_list_raw heap t =
  let acc = ref [] in
  for b = t.n_buckets - 1 downto 0 do
    let head = bucket_head_raw heap t b in
    acc :=
      Harris_list.to_list_raw heap { Harris_list.head } @ !acc
  done;
  List.sort compare !acc

(* The same unmarked walk as [to_list_raw], counting instead of listing. *)
let length_raw heap t =
  let n = ref 0 in
  for b = 0 to t.n_buckets - 1 do
    let head = bucket_head_raw heap t b in
    let node = ref (Word.unmark (Heap.peek heap (head + Harris_list.next_off))) in
    while !node <> Word.null do
      incr n;
      node := Word.unmark (Heap.peek heap (!node + Harris_list.next_off))
    done
  done;
  !n

module Make (G : Guard.S) = struct
  module L = Harris_list.Make (G)

  type nonrec t = t

  (* The bucket array is immutable after setup; reading it is a plain
     (uninstrumented-by-schemes) shared read. *)
  let bucket env t key =
    let b = bucket_of t key in
    { Harris_list.head = G.read env (t.buckets + b) }

  let op_contains = 31
  let op_insert = 32
  let op_delete = 33

  let contains t th key =
    G.run_op th ~op_id:op_contains (fun env ->
        L.contains_in env (bucket env t key) key)

  let insert t th key =
    G.run_op th ~op_id:op_insert (fun env ->
        L.insert_in env (bucket env t key) key)

  let delete t th key =
    G.run_op th ~op_id:op_delete (fun env ->
        L.delete_in env (bucket env t key) key)
end
