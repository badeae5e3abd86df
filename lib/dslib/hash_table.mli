(** Lock-free hash table with Harris-list buckets — the paper's
    low-contention benchmark ("a lock-free hash-table based on the Harris
    lock-free list").

    A fixed array of per-bucket sentinel pointers (immutable after setup)
    heads independent sorted lists; all list logic comes from
    {!Harris_list}. *)

type t = { buckets : St_mem.Word.addr; n_buckets : int }

val bucket_of : t -> int -> int

val create_raw : St_mem.Heap.t -> n_buckets:int -> t

val populate_raw :
  St_mem.Heap.t -> t -> keys:int list -> note_link:(St_mem.Word.addr -> unit) -> unit
(** Insert [keys] (a repeated key counts once) into an empty table with raw
    heap writes, for benchmark pre-population.  Nodes are allocated in
    [keys] order; [note_link] reports every stored node pointer once, so
    link-counting schemes can prime their counts. *)

val to_list_raw : St_mem.Heap.t -> t -> int list
(** All keys, sorted.  Quiescent use only. *)

val length_raw : St_mem.Heap.t -> t -> int
(** [List.length (to_list_raw heap t)], allocating nothing. *)

module Make (G : St_reclaim.Guard.S) : sig
  type nonrec t = t

  val contains : t -> G.thread -> int -> bool
  val insert : t -> G.thread -> int -> bool
  val delete : t -> G.thread -> int -> bool
end
