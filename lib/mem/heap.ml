module Vec = St_sim.Vec

(* Backing store layout: two directories of fixed-size power-of-two chunks
   allocated on demand.  Chunks are appended as [brk] advances, so coverage
   is always the contiguous prefix [0, chunks * chunk_words) and growth is
   O(1) per chunk with no copying of existing data.  The directories
   themselves double, but they hold one pointer per 2^16 words so that copy
   is negligible.

   - [cells] interleaves each address's payload word (at [2 * off], [off =
     addr land chunk_mask]) with the base of the live object owning it (at
     [2 * off + 1], 0 when dead), so a checked access loads one chunk and
     touches two adjacent words.
   - [meta] holds [size; 1 + birth] per aligned base slot [off lsr ashift].
     Bases are multiples of the effective alignment [2^ashift], so the
     object metadata costs [2 / 2^ashift] words per address.  A size
     stays after its object is freed, which is what tells a double free
     from a bad free; the +1 on the birth keeps 0 free as the "no live
     object" sentinel of [birth_ix]. *)
let chunk_shift = 16
let chunk_words = 1 lsl chunk_shift
let chunk_mask = chunk_words - 1

type t = {
  shadow : Shadow.t;
  mutable cells : int array array; (* [word; owner] per address, chunked *)
  mutable meta : int array array; (* [size; 1 + birth] per base slot *)
  mutable chunks : int; (* chunks allocated in both directories, from 0 *)
  mutable next_birth : int;
  mutable brk : int; (* next never-used address *)
  mutable free_by_class : int Vec.t array;
      (* size-class -> LIFO stack of bases.  Sizes are already rounded to
         multiples of the effective alignment, so class = size lsr ashift
         is an exact 1:1 map and lookup is an array index, not a hash +
         cons. *)
  (* Freed-block quarantine as a preallocated ring (addr, size pairs in two
     flat arrays): the per-free Queue.push allocated a cons + tuple per
     call, which is exactly the kind of minor-heap traffic the reclamation
     hot path must not generate. Capacity is quarantine_max + 1 because a
     push momentarily holds one block more than the retention bound. *)
  q_addr : int array;
  q_size : int array;
  mutable q_head : int; (* index of oldest entry *)
  mutable q_len : int;
  quarantine_max : int;
  ashift : int; (* log2 of the effective alignment, max 2 align *)
  mutable allocs : int;
  mutable frees : int;
  mutable live : int;
  mutable peak : int;
  mutable words_live : int;
  mutable lifecycle : Lifecycle.t;
}

let poison = 0x0DEAD

let add_chunk t =
  let n = t.chunks in
  if n >= Array.length t.cells then begin
    let grow d =
      let d' = Array.make (2 * n) [||] in
      Array.blit d 0 d' 0 n;
      d'
    in
    t.cells <- grow t.cells;
    t.meta <- grow t.meta
  end;
  t.cells.(n) <- Array.make (2 * chunk_words) 0;
  t.meta.(n) <- Array.make (2 * (chunk_words lsr t.ashift)) 0;
  t.chunks <- n + 1

let create ?(initial_words = 1 lsl 16) ?(quarantine = 128) ?(align = 4)
    ~shadow () =
  if align < 1 || align > chunk_words || align land (align - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Heap.create: align = %d, must be a power of two <= %d"
         align chunk_words);
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  (* [initial_words] pre-sizes the directories (pointer tables) only;
     actual chunks appear as the address space is touched. *)
  let hint = max initial_words (Word.heap_base * 2) in
  let dir_cap = max 4 ((hint + chunk_words - 1) / chunk_words) in
  let t =
    {
      shadow;
      ashift = log2 (max 2 align);
      cells = Array.make dir_cap [||];
      meta = Array.make dir_cap [||];
      chunks = 0;
      next_birth = 0;
      brk = Word.heap_base;
      free_by_class = Array.init 8 (fun _ -> Vec.create ());
      q_addr = Array.make (quarantine + 1) 0;
      q_size = Array.make (quarantine + 1) 0;
      q_head = 0;
      q_len = 0;
      quarantine_max = quarantine;
      allocs = 0;
      frees = 0;
      live = 0;
      peak = 0;
      words_live = 0;
      lifecycle = Lifecycle.disabled;
    }
  in
  (* Chunk 0 covers [0, heap_base] so the tables back [brk] from the
     start. *)
  add_chunk t;
  t

let shadow t = t.shadow
let set_lifecycle t lc = t.lifecycle <- lc
let lifecycle t = t.lifecycle
let coverage t = t.chunks lsl chunk_shift

let ensure_capacity t needed =
  while needed > coverage t do
    add_chunk t
  done

(* Unchecked chunked loads/stores: valid only below [coverage t].  Callers
   guard with [in_heap] (addr < brk <= coverage) or an explicit coverage
   check, mirroring the bounds-check elision the dense arrays used.  [cell]
   is the chunk holding [addr]'s payload at [ix addr] and its owner right
   after; [meta_get]/[meta_set] take an aligned base and a field (0 = size,
   1 = 1 + birth). *)
let[@inline] cell t addr = Array.unsafe_get t.cells (addr lsr chunk_shift)
let[@inline] ix addr = 2 * (addr land chunk_mask)
let[@inline] owner t addr = Array.unsafe_get (cell t addr) (ix addr + 1)

let[@inline] meta_ix t base field =
  (2 * ((base land chunk_mask) lsr t.ashift)) + field

let[@inline] meta_get t base field =
  Array.unsafe_get
    (Array.unsafe_get t.meta (base lsr chunk_shift))
    (meta_ix t base field)

let[@inline] meta_set t base field v =
  Array.unsafe_set
    (Array.unsafe_get t.meta (base lsr chunk_shift))
    (meta_ix t base field) v

let in_heap t addr = addr >= Word.heap_base && addr < t.brk

(* Sizes and [brk] are rounded up to the arena chunk granularity
   (cache-line sized by default), like any allocator that wants to avoid
   false sharing between objects handed to different threads.  Bases are
   always at least 2-aligned so the low pointer bit stays free for list
   deletion marks. *)
let[@inline] round_up t n =
  let m = (1 lsl t.ashift) - 1 in
  (n + m) land lnot m

let claim t base size =
  for i = base to base + size - 1 do
    let c = cell t i and j = ix i in
    Array.unsafe_set c j 0;
    Array.unsafe_set c (j + 1) base
  done;
  meta_set t base 0 size;
  meta_set t base 1 (t.next_birth + 1);
  Lifecycle.on_alloc t.lifecycle ~birth:t.next_birth ~words:size;
  t.next_birth <- t.next_birth + 1;
  t.allocs <- t.allocs + 1;
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live;
  t.words_live <- t.words_live + size

let free_list t size =
  let cls = size lsr t.ashift in
  let n = Array.length t.free_by_class in
  if cls >= n then begin
    let cap = ref n in
    while cls >= !cap do
      cap := !cap * 2
    done;
    t.free_by_class <-
      Array.init !cap (fun i ->
          if i < n then t.free_by_class.(i) else Vec.create ())
  end;
  Array.unsafe_get t.free_by_class cls

let alloc t ~tid:_ ~size =
  assert (size >= 1);
  let size = round_up t size in
  let fl = free_list t size in
  let base =
    let n = Vec.length fl in
    if n > 0 then begin
      let base = Vec.get fl (n - 1) in
      Vec.truncate fl (n - 1);
      base
    end
    else begin
      let base = round_up t t.brk in
      ensure_capacity t (base + size + 1);
      t.brk <- base + size;
      base
    end
  in
  claim t base size;
  base

let is_allocated t addr = in_heap t addr && owner t addr = addr

let size_of t addr =
  if is_allocated t addr then Some (meta_get t addr 0) else None

let owner_of t v = if in_heap t v then owner t v else 0

let base_of t v =
  let b = owner_of t v in
  if b <> 0 then Some b else None

let birth_ix t addr = if is_allocated t addr then meta_get t addr 1 else 0

let birth_of t addr =
  let b = birth_ix t addr in
  if b <> 0 then Some (b - 1) else None

let free t ~tid addr =
  if not (in_heap t addr) then Shadow.record t.shadow Bad_free ~addr ~tid
  else if owner t addr <> addr then
    (* Either an interior pointer or an already-freed base.  Only an
       aligned address has a base slot of its own. *)
    Shadow.record t.shadow
      (if
         owner t addr = 0
         && round_up t addr = addr
         && meta_get t addr 0 > 0
       then Double_free
       else Bad_free)
      ~addr ~tid
  else begin
    let size = meta_get t addr 0 in
    Lifecycle.on_free t.lifecycle ~birth:(meta_get t addr 1 - 1) ~words:size;
    for i = addr to addr + size - 1 do
      let c = cell t i and j = ix i in
      Array.unsafe_set c j poison;
      Array.unsafe_set c (j + 1) 0
    done;
    t.frees <- t.frees + 1;
    t.live <- t.live - 1;
    t.words_live <- t.words_live - size;
    (* Freed blocks sit in a bounded quarantine before becoming allocatable
       again, so that a use-after-free by a stale reader hits a dead word
       (and is reported) instead of silently aliasing a fresh allocation —
       same idea as ASan's quarantine. *)
    let cap = Array.length t.q_addr in
    let slot = t.q_head + t.q_len in
    let slot = if slot >= cap then slot - cap else slot in
    t.q_addr.(slot) <- addr;
    t.q_size.(slot) <- size;
    t.q_len <- t.q_len + 1;
    if t.q_len > t.quarantine_max then begin
      let old_addr = t.q_addr.(t.q_head) in
      let old_size = t.q_size.(t.q_head) in
      t.q_head <- (if t.q_head + 1 = cap then 0 else t.q_head + 1);
      t.q_len <- t.q_len - 1;
      Vec.push (free_list t old_size) old_addr
    end
  end

let peek t addr =
  if addr >= 0 && addr < coverage t then
    Array.unsafe_get (cell t addr) (ix addr)
  else poison

(* The success branches skip the bounds checks: [in_heap] established
   [heap_base <= addr < brk], and the chunks cover [brk] ([ensure_capacity]
   appends them before [brk] moves).  These two functions sit under every
   simulated memory access; each loads its chunk once (the compiler shares
   the [cell] load) and finds the owner beside the payload. *)
let read t ~tid addr =
  if in_heap t addr && owner t addr <> 0 then
    Array.unsafe_get (cell t addr) (ix addr)
  else begin
    Shadow.record t.shadow Read_after_free ~addr ~tid;
    peek t addr
  end

let write t ~tid addr v =
  if in_heap t addr && owner t addr <> 0 then
    Array.unsafe_set (cell t addr) (ix addr) v
  else begin
    Shadow.record t.shadow Write_after_free ~addr ~tid;
    if addr >= 0 && addr < coverage t then
      Array.unsafe_set (cell t addr) (ix addr) v
  end

let allocs t = t.allocs
let frees t = t.frees
let quarantined t = t.q_len
let live_objects t = t.live
let peak_live t = t.peak
let words_in_use t = t.words_live
let touched_chunks t = t.chunks

let resident_words t =
  (2 * coverage t) + (2 * (coverage t lsr t.ashift))
