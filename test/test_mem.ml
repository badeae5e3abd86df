(* Tests for the simulated heap: allocator behaviour (reuse, alignment,
   growth), shadow-state violation detection, and range queries, plus
   qcheck properties over random alloc/free traces. *)

open St_mem

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let mk ?strict ?(quarantine = 0) ?(align = 1) () =
  let shadow = Shadow.create ?strict () in
  Heap.create ~quarantine ~align ~shadow ()

let test_alloc_basics () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  checkb "in heap range" true (a >= Word.heap_base);
  checkb "allocated" true (Heap.is_allocated h a);
  Alcotest.check Alcotest.(option int) "size" (Some 4) (Heap.size_of h a);
  checki "zeroed" 0 (Heap.read h ~tid:0 a)

let test_alloc_even () =
  let h = mk () in
  for _ = 1 to 50 do
    let a = Heap.alloc h ~tid:0 ~size:3 in
    checkb "even base" true (a land 1 = 0)
  done

let test_read_write () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.write h ~tid:0 a 123;
  Heap.write h ~tid:0 (a + 1) 456;
  checki "word 0" 123 (Heap.read h ~tid:0 a);
  checki "word 1" 456 (Heap.read h ~tid:0 (a + 1));
  checki "no violations" 0 (Shadow.count (Heap.shadow h))

let test_free_and_reuse () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  checkb "not allocated after free" false (Heap.is_allocated h a);
  let b = Heap.alloc h ~tid:0 ~size:4 in
  checki "LIFO reuse of same-size block" a b

let test_no_reuse_across_sizes () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  let b = Heap.alloc h ~tid:0 ~size:5 in
  checkb "different size not reused" true (a <> b)

let test_use_after_free_read () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.write h ~tid:0 a 77;
  Heap.free h ~tid:3 a;
  let v = Heap.read h ~tid:3 a in
  checki "poisoned" Heap.poison v;
  checki "one violation" 1 (Shadow.count (Heap.shadow h));
  checki "uaf read recorded" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Read_after_free);
  match Shadow.first (Heap.shadow h) with
  | [ v ] ->
      checki "tid recorded" 3 v.Shadow.tid;
      checki "addr recorded" a v.Shadow.addr
  | _ -> Alcotest.fail "expected exactly one kept violation"

let test_use_after_free_write () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.free h ~tid:0 a;
  Heap.write h ~tid:1 a 5;
  checki "uaf write recorded" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Write_after_free)

let test_double_free () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.free h ~tid:0 a;
  Heap.free h ~tid:0 a;
  checki "double free recorded" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Double_free)

let test_bad_free () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 (a + 1);
  checki "interior free rejected" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Bad_free);
  checkb "object still live" true (Heap.is_allocated h a)

(* The allocator's free verdicts at both alignments the experiments use
   (align 1 is effectively 2).  Every interior word of an object, aligned
   or not, was never a base: freeing it is a bad free whether the object
   is live or freed, and only a base freed twice is a double free. *)
let test_free_verdicts () =
  List.iter
    (fun align ->
      let h = mk ~align () in
      let count k = Shadow.count_kind (Heap.shadow h) k in
      let a = Heap.alloc h ~tid:0 ~size:8 in
      let b = Heap.alloc h ~tid:0 ~size:8 in
      for off = 1 to 7 do
        Heap.free h ~tid:0 (b + off)
      done;
      checki "interior frees of a live object" 7 (count Shadow.Bad_free);
      checkb "object still live" true (Heap.is_allocated h b);
      Heap.free h ~tid:0 a;
      Heap.free h ~tid:0 a;
      checki "freed base freed again" 1 (count Shadow.Double_free);
      for off = 1 to 7 do
        Heap.free h ~tid:0 (a + off)
      done;
      checki "interior frees of a freed object" 14 (count Shadow.Bad_free);
      checki "no further double free" 1 (count Shadow.Double_free))
    [ 1; 4 ]

(* Free lists are segregated by exact size and never split or coalesce, so
   a freed base is never reused as an interior word of another object: a
   larger object takes fresh address space, and the freed base stays a
   dead base until an object of its own size class reuses it.  The
   aligned interior words of the larger object are not bases. *)
let test_freed_base_not_interior () =
  let h = mk ~align:4 () in
  let count k = Shadow.count_kind (Heap.shadow h) k in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  let big = Heap.alloc h ~tid:0 ~size:16 in
  checkb "larger object does not cover the freed base" true
    (a < big || a >= big + 16);
  checki "freed base has no owner" 0 (Heap.owner_of h a);
  Heap.free h ~tid:0 a;
  checki "freed base freed again" 1 (count Shadow.Double_free);
  for off = 1 to 3 do
    checki "aligned interior word owned by the base" big
      (Heap.owner_of h (big + (4 * off)));
    Heap.free h ~tid:0 (big + (4 * off))
  done;
  checki "aligned interior frees" 3 (count Shadow.Bad_free);
  checki "no further double free" 1 (count Shadow.Double_free);
  checkb "larger object still live" true (Heap.is_allocated h big)

let test_align_power_of_two () =
  List.iter
    (fun align ->
      checkb
        (Printf.sprintf "align %d rejected" align)
        true
        (try
           ignore (mk ~align ());
           false
         with Invalid_argument _ -> true))
    [ 0; 3; 6; 2 * Heap.chunk_words ]

(* A reused base reports the new object's size and birth, not the freed
   one's. *)
let test_reused_base_metadata () =
  let h = mk ~align:4 () in
  let a = Heap.alloc h ~tid:0 ~size:8 in
  let _ = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  Alcotest.check Alcotest.(option int) "freed size" None (Heap.size_of h a);
  checki "freed birth" 0 (Heap.birth_ix h a);
  let a' = Heap.alloc h ~tid:0 ~size:5 in
  checki "base reused" a a';
  Alcotest.check Alcotest.(option int) "new size (rounded)" (Some 8)
    (Heap.size_of h a);
  checki "new birth index" 3 (Heap.birth_ix h a);
  Alcotest.check Alcotest.(option int) "new birth" (Some 2)
    (Heap.birth_of h a);
  checki "no violations" 0 (Shadow.count (Heap.shadow h))

let test_strict_raises () =
  let h = mk ~strict:true () in
  let a = Heap.alloc h ~tid:0 ~size:1 in
  Heap.free h ~tid:0 a;
  checkb "raises in strict mode" true
    (try
       ignore (Heap.read h ~tid:0 a);
       false
     with Shadow.Violation _ -> true)

let test_base_of () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:8 in
  Alcotest.check Alcotest.(option int) "base" (Some a) (Heap.base_of h a);
  Alcotest.check Alcotest.(option int) "interior" (Some a) (Heap.base_of h (a + 5));
  Alcotest.check Alcotest.(option int) "null" None (Heap.base_of h Word.null);
  Alcotest.check Alcotest.(option int) "small int" None (Heap.base_of h 42);
  Heap.free h ~tid:0 a;
  Alcotest.check Alcotest.(option int) "dead object" None (Heap.base_of h (a + 5))

let test_growth () =
  let h = Heap.create ~initial_words:(1 lsl 13) ~shadow:(Shadow.create ()) () in
  (* Allocate far past the initial capacity. *)
  let last = ref 0 in
  for _ = 1 to 10_000 do
    last := Heap.alloc h ~tid:0 ~size:8
  done;
  Heap.write h ~tid:0 !last 9;
  checki "write after growth" 9 (Heap.read h ~tid:0 !last);
  checki "no violations" 0 (Shadow.count (Heap.shadow h))

let test_stats () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  let _b = Heap.alloc h ~tid:0 ~size:2 in
  Heap.free h ~tid:0 a;
  checki "allocs" 2 (Heap.allocs h);
  checki "frees" 1 (Heap.frees h);
  checki "live" 1 (Heap.live_objects h);
  checki "peak" 2 (Heap.peak_live h);
  checki "words in use" 2 (Heap.words_in_use h)

let test_alignment_rounds_sizes () =
  (* With line-sized chunks, two consecutive small objects never share a
     line (false-sharing avoidance). *)
  let h = mk ~align:4 () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  let b = Heap.alloc h ~tid:0 ~size:2 in
  checki "aligned base a" 0 (a mod 4);
  checki "aligned base b" 0 (b mod 4);
  checkb "no shared line" true (b - a >= 4);
  Alcotest.check Alcotest.(option int) "extent covers padding" (Some a)
    (Heap.base_of h (a + 3))

let test_quarantine_delays_reuse () =
  let h = mk ~quarantine:2 () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  (* One block in quarantine: the next alloc must NOT reuse it. *)
  let b = Heap.alloc h ~tid:0 ~size:4 in
  checkb "quarantined block not reused" true (b <> a);
  Heap.free h ~tid:0 b;
  let c = Heap.alloc h ~tid:0 ~size:4 in
  checkb "still quarantined" true (c <> a && c <> b);
  (* Push the quarantine over capacity: a leaves quarantine and is reusable. *)
  Heap.free h ~tid:0 c;
  let d = Heap.alloc h ~tid:0 ~size:4 in
  checki "oldest quarantined block finally reused" a d

let test_marked_pointers_distinct () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  checkb "not marked" false (Word.is_marked a);
  checkb "marked" true (Word.is_marked (Word.mark a));
  checki "unmark round-trip" a (Word.unmark (Word.mark a))

(* Property: after any trace of allocs and frees, live objects never overlap
   and base_of agrees with ownership. *)
let prop_no_overlap =
  QCheck.Test.make ~name:"alloc/free trace keeps objects disjoint" ~count:60
    QCheck.(list (pair (int_bound 1) (int_range 1 9)))
    (fun ops ->
      let h = mk () in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (op, size) ->
          if op = 0 || Hashtbl.length live = 0 then
            let a = Heap.alloc h ~tid:0 ~size in
            Hashtbl.replace live a size
          else begin
            (* Free the smallest live base. *)
            let a =
              Hashtbl.fold (fun k _ acc -> min k acc) live max_int
            in
            Heap.free h ~tid:0 a;
            Hashtbl.remove live a
          end)
        ops;
      (* Every word of every live object maps back to its base, and live
         ranges are disjoint by construction of owner. *)
      Hashtbl.fold
        (fun base size acc ->
          acc
          && Heap.is_allocated h base
          && List.for_all
               (fun i -> Heap.base_of h (base + i) = Some base)
               (List.init size (fun i -> i)))
        live true
      && Shadow.count (Heap.shadow h) = 0)

let prop_reuse_same_size =
  QCheck.Test.make ~name:"freed block of size s is reused for next size-s alloc"
    ~count:100
    QCheck.(int_range 1 16)
    (fun size ->
      let h = mk () in
      let a = Heap.alloc h ~tid:0 ~size in
      Heap.free h ~tid:0 a;
      Heap.alloc h ~tid:0 ~size = a)

(* ------------------------------------------------------------------ *)
(* Chunked heap vs dense oracle                                        *)
(* ------------------------------------------------------------------ *)

(* Reference allocator: the pre-chunking dense-array implementation of the
   heap, ported verbatim (minus shadow/lifecycle wiring — violations are
   counted inline).  The production heap's chunk directory and segregated
   size-class free lists must be observationally identical to it: same
   alloc addresses, same LIFO reuse and quarantine order, same birth
   indices, same poison fills, same violation verdicts. *)
module Dense_oracle = struct
  module Vec = St_sim.Vec

  type t = {
    mutable words : int array;
    mutable owner : int array;
    mutable obj_size : int array;
    mutable birth : int array;
    mutable next_birth : int;
    mutable brk : int;
    free_lists : (int, int Vec.t) Hashtbl.t;
    q_addr : int array;
    q_size : int array;
    mutable q_head : int;
    mutable q_len : int;
    quarantine_max : int;
    align : int;
    mutable allocs : int;
    mutable frees : int;
    mutable live : int;
    mutable peak : int;
    mutable words_live : int;
    mutable bad_frees : int;
    mutable double_frees : int;
    mutable uaf_reads : int;
    mutable uaf_writes : int;
  }

  let create ?(initial_words = 1 lsl 16) ?(quarantine = 128) ?(align = 4) () =
    let cap = max initial_words (Word.heap_base * 2) in
    {
      align;
      words = Array.make cap 0;
      owner = Array.make cap 0;
      obj_size = Array.make cap 0;
      birth = Array.make cap 0;
      next_birth = 0;
      brk = Word.heap_base;
      free_lists = Hashtbl.create 8;
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
      bad_frees = 0;
      double_frees = 0;
      uaf_reads = 0;
      uaf_writes = 0;
    }

  let ensure_capacity t needed =
    let cap = Array.length t.words in
    if needed > cap then begin
      let cap' = ref cap in
      while needed > !cap' do
        cap' := !cap' * 2
      done;
      let grow a =
        let a' = Array.make !cap' 0 in
        Array.blit a 0 a' 0 cap;
        a'
      in
      t.words <- grow t.words;
      t.owner <- grow t.owner;
      t.obj_size <- grow t.obj_size;
      t.birth <- grow t.birth
    end

  let in_heap t addr = addr >= Word.heap_base && addr < t.brk

  let claim t base size =
    for i = base to base + size - 1 do
      t.owner.(i) <- base;
      t.words.(i) <- 0
    done;
    t.obj_size.(base) <- size;
    t.birth.(base) <- t.next_birth + 1;
    t.next_birth <- t.next_birth + 1;
    t.allocs <- t.allocs + 1;
    t.live <- t.live + 1;
    if t.live > t.peak then t.peak <- t.live;
    t.words_live <- t.words_live + size

  let effective_align t = max 2 t.align

  let chunk_size t size =
    let a = effective_align t in
    (size + a - 1) / a * a

  let free_list t size =
    match Hashtbl.find t.free_lists size with
    | v -> v
    | exception Not_found ->
        let v = Vec.create () in
        Hashtbl.add t.free_lists size v;
        v

  let alloc t ~size =
    let size = chunk_size t size in
    let fl = free_list t size in
    let base =
      let n = Vec.length fl in
      if n > 0 then begin
        let base = Vec.get fl (n - 1) in
        Vec.truncate fl (n - 1);
        base
      end
      else begin
        let a = effective_align t in
        let base = (t.brk + a - 1) / a * a in
        ensure_capacity t (base + size + 1);
        t.brk <- base + size;
        base
      end
    in
    claim t base size;
    base

  let is_allocated t addr = in_heap t addr && t.owner.(addr) = addr
  let owner_of t v = if in_heap t v then t.owner.(v) else 0
  let birth_ix t addr = if is_allocated t addr then t.birth.(addr) else 0

  let free t addr =
    if not (in_heap t addr) then t.bad_frees <- t.bad_frees + 1
    else if t.owner.(addr) <> addr then
      if t.obj_size.(addr) > 0 && t.owner.(addr) = 0 then
        t.double_frees <- t.double_frees + 1
      else t.bad_frees <- t.bad_frees + 1
    else begin
      let size = t.obj_size.(addr) in
      for i = addr to addr + size - 1 do
        t.owner.(i) <- 0;
        t.words.(i) <- Heap.poison
      done;
      t.frees <- t.frees + 1;
      t.live <- t.live - 1;
      t.words_live <- t.words_live - size;
      let cap = Array.length t.q_addr in
      let slot = (t.q_head + t.q_len) mod cap in
      t.q_addr.(slot) <- addr;
      t.q_size.(slot) <- size;
      t.q_len <- t.q_len + 1;
      if t.q_len > t.quarantine_max then begin
        let old_addr = t.q_addr.(t.q_head) in
        let old_size = t.q_size.(t.q_head) in
        t.q_head <- (t.q_head + 1) mod cap;
        t.q_len <- t.q_len - 1;
        Vec.push (free_list t old_size) old_addr
      end
    end

  let read t addr =
    if in_heap t addr && t.owner.(addr) <> 0 then t.words.(addr)
    else begin
      t.uaf_reads <- t.uaf_reads + 1;
      if addr >= 0 && addr < Array.length t.words then t.words.(addr)
      else Heap.poison
    end

  let write t addr v =
    if in_heap t addr && t.owner.(addr) <> 0 then t.words.(addr) <- v
    else begin
      t.uaf_writes <- t.uaf_writes + 1;
      if addr >= 0 && addr < Array.length t.words then t.words.(addr) <- v
    end
end

(* One randomized trace: mixed allocs (random sizes), frees of live bases,
   violating frees, writes, and reads of both live and stale addresses,
   driven by one seeded RNG feeding heap and oracle the same choices.  The
   trace is long enough (with [heavy]) to push [brk] across several 2^16
   chunk boundaries, so boundary-straddling objects and on-demand chunk
   allocation are exercised, then heap and oracle are compared word by
   word over the touched address space. *)
let run_oracle_trace ~seed ~quarantine ~align ~steps =
  let rng = Random.State.make [| seed |] in
  let shadow = Shadow.create () in
  let h = Heap.create ~quarantine ~align ~shadow () in
  let o = Dense_oracle.create ~quarantine ~align () in
  let live = ref [] in
  let n_live = ref 0 in
  let pick_live () =
    let i = Random.State.int rng !n_live in
    List.nth !live i
  in
  for _ = 1 to steps do
    let r = Random.State.int rng 100 in
    if r < 50 || !n_live = 0 then begin
      let size = 1 + Random.State.int rng 48 in
      let a = Heap.alloc h ~tid:0 ~size in
      let a' = Dense_oracle.alloc o ~size in
      if a <> a' then
        Alcotest.failf "alloc address diverged: heap=%d oracle=%d" a a';
      live := a :: !live;
      incr n_live
    end
    else if r < 78 then begin
      let a = pick_live () in
      Heap.free h ~tid:0 a;
      Dense_oracle.free o a;
      live := List.filter (fun x -> x <> a) !live;
      decr n_live
    end
    else if r < 84 then begin
      (* Wild free: usually an interior pointer, dead base, or out-of-range
         address; when it happens to hit a live base it is a legitimate
         free on both sides, so the live list must drop it. *)
      let a = Random.State.int rng (o.Dense_oracle.brk + 64) in
      let was_live = Dense_oracle.is_allocated o a in
      Heap.free h ~tid:0 a;
      Dense_oracle.free o a;
      if was_live then begin
        live := List.filter (fun x -> x <> a) !live;
        decr n_live
      end
    end
    else if r < 90 then begin
      (* Interior writes at offset <= 1: every object spans >= 2 words
         (effective alignment), so the target stays below [brk] — the
         debugging-only fallback window beyond [brk] is the one spot where
         chunk-rounded and doubled-dense bounds legitimately differ. *)
      let a = pick_live () in
      let off = Random.State.int rng 2 in
      let v = Random.State.int rng 1_000_000 in
      Heap.write h ~tid:0 (a + off) v;
      Dense_oracle.write o (a + off) v
    end
    else if r < 94 then begin
      (* Wild writes below [brk]: hits dead (poisoned) words or other live
         objects, exercising the write-after-free path on both sides. *)
      let a = Random.State.int rng o.Dense_oracle.brk in
      let v = Random.State.int rng 1_000_000 in
      Heap.write h ~tid:0 a v;
      Dense_oracle.write o a v
    end
    else begin
      (* Reads over all of [0, brk): live words, poisoned dead words, and
         the below-heap-base violation path. *)
      let a = Random.State.int rng o.Dense_oracle.brk in
      let v = Heap.read h ~tid:0 a in
      let v' = Dense_oracle.read o a in
      if v <> v' then Alcotest.failf "read diverged at %d: %d vs %d" a v v'
    end
  done;
  (* Full-state comparison over the touched address space. *)
  let brk = o.Dense_oracle.brk in
  for addr = 0 to brk - 1 do
    let ow = Heap.owner_of h addr and ow' = Dense_oracle.owner_of o addr in
    if ow <> ow' then
      Alcotest.failf "owner diverged at %d: %d vs %d" addr ow ow';
    let w = Heap.peek h addr in
    let w' = o.Dense_oracle.words.(addr) in
    if w <> w' then Alcotest.failf "word diverged at %d: %d vs %d" addr w w'
  done;
  List.iter
    (fun a ->
      checki "birth index" (Dense_oracle.birth_ix o a) (Heap.birth_ix h a))
    !live;
  checki "allocs" o.Dense_oracle.allocs (Heap.allocs h);
  checki "frees" o.Dense_oracle.frees (Heap.frees h);
  checki "live" o.Dense_oracle.live (Heap.live_objects h);
  checki "peak" o.Dense_oracle.peak (Heap.peak_live h);
  checki "words in use" o.Dense_oracle.words_live (Heap.words_in_use h);
  checki "quarantined" o.Dense_oracle.q_len (Heap.quarantined h);
  checki "bad frees" o.Dense_oracle.bad_frees
    (Shadow.count_kind shadow Shadow.Bad_free);
  checki "double frees" o.Dense_oracle.double_frees
    (Shadow.count_kind shadow Shadow.Double_free);
  checki "uaf reads" o.Dense_oracle.uaf_reads
    (Shadow.count_kind shadow Shadow.Read_after_free);
  checki "uaf writes" o.Dense_oracle.uaf_writes
    (Shadow.count_kind shadow Shadow.Write_after_free);
  (* Resident backing store is proportional to the touched chunks: exactly
     the chunks covering [brk], times two words per address (payload and
     owner) plus two per aligned base slot (size and birth). *)
  let covered =
    (brk + Heap.chunk_words - 1) / Heap.chunk_words * Heap.chunk_words
  in
  checki "resident words track touched chunks"
    ((2 * covered) + (2 * covered / max 2 align))
    (Heap.resident_words h);
  true

let prop_oracle_small =
  QCheck.Test.make ~name:"chunked heap == dense oracle (mixed geometry)"
    ~count:12
    QCheck.(pair (int_bound 1_000_000) (pair (int_bound 2) (int_bound 1)))
    (fun (seed, (q_sel, a_sel)) ->
      let quarantine = [| 0; 3; 128 |].(q_sel) in
      let align = [| 1; 4 |].(a_sel) in
      run_oracle_trace ~seed ~quarantine ~align ~steps:2_000)

let test_oracle_heavy () =
  (* One long trace: ~50K ops pushes brk across multiple chunk boundaries
     (several hundred K words), covering boundary-straddling objects,
     directory growth, and deep free-list recycling. *)
  ignore (run_oracle_trace ~seed:0xC0FFEE ~quarantine:128 ~align:4 ~steps:50_000)

let test_freelist_alloc_budget () =
  (* The recycling path (size-class hit -> LIFO pop -> claim; free -> poison
     -> quarantine push) must not touch the OCaml minor heap at all: it runs
     under every simulated reclamation. *)
  let h = mk ~quarantine:0 ~align:4 () in
  for _ = 1 to 100 do
    let a = Heap.alloc h ~tid:0 ~size:8 in
    Heap.free h ~tid:0 a
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    let a = Heap.alloc h ~tid:0 ~size:8 in
    Heap.free h ~tid:0 a
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_op > 0.001 then
    Alcotest.failf "free-list alloc/free path allocates %.4f words/op" per_op

let () =
  Alcotest.run "st_mem"
    [
      ( "heap",
        [
          Alcotest.test_case "alloc basics" `Quick test_alloc_basics;
          Alcotest.test_case "even bases" `Quick test_alloc_even;
          Alcotest.test_case "read write" `Quick test_read_write;
          Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
          Alcotest.test_case "no cross-size reuse" `Quick
            test_no_reuse_across_sizes;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "marked pointers" `Quick
            test_marked_pointers_distinct;
          Alcotest.test_case "quarantine delays reuse" `Quick
            test_quarantine_delays_reuse;
          Alcotest.test_case "alignment" `Quick test_alignment_rounds_sizes;
          Alcotest.test_case "align must be a power of two" `Quick
            test_align_power_of_two;
          Alcotest.test_case "dense oracle, multi-chunk trace" `Quick
            test_oracle_heavy;
          Alcotest.test_case "free-list path allocates nothing" `Quick
            test_freelist_alloc_budget;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "uaf read" `Quick test_use_after_free_read;
          Alcotest.test_case "uaf write" `Quick test_use_after_free_write;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "bad free" `Quick test_bad_free;
          Alcotest.test_case "strict raises" `Quick test_strict_raises;
          Alcotest.test_case "base_of" `Quick test_base_of;
          Alcotest.test_case "free verdicts" `Quick test_free_verdicts;
          Alcotest.test_case "freed base never interior" `Quick
            test_freed_base_not_interior;
          Alcotest.test_case "reused base metadata" `Quick
            test_reused_base_metadata;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_no_overlap;
          QCheck_alcotest.to_alcotest prop_reuse_same_size;
          QCheck_alcotest.to_alcotest prop_oracle_small;
        ] );
    ]
