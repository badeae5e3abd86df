(* The benchmark's workloads, and the traced machine: the same machine
   [Experiment.run] builds, composed here from the public layer modules
   ([Sched], [Heap], [Tsx], [Guard.make_runtime], the scheme's [create],
   the dslib functor) with the scheme wrapped in {!Timed_guard}. *)

open St_sim
open St_mem
open St_htm
open St_reclaim
open St_harness

type workload = {
  name : string;
  configs : Experiment.config list;
      (** Run in order; the workload's metrics are taken over the set. *)
}

let base ~seed =
  {
    Experiment.default_config with
    threads = 16;
    duration = 1_500_000;
    seed;
  }

let hash_smr_schemes =
  Experiment.[ Hazards; Hazard_eras; Epoch; Debra; Debra_plus ]

let workload name ~seed =
  let b = base ~seed in
  match name with
  | "list-st16" ->
      Some
        {
          name;
          configs =
            [
              {
                b with
                structure = List_s;
                key_range = 1024;
                init_size = 512;
                mutation_pct = 20;
                scheme = Experiment.stacktrack_default;
              };
            ];
        }
  | "hash-smr" ->
      Some
        {
          name;
          configs =
            List.map
              (fun scheme ->
                {
                  b with
                  structure = Hash_s;
                  key_range = 4096;
                  init_size = 2048;
                  n_buckets = 512;
                  mutation_pct = 50;
                  scheme;
                })
              hash_smr_schemes;
        }
  | "hash-1m" ->
      Some
        {
          name;
          configs =
            [
              {
                b with
                structure = Hash_s;
                key_range = 2_000_000;
                init_size = 1_000_000;
                n_buckets = 250_000;
                mutation_pct = 50;
                scheme =
                  Stacktrack_s { Stacktrack.St_config.default with max_free = 1 };
              };
            ];
        }
  | _ -> None

let workload_names = [ "list-st16"; "hash-smr"; "hash-1m" ]

let scheme_label (c : Experiment.config) =
  match c.scheme with
  | Experiment.Hazards -> "hazards"
  | Hazard_eras -> "hazard-eras"
  | Epoch -> "epoch"
  | Debra -> "debra"
  | Debra_plus -> "debra+"
  | Stacktrack_s _ -> "stacktrack"
  | s -> Experiment.scheme_name s

(* The simulated outcome of a run, compared field by field between the
   untraced [Experiment.run], its repeats, and the traced composition. *)
type sim = {
  ops : int;
  ops_per_thread : int array;
  makespan : int;
  htm : Htm_stats.t;
  allocs : int;
  frees : int;
  live_at_end : int;
  peak_live : int;
  final_size : int;
  violations : int;
  context_switches : int;
  reclaim : int list;
  latency : Latency.t;
}

let reclaim_counts (g : Guard.stats) =
  [
    g.retired;
    g.freed;
    g.scans;
    g.scan_words;
    g.stall_cycles;
    g.protect_fences;
    g.lag_sum;
    g.lag_max;
  ]

let sim_of_result (r : Experiment.result) =
  {
    ops = r.total_ops;
    ops_per_thread = r.ops_per_thread;
    makespan = r.makespan;
    htm = r.htm;
    allocs = r.allocs;
    frees = r.frees;
    live_at_end = r.live_at_end;
    peak_live = r.peak_live;
    final_size = r.final_size;
    violations = r.violations;
    context_switches = r.context_switches;
    reclaim = reclaim_counts r.reclaim;
    latency = r.latency;
  }

(* [None] when equal, else the first differing field. *)
let sim_diff a b =
  let hist l = (Latency.count l, Latency.max_value l, Latency.nonzero_buckets l) in
  let fields =
    [
      ("ops", a.ops = b.ops);
      ("ops_per_thread", a.ops_per_thread = b.ops_per_thread);
      ("makespan", a.makespan = b.makespan);
      ("htm", a.htm = b.htm);
      ("allocs", a.allocs = b.allocs);
      ("frees", a.frees = b.frees);
      ("live_at_end", a.live_at_end = b.live_at_end);
      ("peak_live", a.peak_live = b.peak_live);
      ("final_size", a.final_size = b.final_size);
      ("violations", a.violations = b.violations);
      ("context_switches", a.context_switches = b.context_switches);
      ("reclaim", a.reclaim = b.reclaim);
      ("latency", hist a.latency = hist b.latency);
    ]
  in
  List.find_map (fun (name, eq) -> if eq then None else Some name) fields

(* What the traced run adds: layer counters read off the machine after
   [Sched.run], and whether the final structure is well formed. *)
type traced = {
  t_sim : sim;
  spans : Spans.summary;
  guard : Guard.stats;
  engine : Stacktrack.Scheme_stats.t option;
  heap_resident_words : int;
  line_table_words : int;
  wasted_cycles : int;
  consumed_cycles : int;
  check_ok : bool;
}

type packed = Packed : (module Guard.S with type t = 'a) * 'a -> packed

let instance rt : Experiment.scheme_kind -> packed * Stacktrack.Engine.t option =
  function
  | Experiment.Stacktrack_s cfg ->
      let e = Stacktrack.Engine.create ~cfg rt in
      (Packed ((module Stacktrack.Engine), e), Some e)
  | Hazards -> (Packed ((module Hazard), Hazard.create rt), None)
  | Hazard_eras -> (Packed ((module Hazard_eras), Hazard_eras.create rt), None)
  | Epoch -> (Packed ((module Epoch), Epoch.create rt), None)
  | Debra -> (Packed ((module Debra), Debra.create rt), None)
  | Debra_plus -> (Packed ((module Debra_plus), Debra_plus.create rt), None)
  | s -> invalid_arg ("perfbench: scheme not composed: " ^ Experiment.scheme_name s)

(* A structure as the worker loop sees it, behind the dslib functor. *)
module type SET = sig
  type thread

  val contains : thread -> int -> bool
  val insert : thread -> int -> bool
  val delete : thread -> int -> bool
  val size_checked : unit -> int option
      (** Raw element count if the structure is well formed, quiescent. *)
end

(* Quiescent check of one Harris list: [Some n] when the [n] nodes reachable
   from [head] are live heap objects with strictly increasing keys that all
   satisfy [ok].  [Harris_list.check_raw] also rejects marked nodes, but a
   marked node left in the chain is a legal quiescent state: a delete whose
   unlink CAS loses leaves its node marked until a later traversal unlinks
   it (DEBRA+ on hash-smr at the default seed ends with one).  Marked nodes
   are counted, as [Experiment]'s [final_size] counts them. *)
let chain_check heap ~head ~ok =
  let open St_dslib.Harris_list in
  let rec go addr prev n =
    if addr = Word.null then Some n
    else
      let key = Heap.peek heap (addr + key_off) in
      if Heap.is_allocated heap addr && key > prev && ok key then
        go (Word.unmark (Heap.peek heap (addr + next_off))) key (n + 1)
      else None
  in
  go (Word.unmark (Heap.peek heap (head + next_off))) head_key 0

let list_check heap (l : St_dslib.Harris_list.t) =
  chain_check heap ~head:l.head ~ok:(fun _ -> true)

(* Every bucket's chain, each key in its own bucket. *)
let hash_check heap (h : St_dslib.Hash_table.t) =
  let rec buckets b acc =
    if b = h.n_buckets then Some acc
    else
      match
        chain_check heap
          ~head:(Heap.peek heap (h.buckets + b))
          ~ok:(fun k -> St_dslib.Hash_table.bucket_of h k = b)
      with
      | Some n -> buckets (b + 1) (acc + n)
      | None -> None
  in
  buckets 0 0

(* Mirrors [Experiment.run] for set structures with no observer flags:
   identical machine construction order and RNG seeding, identical worker
   loop, so the simulated schedule is the same. *)
let run_traced ?(timed = true) ?(delay_ns = 0) (cfg : Experiment.config) =
  let topo = Topology.create ~cores:cfg.cores ~smt:cfg.smt () in
  let profile = Profile.create ~enabled:timed () in
  let sched =
    Sched.create ~topology:topo ~quantum:cfg.quantum ~profile ~seed:cfg.seed ()
  in
  let shadow = Shadow.create () in
  let heap = Heap.create ~initial_words:(1 lsl 18) ~shadow () in
  let tsx = Tsx.create ~cache:cfg.cache ~backend:cfg.backend ~sched ~heap () in
  let rt = Guard.make_runtime ~sched ~tsx in
  let setup_rng = Rng.create ~seed:(cfg.seed lxor 0x5EED) in
  let Packed ((module G), scheme), engine = instance rt cfg.scheme in
  let init_keys =
    St_workload.Workload.initial_keys ~rng:setup_rng ~key_range:cfg.key_range
      ~size:cfg.init_size
  in
  let spans = Spans.create ~timed ~delay_ns ~threads:cfg.threads sched in
  let module T =
    Timed_guard.Make
      (G)
      (struct
        let spans = spans
      end)
  in
  let set : (module SET with type thread = G.thread) =
    match cfg.structure with
    | Experiment.List_s ->
        let module S = St_dslib.Harris_list.Make (T) in
        let l = St_dslib.Harris_list.create_raw heap in
        St_dslib.Harris_list.populate_raw heap l ~keys:init_keys ~note_link:ignore;
        (module struct
          type thread = G.thread

          let contains th k = S.contains l th k
          let insert th k = S.insert l th k
          let delete th k = S.delete l th k
          let size_checked () = list_check heap l
        end)
    | Hash_s ->
        let module S = St_dslib.Hash_table.Make (T) in
        let h = St_dslib.Hash_table.create_raw heap ~n_buckets:cfg.n_buckets in
        St_dslib.Hash_table.populate_raw heap h ~keys:init_keys ~note_link:ignore;
        (module struct
          type thread = G.thread

          let contains th k = S.contains h th k
          let insert th k = S.insert h th k
          let delete th k = S.delete h th k
          let size_checked () = hash_check heap h
        end)
    | s ->
        invalid_arg ("perfbench: structure not composed: " ^ Experiment.structure_name s)
  in
  let module S = (val set) in
  let ops_per_thread = Array.make cfg.threads 0 in
  let latency = Latency.create () in
  let gens =
    Array.init cfg.threads (fun tid ->
        St_workload.Workload.set_gen
          (St_workload.Workload.set_profile ~dist:cfg.dist
             ~key_range:cfg.key_range ~mutation_pct:cfg.mutation_pct ())
          (Rng.create ~seed:(cfg.seed + (7919 * (tid + 1)))))
  in
  let op kind f th k =
    Spans.enter spans kind;
    match f th k with
    | (_ : bool) -> Spans.exit spans
    | exception e ->
        Spans.exit spans;
        raise e
  in
  let worker tid =
    let th = G.create_thread scheme ~tid in
    while Sched.now sched < cfg.duration do
      let t0 = Sched.now sched in
      (match St_workload.Workload.next_set_op gens.(tid) with
      | St_workload.Workload.Contains k -> op Spans.Contains S.contains th k
      | Insert k -> op Spans.Insert S.insert th k
      | Delete k -> op Spans.Delete S.delete th k);
      Latency.record latency (Sched.now sched - t0);
      ops_per_thread.(tid) <- ops_per_thread.(tid) + 1
    done;
    G.quiesce th
  in
  for _ = 1 to cfg.threads do
    ignore (Sched.add_thread sched worker)
  done;
  Spans.run_begin spans;
  Sched.run sched;
  Spans.run_end spans;
  let checked = S.size_checked () in
  let final_size = Option.value checked ~default:(-1) in
  let ops = Array.fold_left ( + ) 0 ops_per_thread in
  let consumed = Sched.consumed_by_thread sched in
  {
    t_sim =
      {
        ops;
        ops_per_thread;
        makespan = Sched.global_time sched;
        htm = Tsx.total_stats tsx;
        allocs = Heap.allocs heap;
        frees = Heap.frees heap;
        live_at_end = Heap.live_objects heap;
        peak_live = Heap.peak_live heap;
        final_size;
        violations = Shadow.count shadow;
        context_switches = Sched.context_switches sched;
        reclaim = reclaim_counts (G.stats scheme);
        latency;
      };
    spans = Spans.summary spans;
    guard = G.stats scheme;
    engine = Option.map Stacktrack.Engine.scheme_stats engine;
    heap_resident_words = Heap.resident_words heap;
    line_table_words = Tsx.line_table_words tsx;
    wasted_cycles = Profile.wasted_cycles profile ~n_threads:cfg.threads;
    consumed_cycles = Array.fold_left ( + ) 0 consumed;
    check_ok = checked <> None;
  }
