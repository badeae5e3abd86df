(** Offline analysis of result JSON artifacts.

    Two jobs, both consumed by [bench/analyze.exe]:

    - {b report}: render one artifact produced by {!Result_json} as a
      human-readable summary — headline counters, cycle-account
      breakdown, contention heatmap, latency tail — without re-running
      anything.
    - {b diff}: compare two artifacts metric-by-metric under per-path
      relative tolerances and list every drift.  This is the CI
      regression gate: a fresh perf-smoke run is diffed against a
      committed baseline and any out-of-tolerance metric fails the job.

    Both operate on the generic {!Json_out.t} AST (via {!Json_in}), so
    they keep working as new sections are appended to the artifact
    format. *)

(* ------------------------------------------------------------------ *)
(* Flattening                                                          *)
(* ------------------------------------------------------------------ *)

let key_path prefix k = if prefix = "" then k else prefix ^ "." ^ k
let index_path prefix i = Printf.sprintf "%s[%d]" prefix i

(* Leaves only: containers contribute paths, not values.  An empty
   object or list therefore flattens to nothing, which is fine — every
   artifact field the gate cares about is a leaf. *)
let flatten v =
  let rec go prefix v acc =
    match (v : Json_out.t) with
    | Json_out.Obj fields ->
        List.fold_left (fun acc (k, v) -> go (key_path prefix k) v acc) acc fields
    | Json_out.List items ->
        let _, acc =
          List.fold_left
            (fun (i, acc) v -> (i + 1, go (index_path prefix i) v acc))
            (0, acc) items
        in
        acc
    | leaf -> (prefix, leaf) :: acc
  in
  List.rev (go "" v [])

(* ------------------------------------------------------------------ *)
(* Tolerances                                                          *)
(* ------------------------------------------------------------------ *)

type tolerances = { default : float; rules : (string * float) list }

let exact = { default = 0.; rules = [] }

(* A rule matches its own path and everything nested under it (next
   char '.' or '['); the longest matching rule wins, so a specific
   override beats a subtree-wide one. *)
let rule_matches rule path =
  rule = path
  || (String.length path > String.length rule
     && String.sub path 0 (String.length rule) = rule
     && (path.[String.length rule] = '.' || path.[String.length rule] = '['))

let tol_for t path =
  let best =
    List.fold_left
      (fun best (rule, tol) ->
        if rule_matches rule path then
          match best with
          | Some (r, _) when String.length r >= String.length rule -> best
          | _ -> Some (rule, tol)
        else best)
      None t.rules
  in
  match best with Some (_, tol) -> tol | None -> t.default

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

type drift = {
  path : string;
  a : Json_out.t option; (* None: missing on the baseline side *)
  b : Json_out.t option; (* None: missing on the candidate side *)
  tol : float;
  rel : float; (* relative delta for numeric drifts; nan otherwise *)
}

let num_of = function
  | Json_out.Int i -> Some (float_of_int i)
  | Json_out.Float f -> Some f
  | _ -> None

let rel_delta x y =
  if x = y then 0.
  else begin
    let scale = Float.max (Float.abs x) (Float.abs y) in
    if scale = 0. then 0. else Float.abs (x -. y) /. scale
  end

let diff ?(tols = exact) a b =
  let fa = flatten a and fb = flatten b in
  let tb = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace tb p v) fb;
  let seen = Hashtbl.create 64 in
  let drifts = ref [] in
  let push d = drifts := d :: !drifts in
  List.iter
    (fun (path, va) ->
      Hashtbl.replace seen path ();
      let tol = tol_for tols path in
      match Hashtbl.find_opt tb path with
      | None ->
          if tol <> infinity then
            push { path; a = Some va; b = None; tol; rel = nan }
      | Some vb -> (
          match (num_of va, num_of vb) with
          | Some x, Some y ->
              let rel = rel_delta x y in
              if rel > tol then push { path; a = Some va; b = Some vb; tol; rel }
          | _ ->
              if va <> vb && tol <> infinity then
                push { path; a = Some va; b = Some vb; tol; rel = nan }))
    fa;
  List.iter
    (fun (path, vb) ->
      if not (Hashtbl.mem seen path) then begin
        let tol = tol_for tols path in
        if tol <> infinity then
          push { path; a = None; b = Some vb; tol; rel = nan }
      end)
    fb;
  List.rev !drifts

let pp_value ppf = function
  | None -> Format.pp_print_string ppf "<missing>"
  | Some v -> Format.pp_print_string ppf (Json_out.to_string v)

let pp_drift ppf d =
  if Float.is_nan d.rel then
    Format.fprintf ppf "%-40s %s -> %s" d.path
      (Format.asprintf "%a" pp_value d.a)
      (Format.asprintf "%a" pp_value d.b)
  else
    Format.fprintf ppf "%-40s %s -> %s (rel %.4f > tol %.4f)" d.path
      (Format.asprintf "%a" pp_value d.a)
      (Format.asprintf "%a" pp_value d.b)
      d.rel d.tol

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Json_out.Obj fields -> List.assoc_opt k fields
  | _ -> None

let path_get doc path =
  List.fold_left
    (fun v k -> match v with Some v -> member k v | None -> None)
    (Some doc) path

let as_int = function
  | Some (Json_out.Int i) -> Some i
  | _ -> None

let as_float = function
  | Some (Json_out.Float f) -> Some f
  | Some (Json_out.Int i) -> Some (float_of_int i)
  | _ -> None

let as_string = function
  | Some (Json_out.String s) -> Some s
  | _ -> None

let as_list = function
  | Some (Json_out.List l) -> l
  | _ -> []

let istr = function Some i -> string_of_int i | None -> "?"
let sstr = function Some s -> s | None -> "?"

let report ppf doc =
  let g path = path_get doc path in
  Format.fprintf ppf "config: %s/%s threads=%s duration=%s seed=%s@."
    (sstr (as_string (g [ "config"; "structure" ])))
    (sstr (as_string (g [ "config"; "scheme" ])))
    (istr (as_int (g [ "config"; "threads" ])))
    (istr (as_int (g [ "config"; "duration" ])))
    (istr (as_int (g [ "config"; "seed" ])));
  (match as_float (g [ "throughput" ]) with
  | Some thr ->
      Format.fprintf ppf
        "headline: ops=%s makespan=%s throughput=%.6g ops/Mcycle@."
        (istr (as_int (g [ "total_ops" ])))
        (istr (as_int (g [ "makespan" ])))
        thr
  | None -> ());
  (match (as_int (g [ "htm"; "commits" ]), as_int (g [ "htm"; "aborts"; "total" ])) with
  | Some commits, Some aborts ->
      Format.fprintf ppf
        "htm: commits=%d aborts=%d (conflict=%s capacity=%s interrupt=%s explicit=%s)@."
        commits aborts
        (istr (as_int (g [ "htm"; "aborts"; "conflict" ])))
        (istr (as_int (g [ "htm"; "aborts"; "capacity" ])))
        (istr (as_int (g [ "htm"; "aborts"; "interrupt" ])))
        (istr (as_int (g [ "htm"; "aborts"; "explicit" ])))
  | _ -> ());
  (match as_int (g [ "reclaim"; "freed" ]) with
  | Some freed ->
      Format.fprintf ppf "reclaim: retired=%s freed=%d scans=%s stall_cycles=%s@."
        (istr (as_int (g [ "reclaim"; "retired" ])))
        freed
        (istr (as_int (g [ "reclaim"; "scans" ])))
        (istr (as_int (g [ "reclaim"; "stall_cycles" ])))
  | None -> ());
  (match as_int (g [ "latency"; "p50" ]) with
  | Some p50 ->
      Format.fprintf ppf "latency: p50=%d p95=%s p99=%s max=%s@." p50
        (istr (as_int (g [ "latency"; "p95" ])))
        (istr (as_int (g [ "latency"; "p99" ])))
        (istr (as_int (g [ "latency"; "max" ])))
  | None -> ());
  (match as_int (g [ "trace_dropped" ]) with
  | Some n when n > 0 ->
      Format.fprintf ppf
        "WARNING: trace ring dropped %d events; the Chrome trace is truncated@."
        n
  | _ -> ());
  (match g [ "profile" ] with
  | Some profile ->
      let makespan = as_int (member "makespan" profile) in
      Format.fprintf ppf "@.cycle accounts (makespan=%s):@." (istr makespan);
      let totals =
        match member "totals" profile with
        | Some (Json_out.Obj fields) -> fields
        | _ -> []
      in
      let sum =
        List.fold_left
          (fun acc (_, v) ->
            match v with Json_out.Int i -> acc + i | _ -> acc)
          0 totals
      in
      List.iter
        (fun (name, v) ->
          match v with
          | Json_out.Int c ->
              let pct =
                if sum = 0 then 0.
                else 100. *. float_of_int c /. float_of_int sum
              in
              Format.fprintf ppf "  %-16s %12d  %5.1f%%@." name c pct
          | _ -> ())
        totals;
      Format.fprintf ppf "  %-16s %12d@." "accounted" sum;
      let threads = as_list (member "threads" profile) in
      let idle =
        List.fold_left
          (fun acc th ->
            match as_int (member "idle" th) with Some i -> acc + i | None -> acc)
          0 threads
      in
      Format.fprintf ppf "  %-16s %12d  (%d threads)@." "idle" idle
        (List.length threads)
  | None -> ());
  (match g [ "heatmap" ] with
  | Some (Json_out.List rows) when rows <> [] ->
      Format.fprintf ppf "@.contention heatmap (top %d lines):@."
        (List.length rows);
      Format.fprintf ppf "  %8s %10s %10s %10s  %s@." "line" "touches"
        "conflicts" "capacity" "owner";
      List.iter
        (fun row ->
          Format.fprintf ppf "  %8s %10s %10s %10s  %s@."
            (istr (as_int (member "line" row)))
            (istr (as_int (member "touches" row)))
            (istr (as_int (member "conflicts" row)))
            (istr (as_int (member "capacity" row)))
            (match member "owner" row with
            | Some (Json_out.String s) -> s
            | _ -> "-"))
        rows
  | _ -> ());
  (match g [ "reclaim_lifecycle" ] with
  | None -> ()
  | Some lc ->
      let m k = member k lc in
      Format.fprintf ppf "@.memory lifecycle:@.";
      Format.fprintf ppf
        "  census: allocs=%s retires=%s frees=%s live_at_end=%s@."
        (istr (as_int (m "allocs")))
        (istr (as_int (m "retires")))
        (istr (as_int (m "frees")))
        (istr (as_int (m "live_at_end")));
      Format.fprintf ppf
        "  limbo: at_end=%s (%s words) peak=%s objects / %s words@."
        (istr (as_int (m "limbo_at_end")))
        (istr (as_int (m "limbo_words_at_end")))
        (istr (as_int (m "peak_limbo_objects")))
        (istr (as_int (m "peak_limbo_words")));
      Format.fprintf ppf "  footprint: peak_live_words=%s@."
        (istr (as_int (m "peak_live_words")));
      (match as_int (path_get lc [ "lag"; "count" ]) with
      | Some count when count > 0 ->
          Format.fprintf ppf
            "  retire->free lag: count=%d p50=%s p95=%s p99=%s max=%s@." count
            (istr (as_int (path_get lc [ "lag"; "p50" ])))
            (istr (as_int (path_get lc [ "lag"; "p95" ])))
            (istr (as_int (path_get lc [ "lag"; "p99" ])))
            (istr (as_int (path_get lc [ "lag"; "max" ])))
      | _ -> Format.fprintf ppf "  retire->free lag: no freed objects@.");
      let wd k = path_get lc [ "watchdog"; k ] in
      let incidents = Option.value ~default:0 (as_int (wd "incidents")) in
      if incidents = 0 then
        Format.fprintf ppf "  watchdog: no stagnation (%s observations)@."
          (istr (as_int (wd "observations")))
      else
        Format.fprintf ppf
          "  watchdog: %d stagnation incident(s), %s stalled cycles, max \
           backlog %s%s@."
          incidents
          (istr (as_int (wd "total_stalled_cycles")))
          (istr (as_int (wd "max_backlog")))
          (match wd "ongoing" with
          | Some (Json_out.Bool true) -> ", ongoing at exit"
          | _ -> ""));
  match g [ "htm_forensics" ] with
  | None -> ()
  | Some fx ->
      Format.fprintf ppf "@.abort forensics:@.";
      Format.fprintf ppf
        "  dooms: conflict=%s capacity=%s interrupt=%s@."
        (istr (as_int (path_get fx [ "dooms"; "conflict" ])))
        (istr (as_int (path_get fx [ "dooms"; "capacity" ])))
        (istr (as_int (path_get fx [ "dooms"; "interrupt" ])));
      Format.fprintf ppf
        "  wasted cycles: conflict=%s capacity=%s interrupt=%s explicit=%s \
         unresolved=%s total=%s@."
        (istr (as_int (path_get fx [ "wasted"; "conflict" ])))
        (istr (as_int (path_get fx [ "wasted"; "capacity" ])))
        (istr (as_int (path_get fx [ "wasted"; "interrupt" ])))
        (istr (as_int (path_get fx [ "wasted"; "explicit" ])))
        (istr (as_int (path_get fx [ "wasted"; "unresolved" ])))
        (istr (as_int (path_get fx [ "wasted"; "total" ])));
      let take n = List.filteri (fun i _ -> i < n) in
      (match as_list (member "conflict_pairs" fx) with
      | [] -> ()
      | pairs ->
          Format.fprintf ppf "  top doomed pairs (victim <- aborter):@.";
          let sorted =
            List.sort
              (fun a b ->
                compare
                  (as_int (member "dooms" b))
                  (as_int (member "dooms" a)))
              pairs
          in
          List.iter
            (fun p ->
              Format.fprintf ppf "    tid%s <- tid%s  %s dooms@."
                (istr (as_int (member "victim" p)))
                (istr (as_int (member "aborter" p)))
                (istr (as_int (member "dooms" p))))
            (take 5 sorted));
      (match as_list (member "segments" fx) with
      | [] -> ()
      | segs ->
          Format.fprintf ppf "  hottest segments (op_id/split):@.";
          List.iter
            (fun s ->
              Format.fprintf ppf
                "    op%s/%s  aborts=%s chains=%s max_depth=%s@."
                (istr (as_int (member "op_id" s)))
                (istr (as_int (member "split" s)))
                (istr (as_int (member "aborts" s)))
                (istr (as_int (member "chains" s)))
                (istr (as_int (member "max_depth" s))))
            (take 5 segs));
      (match as_int (path_get fx [ "retry_depths"; "summary"; "count" ]) with
      | Some count when count > 0 ->
          Format.fprintf ppf
            "  retry depth: chains=%d p50=%s p95=%s max=%s@." count
            (istr (as_int (path_get fx [ "retry_depths"; "summary"; "p50" ])))
            (istr (as_int (path_get fx [ "retry_depths"; "summary"; "p95" ])))
            (istr (as_int (path_get fx [ "retry_depths"; "summary"; "max" ])))
      | _ -> ());
      let pr k = path_get fx [ "predictor"; k ] in
      (match as_int (pr "segments_tracked") with
      | Some n when n > 0 ->
          Format.fprintf ppf
            "  predictor: %d segment(s) tracked, %d limit change(s)%s@." n
            (List.length (as_list (pr "timeline")))
            (match as_int (pr "timeline_dropped") with
            | Some d when d > 0 -> Printf.sprintf " (%d dropped)" d
            | _ -> "")
      | _ -> ())
