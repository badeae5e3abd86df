(* Per-cache-line contention tallies.  Disabled by default: every recording
   entry point returns immediately, so the hot memory-access paths pay one
   branch when profiling is off.  Recording is pure arithmetic — no RNG, no
   cycle charges — so enabling it cannot perturb a run. *)

type cell = {
  mutable touches : int;
  mutable conflicts : int;
  mutable capacity : int;
}

type t = { enabled : bool; cells : (int, cell) Hashtbl.t }

let create ?(enabled = false) () = { enabled; cells = Hashtbl.create 1024 }
let enabled t = t.enabled

(* Exception-style lookup: [find_opt] boxes a [Some] per call, and this
   runs once per memory access when profiling is on. *)
let cell t line =
  match Hashtbl.find t.cells line with
  | c -> c
  | exception Not_found ->
      let c = { touches = 0; conflicts = 0; capacity = 0 } in
      Hashtbl.add t.cells line c;
      c

let touch t line =
  if t.enabled then
    let c = cell t line in
    c.touches <- c.touches + 1

let conflict t line =
  if t.enabled then
    let c = cell t line in
    c.conflicts <- c.conflicts + 1

let capacity t line =
  if t.enabled then
    let c = cell t line in
    c.capacity <- c.capacity + 1

type row = { line : int; touches : int; conflicts : int; capacity : int }

(* Hottest lines first: conflicts are the quantity the paper's abort
   analysis cares about, so they dominate the order; line number breaks
   ties to keep the report deterministic. *)
let snapshot ?(top = 16) t =
  let rows =
    Hashtbl.fold
      (fun line (c : cell) acc ->
        {
          line;
          touches = c.touches;
          conflicts = c.conflicts;
          capacity = c.capacity;
        }
        :: acc)
      t.cells []
  in
  let rows =
    List.sort
      (fun a b ->
        if a.conflicts <> b.conflicts then compare b.conflicts a.conflicts
        else if a.touches <> b.touches then compare b.touches a.touches
        else compare a.line b.line)
      rows
  in
  List.filteri (fun i _ -> i < top) rows
