module Wait = struct
  type t = unit

  let name = "debra"
  let on_register _ ~tid:_ = ()
  let on_begin _ = ()
  let stalled _ ~peer:_ = ()

  (* Quiescing cannot recover what the epoch cannot prove dead. *)
  let blocks_drain _ ~peer:_ = true
end

include Simple.Make (Epoch_bags.Hooks (Wait))

let create rt = Epoch_bags.create rt ()
