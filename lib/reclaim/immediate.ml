open St_sim

include None.Trivial (struct
  let name = "immediate-unsafe"

  let retire rt stats addr =
    Guard.note_retire stats ~now:(Sched.now rt.Guard.sched) addr;
    Guard.free_noted rt stats addr
end)
