(* Anderson array lock (Anderson, 1990).

   A fetch-and-increment assigns each acquirer a private slot in a
   circular flag array; the waiter spins on its own slot until the
   previous holder's release sets it.  Like MCS the spin is on a cell no
   other waiter reads, so waiting costs no bus traffic; unlike MCS the
   handoff target is computed (slot + 1) rather than linked, which trades
   the qnode bookkeeping for a fixed-size array — and therefore a hard
   cap on simultaneous waiters ([n_slots], 128 here, comfortably above
   the simulator's 64 cpus).

   Protocol invariant: at most one slot is "set" (grantable) at any time;
   an acquire consumes its slot's flag, a release sets the next slot's.
   The release store is an explicit handoff, so it shares the chaos
   [handoff_fault] hook with MCS: a dropped store leaves every future
   waiter spinning on flags that will never be set. *)

module Make (M : Mach_core.Machine_intf.MACHINE) = struct
  type t = {
    slots : M.Cell.t array;
    tail : M.Cell.t; (* next slot to hand out (monotonic; mod n_slots) *)
    mutable holder_slot : int;
  }

  let proto_name = "anderson"
  let n_slots = 128

  (* The slot cells' name suffixes, built once. *)
  let s_suffix = Array.init n_slots (fun i -> ".s" ^ string_of_int i)

  let make ~name =
    let slots =
      Array.init n_slots (fun i ->
          M.Cell.make ~name:(name ^ s_suffix.(i)) (if i = 0 then 1 else 0))
    in
    { slots; tail = M.Cell.make ~name:(name ^ ".tail") 0; holder_slot = 0 }

  let acquire t =
    let slot = M.Cell.fetch_and_add t.tail 1 mod n_slots in
    let flag = t.slots.(slot) in
    let spins = M.Cell.await flag (fun f -> f = 1) in
    (* Consume the grant so the slot reads 0 when the array wraps. *)
    M.Cell.set flag 0;
    t.holder_slot <- slot;
    spins

  let try_acquire t =
    let cur = M.Cell.get t.tail in
    let slot = cur mod n_slots in
    M.Cell.get t.slots.(slot) = 1
    && M.Cell.compare_and_swap t.tail ~expected:cur ~desired:(cur + 1)
    && begin
         M.Cell.set t.slots.(slot) 0;
         t.holder_slot <- slot;
         true
       end

  let release t =
    if not (M.handoff_fault ()) then
      M.Cell.set t.slots.((t.holder_slot + 1) mod n_slots) 1

  let is_locked t =
    (* The lock is free iff the next slot to be handed out is grantable. *)
    M.Cell.get t.slots.(M.Cell.get t.tail mod n_slots) = 0
end
