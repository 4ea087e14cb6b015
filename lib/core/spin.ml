module Make (M : Machine_intf.MACHINE) = struct
  (* Spin on the cacheable read until the lock looks free, then attempt the
     atomic instruction; repeat.  Counts iterations for statistics. *)
  let ttas_loop cell =
    let rec loop spins =
      let spins = spins + M.Cell.await cell (fun v -> v = 0) in
      if M.Cell.test_and_set cell = 0 then spins
      else begin
        M.spin_pause ();
        loop (spins + 1)
      end
    in
    loop 0

  (* The same loop with a capped exponential delay after every pause.
     The delay is charged when the next iteration starts, so this is not
     a read-only wait and stays a literal loop. *)
  let ttas_backoff_loop cell =
    let max_backoff = M.spin_max_backoff () in
    let rec loop spins delay =
      if M.Cell.get cell = 0 && M.Cell.test_and_set cell = 0 then spins
      else begin
        M.spin_pause ();
        for _ = 1 to delay do
          M.cycles 1
        done;
        loop (spins + 1) (Stdlib.min (delay * 2) max_backoff)
      end
    in
    loop 0 1

  let tas_loop cell =
    let rec loop spins =
      if M.Cell.test_and_set cell = 0 then spins
      else begin
        M.spin_pause ();
        loop (spins + 1)
      end
    in
    loop 0

  let tas_then_ttas_loop cell =
    if M.Cell.test_and_set cell = 0 then 0
    else begin
      M.spin_pause ();
      1 + ttas_loop cell
    end

  let on_cell proto_name acquire : Lock_proto.t =
    (module struct
      type t = M.Cell.t

      let proto_name = proto_name
      let make ~name = M.Cell.make ~name 0
      let acquire = acquire
      let try_acquire cell = M.Cell.test_and_set cell = 0
      let release cell = M.Cell.set cell 0
      let is_locked cell = M.Cell.get cell <> 0
    end)

  let tas = on_cell "tas" tas_loop
  let ttas = on_cell "ttas" ttas_loop
  let tas_then_ttas = on_cell "tas+ttas" tas_then_ttas_loop
  let ttas_backoff = on_cell "ttas-backoff" ttas_backoff_loop
  let spin = [ tas; ttas; tas_then_ttas; ttas_backoff ]
end
