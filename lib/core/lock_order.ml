module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) =
struct
  let lock_both_by_uid a b =
    if Slock.uid a = Slock.uid b then Slock.lock a
    else if Slock.uid a < Slock.uid b then begin
      Slock.lock a;
      Slock.lock b
    end
    else begin
      Slock.lock b;
      Slock.lock a
    end

  let unlock_both a b =
    if Slock.uid a = Slock.uid b then Slock.unlock a
    else begin
      Slock.unlock a;
      Slock.unlock b
    end

  (* Between backouts, delay with the same capped exponential backoff as
     the Ttas_backoff spin protocol: contending backout threads otherwise
     retry in lockstep and burn bus bandwidth on doomed try_locks. *)
  let backout_lock_pair ~first ~second =
    let max_backoff = M.spin_max_backoff () in
    let rec attempt backouts delay =
      Slock.lock first;
      if Slock.try_lock second then backouts
      else begin
        Slock.unlock first;
        M.spin_pause ();
        for _ = 1 to delay do
          M.cycles 1
        done;
        attempt (backouts + 1) (Stdlib.min (delay * 2) max_backoff)
      end
    in
    attempt 0 1
end
