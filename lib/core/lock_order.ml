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

  let backout_lock_pair ~first ~second =
    let rec attempt backouts =
      Slock.lock first;
      if Slock.try_lock second then backouts
      else begin
        Slock.unlock first;
        M.spin_pause ();
        attempt (backouts + 1)
      end
    in
    attempt 0
end
