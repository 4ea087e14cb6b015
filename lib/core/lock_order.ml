module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) =
struct
  type cls = Thread_ctx.rank = { cname : string; rank : int }

  let define_class ~name ~rank = { cname = name; rank }
  let class_name c = c.cname
  let class_rank c = c.rank

  (* The held classes are the rank entries on the thread's context, in
     the one stack it shares with its lock holds and spans.  A new run
     starts with new contexts, so nothing leaks from one run (or
     Sim_explore seed) into the next. *)
  let my_context () = M.context (M.self ())

  let reset_held () =
    let ctx = my_context () in
    ctx.stack <-
      List.filter (function Thread_ctx.Rank _ -> false | _ -> true) ctx.stack

  let violation_log : string list Atomic.t = Atomic.make []
  let fatal_violations = Atomic.make false
  let set_fatal_violations b = Atomic.set fatal_violations b

  let record_violation msg =
    if Atomic.get fatal_violations then M.fatal msg
    else begin
      let rec push () =
        let old = Atomic.get violation_log in
        if not (Atomic.compare_and_set violation_log old (msg :: old)) then
          push ()
      in
      push ()
    end

  let violations () = Atomic.get violation_log
  let clear_violations () = Atomic.set violation_log []

  let note_acquire c =
    let ctx = my_context () in
    (* Compare against the maximum rank held anywhere in the stack, not
       just the most recent acquisition: holding [rank 1; rank 3] and
       acquiring rank 2 is a violation against the rank-3 class even
       though the top of the stack is rank 1. *)
    let worst =
      List.fold_left
        (fun acc -> function
          | Thread_ctx.Rank h -> (
              match acc with Some w when w.rank >= h.rank -> acc | _ -> Some h)
          | _ -> acc)
        None ctx.stack
    in
    (match worst with
    | Some w when w.rank > c.rank ->
        record_violation
          (Printf.sprintf
             "lock order violation: thread %s acquired class %s (rank %d) \
              while holding class %s (rank %d)"
             (M.thread_name (M.self ()))
             c.cname c.rank w.cname w.rank)
    | _ -> ());
    ctx.stack <- Thread_ctx.Rank c :: ctx.stack

  let note_release c =
    match
      Thread_ctx.take (my_context ()) (function
        | Thread_ctx.Rank top -> top.cname = c.cname
        | _ -> false)
    with
    | Some _ -> ()
    | None ->
        record_violation
          (Printf.sprintf
             "lock order: thread %s released class %s it does not hold"
             (M.thread_name (M.self ()))
             c.cname)

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
