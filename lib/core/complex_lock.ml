module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M))
    (E : module type of Event.Make (M) (Slock)) =
struct
  module Ev = Lock_events.Make (M)

  type t = {
    interlock : Slock.t; (* protects every mutable field below *)
    event : E.event;
    lname : string;
    site : Lock_events.site;
    mutable want_write : bool;
    mutable want_upgrade : bool;
    mutable read_count : int;
    mutable can_sleep : bool;
    mutable waiting : bool; (* someone is blocked on [event] *)
    mutable writer : M.thread option; (* current write holder *)
    mutable recursive_holder : M.thread option;
    mutable recursion_depth : int; (* write re-acquisitions beyond first *)
    mutable recursive_reads : int; (* read acquisitions by the recursive holder *)
    mutable writers_priority : bool; (* ablation switch, default true *)
    mutable write_acquired_at : int; (* cycle clock when the writer got in *)
  }

  let next_id = Atomic.make 0

  let make ?name ?proto ~can_sleep () =
    let id = Atomic.fetch_and_add next_id 1 in
    let lname =
      match name with Some n -> n | None -> Printf.sprintf "lock%d" id
    in
    let event = E.fresh_event () in
    let res = Waits_for.Clock { uid = id; name = lname } in
    (* Sleep-mode waits surface as waits on [event]; alias the event back
       to this lock so the deadlock detector names the lock, not a bare
       event number. *)
    Waits_for.note_event_resource ~event res;
    {
      interlock = Slock.make ~name:(lname ^ ".interlock") ?proto ();
      event;
      lname;
      site = Lock_events.site ~name:lname res;
      want_write = false;
      want_upgrade = false;
      read_count = 0;
      can_sleep = true;
      waiting = false;
      writer = None;
      recursive_holder = None;
      recursion_depth = 0;
      recursive_reads = 0;
      writers_priority = true;
      write_acquired_at = 0;
    }
    |> fun t ->
    t.can_sleep <- can_sleep;
    t

  let self_is t holder =
    match holder with
    | Some h -> M.equal_thread h (M.self ())
    | None -> ignore t; false

  let is_recursive_holder t = self_is t t.recursive_holder

  (* Count spin-mode complex locks on the thread's context so the event
     layer can reject blocking while one is held (Appendix B: locks
     without the Sleep option cannot be held during blocking
     operations). *)
  let bump_spin_held t delta =
    if not t.can_sleep then begin
      let ctx = M.context (M.self ()) in
      ctx.complex_spin_locks_held <- ctx.complex_spin_locks_held + delta
    end

  (* Wait for the lock state to change.  Caller holds the interlock; it is
     released across the wait and reacquired before returning.  Sleep mode
     blocks on the lock's event (the event-to-lock alias recorded in [make]
     lets the deadlock detector name the lock); spin mode busy-waits with
     an explicit wait edge per round. *)
  let lock_wait t =
    if t.can_sleep then begin
      t.waiting <- true;
      E.assert_wait t.event;
      Slock.unlock t.interlock;
      ignore (E.thread_block ());
      Slock.lock t.interlock
    end
    else begin
      Slock.unlock t.interlock;
      Ev.wait_begin t.site;
      M.spin_pause ();
      Slock.lock t.interlock;
      Ev.wait_end t.site
    end

  (* Wake every thread blocked on the lock (Mach's wakeup is broadcast).
     Caller holds the interlock. *)
  let lock_wakeup t =
    if t.waiting then begin
      t.waiting <- false;
      ignore (E.thread_wakeup t.event)
    end

  let lock_write t =
    Slock.lock t.interlock;
    if self_is t t.writer && is_recursive_holder t then begin
      (* Recursive write acquisition. *)
      t.recursion_depth <- t.recursion_depth + 1;
      Slock.unlock t.interlock
    end
    else begin
      (if self_is t t.writer then begin
         Slock.unlock t.interlock;
         M.fatal
           (Printf.sprintf
              "complex lock %s: write re-acquisition without the Recursive \
               option (deadlock)"
              t.lname)
       end);
      Ev.attempt t.site;
      let t0 = M.now_cycles () in
      (* The writer observed when the wait began, for blocked-by
         attribution (reader crowds have no single holder to blame, so
         only writer holds attribute). *)
      let blocker = t.writer in
      let waits = ref 0 in
      (* Claim the writer slot: wait out other writers and upgraders. *)
      while t.want_write || t.want_upgrade do
        incr waits;
        lock_wait t
      done;
      t.want_write <- true;
      (* Drain readers; defer to a pending upgrade (upgrades are favored
         over writes to avoid deadlocked upgrades, section 4). *)
      while t.read_count > 0 || t.want_upgrade do
        incr waits;
        lock_wait t
      done;
      t.writer <- Some (M.self ());
      t.write_acquired_at <- M.now_cycles ();
      Ev.acquired ?blocker t.site ~spins:!waits
        ~wait_cycles:(if !waits > 0 then Int.max 0 (M.now_cycles () - t0) else 0);
      bump_spin_held t 1;
      Slock.unlock t.interlock
    end

  let lock_read t =
    Slock.lock t.interlock;
    if is_recursive_holder t then begin
      (* The recursive holder's requests are not blocked by pending write
         or upgrade requests (section 4). *)
      t.read_count <- t.read_count + 1;
      t.recursive_reads <- t.recursive_reads + 1;
      Slock.unlock t.interlock
    end
    else begin
      let excluded () =
        if t.writers_priority then t.want_write || t.want_upgrade
        else Option.is_some t.writer
      in
      Ev.attempt t.site;
      let t0 = M.now_cycles () in
      let blocker = t.writer in
      let waits = ref 0 in
      while excluded () do
        incr waits;
        lock_wait t
      done;
      t.read_count <- t.read_count + 1;
      Ev.acquired ?blocker t.site ~spins:!waits
        ~wait_cycles:(if !waits > 0 then Int.max 0 (M.now_cycles () - t0) else 0);
      bump_spin_held t 1;
      Slock.unlock t.interlock
    end

  let lock_read_to_write t =
    Slock.lock t.interlock;
    if is_recursive_holder t then begin
      Slock.unlock t.interlock;
      M.fatal
        (Printf.sprintf
           "complex lock %s: upgrade of a recursive read acquisition is \
            prohibited (section 4)"
           t.lname)
    end;
    t.read_count <- t.read_count - 1;
    if t.want_upgrade then begin
      (* Another upgrade is pending: fail, releasing the read lock. *)
      if t.read_count = 0 then lock_wakeup t;
      bump_spin_held t (-1);
      Ev.released t.site ~held_cycles:Ev.untimed;
      Slock.unlock t.interlock;
      true
    end
    else begin
      t.want_upgrade <- true;
      while t.read_count > 0 do
        lock_wait t
      done;
      t.writer <- Some (M.self ());
      t.write_acquired_at <- M.now_cycles ();
      Slock.unlock t.interlock;
      false
    end

  let lock_write_to_read t =
    Slock.lock t.interlock;
    if not (self_is t t.writer) then begin
      Slock.unlock t.interlock;
      M.fatal
        (Printf.sprintf "complex lock %s: downgrade by non-writer" t.lname)
    end;
    if t.recursion_depth > 0 then begin
      Slock.unlock t.interlock;
      M.fatal
        (Printf.sprintf
           "complex lock %s: downgrade with %d recursive write \
            acquisition(s) outstanding"
           t.lname t.recursion_depth)
    end;
    t.read_count <- t.read_count + 1;
    if t.want_upgrade then t.want_upgrade <- false
    else t.want_write <- false;
    t.writer <- None;
    (* The write portion of the hold ends here; the (untimed) read hold
       keeps the held entry and the span. *)
    Ev.downgraded ~held_cycles:(Int.max 0 (M.now_cycles () - t.write_acquired_at));
    lock_wakeup t;
    Slock.unlock t.interlock

  let lock_done t =
    Slock.lock t.interlock;
    if t.read_count > 0 then begin
      t.read_count <- t.read_count - 1;
      if is_recursive_holder t && t.recursive_reads > 0 then
        (* A recursive read release: the matching acquisition did not count
           towards the spin-held balance. *)
        t.recursive_reads <- t.recursive_reads - 1
      else begin
        bump_spin_held t (-1);
        Ev.released t.site ~held_cycles:Ev.untimed
      end
    end
    else if self_is t t.writer && t.recursion_depth > 0 then
      t.recursion_depth <- t.recursion_depth - 1
    else if t.want_upgrade || t.want_write then begin
      if t.want_upgrade then t.want_upgrade <- false
      else t.want_write <- false;
      t.writer <- None;
      bump_spin_held t (-1);
      Ev.released t.site
        ~held_cycles:(Int.max 0 (M.now_cycles () - t.write_acquired_at))
    end
    else begin
      Slock.unlock t.interlock;
      M.fatal (Printf.sprintf "complex lock %s: lock_done while free" t.lname)
    end;
    lock_wakeup t;
    Slock.unlock t.interlock

  let lock_try_read t =
    Slock.lock t.interlock;
    let ok =
      if is_recursive_holder t then begin
        (* Counted as [lock_read] counts it, so the matching [lock_done]
           takes the recursive-read release path. *)
        t.read_count <- t.read_count + 1;
        t.recursive_reads <- t.recursive_reads + 1;
        true
      end
      else if
        if t.writers_priority then t.want_write || t.want_upgrade
        else Option.is_some t.writer
      then false
      else begin
        t.read_count <- t.read_count + 1;
        Ev.acquired t.site ~spins:0 ~wait_cycles:0;
        bump_spin_held t 1;
        true
      end
    in
    Slock.unlock t.interlock;
    ok

  let lock_try_write t =
    Slock.lock t.interlock;
    let ok =
      if self_is t t.writer && is_recursive_holder t then begin
        t.recursion_depth <- t.recursion_depth + 1;
        true
      end
      else if t.want_write || t.want_upgrade || t.read_count > 0 then false
      else begin
        t.want_write <- true;
        t.writer <- Some (M.self ());
        t.write_acquired_at <- M.now_cycles ();
        Ev.acquired t.site ~spins:0 ~wait_cycles:0;
        bump_spin_held t 1;
        true
      end
    in
    Slock.unlock t.interlock;
    ok

  let lock_try_read_to_write t =
    Slock.lock t.interlock;
    if t.want_upgrade then begin
      (* Would deadlock against the pending upgrade: refuse without
         dropping the read lock (Appendix B.3). *)
      Slock.unlock t.interlock;
      false
    end
    else begin
      t.read_count <- t.read_count - 1;
      t.want_upgrade <- true;
      (* May wait for other readers to drop the lock. *)
      while t.read_count > 0 do
        lock_wait t
      done;
      t.writer <- Some (M.self ());
      t.write_acquired_at <- M.now_cycles ();
      Slock.unlock t.interlock;
      true
    end

  let lock_sleepable t can_sleep =
    Slock.lock t.interlock;
    t.can_sleep <- can_sleep;
    Slock.unlock t.interlock

  let lock_set_recursive t =
    Slock.lock t.interlock;
    if not (self_is t t.writer) then begin
      Slock.unlock t.interlock;
      M.fatal
        (Printf.sprintf
           "complex lock %s: lock_set_recursive requires the lock held for \
            write (Appendix B.4)"
           t.lname)
    end;
    t.recursive_holder <- Some (M.self ());
    Slock.unlock t.interlock

  let lock_clear_recursive t =
    Slock.lock t.interlock;
    if not (is_recursive_holder t) then begin
      Slock.unlock t.interlock;
      M.fatal
        (Printf.sprintf
           "complex lock %s: lock_clear_recursive by a thread that did not \
            set it"
           t.lname)
    end;
    if t.recursion_depth > 0 then begin
      Slock.unlock t.interlock;
      M.fatal
        (Printf.sprintf
           "complex lock %s: lock_clear_recursive with %d recursive write \
            acquisition(s) outstanding"
           t.lname t.recursion_depth)
    end;
    (* Outstanding recursive reads would be released down the ordinary
       read path once the holder is cleared, dropping the write's
       spin-held count and held entry early. *)
    if t.recursive_reads > 0 then begin
      Slock.unlock t.interlock;
      M.fatal
        (Printf.sprintf
           "complex lock %s: lock_clear_recursive with %d recursive read \
            acquisition(s) outstanding"
           t.lname t.recursive_reads)
    end;
    t.recursive_holder <- None;
    Slock.unlock t.interlock

  let with_read t f =
    lock_read t;
    match f () with
    | v ->
        lock_done t;
        v
    | exception e ->
        lock_done t;
        raise e

  let with_write t f =
    lock_write t;
    match f () with
    | v ->
        lock_done t;
        v
    | exception e ->
        lock_done t;
        raise e

  let name t = t.lname

  let read_count t =
    Slock.with_lock t.interlock (fun () -> t.read_count)

  let held_for_write t =
    Slock.with_lock t.interlock (fun () -> Option.is_some t.writer)

  let held_for_write_by_self t =
    Slock.with_lock t.interlock (fun () -> self_is t t.writer)

  let pending_write_request t =
    Slock.with_lock t.interlock (fun () -> t.want_write)

  let pending_upgrade t =
    Slock.with_lock t.interlock (fun () -> t.want_upgrade)

  let can_sleep t = t.can_sleep

  let set_writers_priority t b =
    Slock.lock t.interlock;
    t.writers_priority <- b;
    (* Waiting readers may now be admissible. *)
    lock_wakeup t;
    Slock.unlock t.interlock
end
