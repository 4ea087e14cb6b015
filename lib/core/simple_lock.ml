module Make (M : Machine_intf.MACHINE) = struct
  module Ev = Lock_events.Make (M)
  module Spin = Spin.Make (M)

  type t = {
    id : int;
    impl : Lock_proto.instance;
    lname : string;
    site : Lock_events.site;
    mutable holder : M.thread option;
    (* Last thread to acquire, NOT cleared on release: a contended
       acquisition that began while the lock was momentarily free (the
       holder released while we were between the snapshot and the first
       test) still attributes its wait to the thread it actually spun
       behind. *)
    mutable last_holder : M.thread option;
    mutable acquired_spl : Spl.t option; (* learned or pinned level *)
    mutable acquired_at : int; (* cycle clock at acquisition *)
  }

  (* Domain-local, inherited by a spawned domain: a simulated run (and
     the unwinding of its fibers at the end) switches it only for the
     runs of its own domain. *)
  let checking_flag =
    Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> true)

  let uniprocessor = Atomic.make false
  let set_checking b = Domain.DLS.set checking_flag b
  let checking () = Domain.DLS.get checking_flag
  let set_uniprocessor b = Atomic.set uniprocessor b

  let next_id = Atomic.make 0

  let make ?name ?(proto = Spin.tas_then_ttas) ?spl () =
    let id = Atomic.fetch_and_add next_id 1 in
    let lname =
      match name with Some n -> n | None -> Printf.sprintf "slock%d" id
    in
    let impl = Lock_proto.make proto ~name:lname in
    {
      id;
      impl;
      lname;
      site =
        Lock_events.site ~name:lname
          (Waits_for.Slock { uid = id; name = lname });
      holder = None;
      last_holder = None;
      acquired_spl = spl;
      acquired_at = 0;
    }

  let bump_held delta =
    let ctx = M.context (M.self ()) in
    ctx.simple_locks_held <- ctx.simple_locks_held + delta

  (* At the attempt: a handler spinning on a lock its interrupted thread
     holds never acquires it. *)
  let check_spl t =
    let spl = M.get_spl () in
    match t.acquired_spl with
    | None -> t.acquired_spl <- Some spl
    | Some expected ->
        if not (Spl.equal expected spl) then
          (if checking () then M.fatal else Mach_obs.Obs_profile.note_finding)
            (Printf.sprintf
               "simple lock %s: acquired at %s but pinned/first acquired at \
                %s (same-spl rule, paper section 7)"
               t.lname (Spl.to_string spl) (Spl.to_string expected))

  let note_acquired t =
    t.acquired_at <- M.now_cycles ();
    if checking () then begin
      t.holder <- Some (M.self ());
      t.last_holder <- t.holder;
      bump_held 1
    end

  let note_released t =
    if checking () then begin
      (match t.holder with
      | Some h when M.equal_thread h (M.self ()) -> ()
      | Some h ->
          M.fatal
            (Printf.sprintf "simple lock %s: unlocked by %s but held by %s"
               t.lname
               (M.thread_name (M.self ()))
               (M.thread_name h))
      | None ->
          M.fatal (Printf.sprintf "simple lock %s: unlock while free" t.lname));
      t.holder <- None;
      bump_held (-1)
    end

  let lock t =
    if not (Atomic.get uniprocessor) then begin
      (if checking () then
         match t.holder with
         | Some h when M.equal_thread h (M.self ()) ->
             M.fatal
               (Printf.sprintf
                  "simple lock %s: recursive acquisition by %s (simple locks \
                   never permit recursion)"
                  t.lname
                  (M.thread_name h))
         | _ -> ());
      check_spl t;
      Ev.attempt t.site;
      let t0 = M.now_cycles () in
      (* [blocker] is the holder observed when the wait began: contended
         acquisitions attribute their wait to that holder's acquire site
         (the span enclosing its hold). *)
      let blocker = t.holder in
      Ev.wait_begin t.site;
      let spins = Lock_proto.acquire t.impl in
      Ev.wait_end t.site;
      let wait_cycles = if spins > 0 then Int.max 0 (M.now_cycles () - t0) else 0 in
      (* A contended wait whose entry snapshot missed the holder (it
         released before our first test) still spun behind SOMEBODY:
         [last_holder] is whoever held the lock during the final wait
         segment — read before [note_acquired] overwrites it with us. *)
      let blocker =
        match blocker with
        | Some _ -> blocker
        | None when spins > 0 -> (
            match t.last_holder with
            | Some h when not (M.equal_thread h (M.self ())) -> Some h
            | _ -> None)
        | None -> None
      in
      Ev.acquired ?blocker t.site ~spins ~wait_cycles;
      note_acquired t
    end

  let unlock t =
    if not (Atomic.get uniprocessor) then begin
      let held_cycles = Int.max 0 (M.now_cycles () - t.acquired_at) in
      note_released t;
      Lock_proto.release t.impl;
      Ev.released t.site ~held_cycles
    end

  let try_lock t =
    if Atomic.get uniprocessor then true
    else begin
      let ok = Lock_proto.try_acquire t.impl in
      if ok then begin
        check_spl t;
        Ev.acquired t.site ~spins:0 ~wait_cycles:0;
        note_acquired t
      end;
      ok
    end

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e

  let is_locked t = Lock_proto.is_locked t.impl
  let holder t = t.holder

  let held_by_self t =
    match t.holder with
    | Some h -> M.equal_thread h (M.self ())
    | None -> false

  let name t = t.lname
  let uid t = t.id
end
