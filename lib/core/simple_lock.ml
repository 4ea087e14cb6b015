module Make (M : Machine_intf.MACHINE) = struct
  module S = Spin.Make (M)
  module Ev = Lock_events.Make (M)

  (* A lock spins either on one flat cell via a {!Spin} protocol (the
     tas/ttas family) or on protocol-private state behind a packed
     {!Lock_proto.instance} (the lib/locks queue locks).  Everything
     above the spin — checking and lock events — is shared. *)
  type impl =
    | Flat of { cell : M.Cell.t; protocol : Spin.protocol }
    | Queued of Lock_proto.instance

  type t = {
    id : int;
    impl : impl;
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

  let make ?name ?(protocol = Spin.Tas_then_ttas) ?proto ?spl () =
    let id = Atomic.fetch_and_add next_id 1 in
    let lname =
      match name with Some n -> n | None -> Printf.sprintf "slock%d" id
    in
    let impl =
      match proto with
      | Some f -> Queued (Lock_proto.make f ~name:lname)
      | None -> Flat { cell = M.Cell.make ~name:lname 0; protocol }
    in
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

  let protocol_name t =
    match t.impl with
    | Flat { protocol; _ } -> Spin.protocol_name protocol
    | Queued q -> Lock_proto.proto_name q

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
      let spins =
        match t.impl with
        | Flat { cell; protocol } -> S.acquire protocol cell
        | Queued q -> Lock_proto.acquire q
      in
      Ev.wait_end t.site;
      let wait_cycles = if spins > 0 then max 0 (M.now_cycles () - t0) else 0 in
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
      let held_cycles = max 0 (M.now_cycles () - t.acquired_at) in
      note_released t;
      (match t.impl with
      | Flat { cell; _ } -> S.release cell
      | Queued q -> Lock_proto.release q);
      Ev.released t.site ~held_cycles
    end

  let try_lock t =
    if Atomic.get uniprocessor then true
    else begin
      let ok =
        match t.impl with
        | Flat { cell; _ } -> S.try_acquire cell
        | Queued q -> Lock_proto.try_acquire q
      in
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

  let is_locked t =
    match t.impl with
    | Flat { cell; _ } -> M.Cell.get cell <> 0
    | Queued q -> Lock_proto.is_locked q
  let holder t = t.holder

  let held_by_self t =
    match t.holder with
    | Some h -> M.equal_thread h (M.self ())
    | None -> false

  let name t = t.lname
  let uid t = t.id
end
