module Obs_trace = Mach_obs.Obs_trace
module Obs_event = Mach_obs.Obs_event

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M))
    (E : module type of Event.Make (M) (Slock)) =
struct
  type t = { cell : M.Cell.t; rname : string }

  (* Domain-local and inherited, as {!Simple_lock}'s switch. *)
  let checking_flag =
    Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> true)

  let set_checking b = Domain.DLS.set checking_flag b
  let checking () = Domain.DLS.get checking_flag

  let next_id = Atomic.make 0

  let make ?name () =
    let id = Atomic.fetch_and_add next_id 1 in
    let rname =
      match name with Some n -> n | None -> Printf.sprintf "ref%d" id
    in
    { cell = M.Cell.make ~name:rname 1; rname }

  let clone t =
    let old = M.Cell.fetch_and_add t.cell 1 in
    if old <= 0 && checking () then
      M.fatal
        (Printf.sprintf
           "refcount %s: clone with count %d — cloning requires an existing \
            reference (section 8)"
           t.rname old)

  let check_release_context t =
    if checking () then begin
      let ctx = M.context (M.self ()) in
      if ctx.simple_locks_held > 0 then
        M.fatal
          (Printf.sprintf
             "refcount %s: release while holding simple lock(s) — releasing \
              may block (section 8); locks held: %s"
             t.rname
             (Thread_ctx.describe_holds ctx));
      if ctx.complex_spin_locks_held > 0 then
        M.fatal
          (Printf.sprintf
             "refcount %s: release while holding non-sleep complex lock(s) \
              (section 8); locks held: %s"
             t.rname
             (Thread_ctx.describe_holds ctx));
      if ctx.in_assert_wait then
        M.fatal
          (Printf.sprintf
             "refcount %s: release between assert_wait and thread_block — \
              destruction would assert_wait a second time, which is fatal \
              (section 8)"
             t.rname)
    end

  let drop t =
    let old = M.Cell.fetch_and_add t.cell (-1) in
    (* Underflow detection is NOT gated on checking mode: a release
       without a matching reference silently wraps the count negative and
       every later release frees an object still in use.  Context checks
       (locks held across release) stay debug-only, but an underflowed
       count is corruption already in progress and always fatal. *)
    if old <= 0 then
      M.fatal
        (Printf.sprintf "refcount %s: release with count %d (double free)"
           t.rname old);
    if Obs_trace.enabled () then
      Obs_trace.emit (Obs_event.Refcount_drop { name = t.rname; count = old - 1 });
    old

  let release t =
    check_release_context t;
    if drop t = 1 then `Last else `Live

  let release_not_last t =
    let old = drop t in
    if old = 1 then
      M.fatal
        (Printf.sprintf
           "refcount %s: release_not_last dropped the final reference"
           t.rname)

  let count t = M.Cell.get t.cell
  let name t = t.rname

  module Gated = struct
    type g = {
      object_lock : Slock.t;
      event : E.event;
      gname : string;
      mutable in_progress : int;
      mutable closed : bool;
      mutable drain_waiting : bool;
    }

    let make ?name ~object_lock () =
      let gname = match name with Some n -> n | None -> "gated" in
      {
        object_lock;
        event = E.fresh_event ();
        gname;
        in_progress = 0;
        closed = false;
        drain_waiting = false;
      }

    let check_locked g what =
      if Slock.checking () && not (Slock.held_by_self g.object_lock) then
        M.fatal
          (Printf.sprintf
             "gated count %s: %s without holding the object lock" g.gname
             what)

    let enter g =
      check_locked g "enter";
      if g.closed then false
      else begin
        g.in_progress <- g.in_progress + 1;
        true
      end

    let exit g =
      check_locked g "exit";
      if g.in_progress <= 0 then
        M.fatal
          (Printf.sprintf "gated count %s: exit with count %d" g.gname
             g.in_progress);
      g.in_progress <- g.in_progress - 1;
      if g.in_progress = 0 && g.drain_waiting then begin
        g.drain_waiting <- false;
        ignore (E.thread_wakeup g.event)
      end

    let in_progress g = g.in_progress

    let wait_until_zero g =
      check_locked g "wait_until_zero";
      while g.in_progress > 0 do
        g.drain_waiting <- true;
        ignore (E.thread_sleep g.event g.object_lock);
        Slock.lock g.object_lock
      done

    let close_and_drain g =
      check_locked g "close_and_drain";
      g.closed <- true;
      wait_until_zero g

    let reopen g =
      check_locked g "reopen";
      g.closed <- false
  end
end
