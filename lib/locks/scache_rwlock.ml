(* scache-style distributed readers/writer lock.

   The verified-betrfs scache slice (SNIPPETS.md; ROADMAP item 4) ships
   the production form of the paper's dual-refcount memory objects:
   per-cpu atomic refcount slots, an [ExcLockPending] writer sweep that
   waits for every slot to drain, and an explicit acquisition state
   machine.  This module generalizes our {!Brlock} into that protocol.

   Acquisition states (the names are the scache protocol's own):

     reader:  ReadPending  --inc own slot-->  ReadCounted
              ReadCounted  --exc is Free-->   Obtained
              ReadCounted  --exc raised-->    back out (dec), wait, retry
     writer:  spin on the FIFO ticket gate until granted
              Free --CAS--> ExcLockPending    (announce; new readers defer)
              sweep every slot to zero        (drain ReadCounted readers)
              ExcLockPending --> ExcLockObtained

   Two deliberate differences from {!Brlock}:

   - Writers queue on a ticket/grant cell pair instead of racing a
     test-and-set flag, so writer admission is FIFO and release is an
     explicit handoff store to the next ticket — which makes it a fault
     surface: [M.handoff_fault] can drop the grant store when a
     successor is queued, stranding it in a local spin on a lock nobody
     holds (the "lost handoff" the deadlock analyzer reports).

   - The writer announce is a compare-and-swap [Free -> ExcLockPending]
     that can only be attempted by the granted ticket holder, so it
     failing is a protocol-invariant violation ([M.fatal]), not a retry
     — exactly the kind of claim the lib/mc matrix checks exhaustively.

   Slot identity follows brlock: the slot is chosen by the cpu at
   read-lock time and returned as a token so the matching decrement hits
   the same slot even if the thread migrated (kernels disable preemption
   here; the simulator cannot). *)

module Obs_metrics = Mach_obs.Obs_metrics
module Waits_for = Mach_core.Waits_for
module Lock_events = Mach_core.Lock_events

module Make (M : Mach_core.Machine_intf.MACHINE) = struct
  module Ev = Lock_events.Make (M)

  (* Cycles a writer spends sweeping reader slots, across all scache
     locks of this machine. *)
  let h_sweep = Obs_metrics.histogram "lock.scache.sweep_spins"
  let m_handoffs = Obs_metrics.counter "lock.scache.handoffs"
  let m_dropped = Obs_metrics.counter "lock.scache.handoffs_dropped"

  (* The [exc] cell holds the writer-side state machine. *)
  let free = 0
  let exc_lock_pending = 1
  let exc_lock_obtained = 2

  type t = {
    sname : string;
    refcounts : M.Cell.t array; (* per-cpu reader refcount slots *)
    exc : M.Cell.t; (* Free / ExcLockPending / ExcLockObtained *)
    wticket : M.Cell.t; (* next writer ticket to hand out *)
    wgrant : M.Cell.t; (* ticket currently admitted to [exc] *)
    mutable holder_ticket : int; (* granted ticket, acquire -> release *)
    mutable write_acquired_at : int; (* cycle clock at a raw write grant *)
    rsite : Lock_events.site;
    wsite : Lock_events.site;
  }

  let proto_name = "scache"

  (* Same ceiling and mod-slot policy as brlock: same-slot sharing is a
     contention cost, never an error. *)
  let n_slots = 64
  let next_id = Atomic.make 0

  (* The raw read and write sides report lock events as two sites
     (their costs differ by design) over one waits-for resource, whose
     uid offset keeps it disjoint from Simple_lock's.  {!Writer} does
     not report: Simple_lock reports for it. *)
  let wf_uid_base = 1_000_000

  (* The slot cells' name suffixes, ".rc0" .. ".rc63", built once: a
     model-checking pass makes a fresh lock at every execution. *)
  let rc_suffix = Array.init n_slots (fun i -> ".rc" ^ string_of_int i)

  let make ~name =
    let uid = wf_uid_base + Atomic.fetch_and_add next_id 1 in
    let res = Waits_for.Slock { uid; name } in
    {
      sname = name;
      refcounts =
        Array.init n_slots (fun i ->
            M.Cell.make ~name:(name ^ rc_suffix.(i)) 0);
      exc = M.Cell.make ~name:(name ^ ".exc") free;
      wticket = M.Cell.make ~name:(name ^ ".wticket") 0;
      wgrant = M.Cell.make ~name:(name ^ ".wgrant") 0;
      holder_ticket = 0;
      write_acquired_at = 0;
      rsite = Lock_events.site ~name:(name ^ ".read") res;
      wsite = Lock_events.site ~name:(name ^ ".write") res;
    }

  (* Reader acquisition: ReadPending -> ReadCounted -> Obtained, with
     the ReadCounted -> back-out transition when a writer has announced.
     Readers defer during both ExcLockPending (so the sweep terminates:
     each reader pulses its slot at most once per write) and
     ExcLockObtained (the write is in progress). *)
  type read_phase = Read_pending | Read_counted | Obtained of int

  let read_lock t =
    Ev.attempt t.rsite;
    let slot = M.current_cpu () mod n_slots in
    let mine = t.refcounts.(slot) in
    let t0 = M.now_cycles () in
    let spins = ref 0 in
    let rec step phase =
      match phase with
      | Read_pending ->
          ignore (M.Cell.fetch_and_add mine 1);
          step Read_counted
      | Read_counted ->
          if M.Cell.get t.exc = free then step (Obtained slot)
          else begin
            (* Back out and let the writer's sweep drain; wait for the
               exclusive side to clear before re-entering ReadPending. *)
            ignore (M.Cell.fetch_and_add mine (-1));
            incr spins;
            Ev.wait_begin t.rsite;
            spins := !spins + M.Cell.await t.exc (fun v -> v = free);
            Ev.wait_end t.rsite;
            step Read_pending
          end
      | Obtained slot -> slot
    in
    let slot = step Read_pending in
    Ev.acquired t.rsite ~spins:!spins
      ~wait_cycles:(if !spins > 0 then max 0 (M.now_cycles () - t0) else 0);
    slot

  (* Read holds are untimed: the slot token carries no clock. *)
  let read_unlock t ~slot =
    Ev.released t.rsite;
    ignore (M.Cell.fetch_and_add t.refcounts.(slot) (-1))

  let write_acquire t =
    (* FIFO admission: take a ticket, spin until granted. *)
    let my = M.Cell.fetch_and_add t.wticket 1 in
    let spins = M.Cell.await t.wgrant (fun g -> g = my) in
    (* Announce: Free -> ExcLockPending.  Only the granted ticket holder
       reaches this CAS, and the previous writer restored Free before
       granting, so failure is a protocol violation, not contention. *)
    if
      not (M.Cell.compare_and_swap t.exc ~expected:free ~desired:exc_lock_pending)
    then
      M.fatal
        (Printf.sprintf
           "scache %s: exc not Free at granted ticket %d (protocol invariant)"
           t.sname my);
    (* Sweep: wait for every refcount slot to drain.  New readers see
       ExcLockPending and back out, so each slot's count is monotonically
       pulsing toward zero. *)
    let sweep = ref 0 in
    for i = 0 to n_slots - 1 do
      sweep := !sweep + M.Cell.await t.refcounts.(i) (fun n -> n = 0)
    done;
    M.Cell.set t.exc exc_lock_obtained;
    t.holder_ticket <- my;
    Obs_metrics.observe ~cpu:(M.current_cpu ()) h_sweep !sweep;
    spins + !sweep

  let write_release t =
    let next = t.holder_ticket + 1 in
    M.Cell.set t.exc free;
    (* Release is an explicit handoff: grant the next ticket.  When a
       successor is already queued the store is a droppable handoff
       (chaos: the successor spins on [wgrant] which nobody will ever
       advance — a lost handoff). *)
    let successor_queued = M.Cell.get t.wticket <> next in
    if successor_queued && M.handoff_fault () then
      Obs_metrics.incr ~cpu:(M.current_cpu ()) m_dropped
    else begin
      if successor_queued then
        Obs_metrics.incr ~cpu:(M.current_cpu ()) m_handoffs;
      M.Cell.set t.wgrant next
    end

  let write_lock t =
    Ev.attempt t.wsite;
    let t0 = M.now_cycles () in
    Ev.wait_begin t.wsite;
    let spins = write_acquire t in
    Ev.wait_end t.wsite;
    t.write_acquired_at <- M.now_cycles ();
    Ev.acquired t.wsite ~spins
      ~wait_cycles:(if spins > 0 then max 0 (M.now_cycles () - t0) else 0);
    spins

  let write_unlock t =
    Ev.released t.wsite
      ~held_cycles:(max 0 (M.now_cycles () - t.write_acquired_at));
    write_release t

  let with_read t f =
    let slot = read_lock t in
    match f () with
    | v ->
        read_unlock t ~slot;
        v
    | exception e ->
        read_unlock t ~slot;
        raise e

  let with_write t f =
    ignore (write_lock t);
    match f () with
    | v ->
        write_unlock t;
        v
    | exception e ->
        write_unlock t;
        raise e

  let is_locked t =
    M.Cell.get t.exc <> free
    || M.Cell.get t.wticket <> M.Cell.get t.wgrant
    || Array.exists (fun r -> M.Cell.get r <> 0) t.refcounts

  (* The writer side alone satisfies {!Mach_core.Lock_proto.S}, so
     Simple_lock/Complex_lock can instantiate the protocol.  Simple_lock
     reports the lock events on this path. *)
  module Writer = struct
    type nonrec t = t

    let proto_name = proto_name
    let make ~name = make ~name
    let acquire = write_acquire

    (* Non-barging: only succeeds when no ticket is outstanding, by
       taking the front ticket with a CAS.  A failed sweep backs out by
       restoring Free and granting our own (now burned) ticket. *)
    let try_acquire t =
      let g = M.Cell.get t.wgrant in
      M.Cell.get t.wticket = g
      && M.Cell.compare_and_swap t.wticket ~expected:g ~desired:(g + 1)
      && begin
           if
             not
               (M.Cell.compare_and_swap t.exc ~expected:free
                  ~desired:exc_lock_pending)
           then
             M.fatal
               (Printf.sprintf
                  "scache %s: exc not Free at granted ticket %d (protocol \
                   invariant)"
                  t.sname g);
           let clear = ref true in
           for i = 0 to n_slots - 1 do
             if M.Cell.get t.refcounts.(i) <> 0 then clear := false
           done;
           if !clear then begin
             M.Cell.set t.exc exc_lock_obtained;
             t.holder_ticket <- g;
             true
           end
           else begin
             M.Cell.set t.exc free;
             M.Cell.set t.wgrant (g + 1);
             false
           end
         end

    let release = write_release
    let is_locked = is_locked
  end
end
