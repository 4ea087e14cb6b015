(* Big-reader ("brlock") distributed readers/writer lock.

   One reader-count cell per cpu plus one writer flag.  An uncontended
   read acquisition is a single interlocked increment of the caller's OWN
   per-cpu cell — no shared cache line, no reader-reader bus traffic —
   which is the whole read-mostly win (Kogan et al.'s scalable reader
   locks; Linux's historical brlock).  The price is paid by writers: a
   write acquisition takes the writer flag and then sweeps every per-cpu
   slot, waiting for each to drain to zero.

   Writer preference: a reader that increments its slot and then finds
   the writer flag raised backs out (decrements) and waits for the flag
   to clear before retrying, so a writer's sweep always terminates.

   Slot identity: the slot is chosen by the cpu at read-lock time, and
   the matching decrement MUST hit the same slot even if the thread has
   migrated between lock and unlock (kernels disable preemption here; the
   simulator cannot).  [read_lock] therefore returns the slot index as a
   token that [read_unlock] takes back; [with_read] hides the plumbing.

   Writer fairness: the writer flag is a bare test-and-set, so with two
   or more writers admission is a race the same loser can keep losing —
   and every inter-write gap admits a fresh reader herd the loser must
   then sweep, so its wait grows without bound even though each
   individual sweep terminates.  A FIFO writer-pending gate fixes this:
   a writer that loses the fast path takes a ticket and waits its turn,
   and while any writer is queued ([pending] > 0) new readers hold off
   before counting themselves.  The gate lives in ordinary OCaml
   [Atomic]s, not simulated cells: it is fairness bookkeeping (the
   analogue of the mcs qnode pool index), engaged only on the contended
   multi-writer path, so single-writer workloads execute a byte-identical
   cell-op sequence (the golden determinism rows pin this). *)

module Obs_metrics = Mach_obs.Obs_metrics
module Waits_for = Mach_core.Waits_for
module Lock_events = Mach_core.Lock_events

module Make (M : Mach_core.Machine_intf.MACHINE) = struct
  module Ev = Lock_events.Make (M)

  (* Cycles a writer spends sweeping reader slots, across all brlocks. *)
  let h_sweep = Obs_metrics.histogram "lock.brlock.sweep_spins"

  type t = {
    bname : string;
    readers : M.Cell.t array;
    writer : M.Cell.t;
    (* FIFO writer-pending gate (fairness bookkeeping; see header). *)
    wq_ticket : int Atomic.t;
    wq_grant : int Atomic.t;
    pending : int Atomic.t; (* writers queued but not yet holding *)
    mutable write_acquired_at : int; (* cycle clock at a raw write grant *)
    rsite : Lock_events.site;
    wsite : Lock_events.site;
  }

  let proto_name = "brlock"

  (* Fixed at the simulator's cpu ceiling: hardware cpu ids (domain ids)
     can exceed it over a process lifetime, so slots are taken mod
     [n_slots] — same-slot sharing is a contention cost, never an
     error. *)
  let n_slots = 64

  (* Lock events: the scheme of {!Scache_rwlock}, with its own uids. *)
  let wf_uid_base = 2_000_000
  let next_id = Atomic.make 0

  (* The slot cells' name suffixes, built once. *)
  let r_suffix = Array.init n_slots (fun i -> ".r" ^ string_of_int i)

  let make ~name =
    let uid = wf_uid_base + Atomic.fetch_and_add next_id 1 in
    let res = Waits_for.Slock { uid; name } in
    {
      bname = name;
      readers =
        Array.init n_slots (fun i -> M.Cell.make ~name:(name ^ r_suffix.(i)) 0);
      writer = M.Cell.make ~name:(name ^ ".w") 0;
      wq_ticket = Atomic.make 0;
      wq_grant = Atomic.make 0;
      pending = Atomic.make 0;
      write_acquired_at = 0;
      rsite = Lock_events.site ~name:(name ^ ".read") res;
      wsite = Lock_events.site ~name:(name ^ ".write") res;
    }

  let read_lock t =
    Ev.attempt t.rsite;
    let slot = M.current_cpu () mod n_slots in
    let mine = t.readers.(slot) in
    let t0 = M.now_cycles () in
    let spins = ref 0 in
    let no_writer_queued () = Atomic.get t.pending = 0 in
    let wait spin =
      Ev.wait_begin t.rsite;
      spins := !spins + spin ();
      Ev.wait_end t.rsite
    in
    let rec go () =
      (* Hold off while writers are queued so a reader herd cannot keep
         overtaking a waiting writer (never in the single-writer
         fast-path case: [pending] stays 0). *)
      if Atomic.get t.pending > 0 then
        wait (fun () -> M.spin_until no_writer_queued);
      ignore (M.Cell.fetch_and_add mine 1);
      if M.Cell.get t.writer = 0 then slot
      else begin
        (* Back out and let the writer's sweep drain; retry after. *)
        ignore (M.Cell.fetch_and_add mine (-1));
        incr spins;
        wait (fun () ->
            M.Cell.await t.writer (fun w -> w = 0 && no_writer_queued ()));
        go ()
      end
    in
    let slot = go () in
    Ev.acquired t.rsite ~spins:!spins
      ~wait_cycles:(if !spins > 0 then max 0 (M.now_cycles () - t0) else 0);
    slot

  (* Read holds are untimed: the slot token carries no clock. *)
  let read_unlock t ~slot =
    Ev.released t.rsite;
    ignore (M.Cell.fetch_and_add t.readers.(slot) (-1))

  let write_acquire t =
    (* Take the writer flag (writers exclude each other on it), then
       sweep every per-cpu slot until it drains.  Fast path: no writer
       queued and the flag is free — one test-and-set, exactly the
       pre-gate sequence.  Contended path: queue FIFO on the ticket
       gate; readers defer while [pending] > 0, so the herd cannot
       overtake the queued writers. *)
    let contended_flag () =
      let my = Atomic.fetch_and_add t.wq_ticket 1 in
      Atomic.incr t.pending;
      let turn = 1 + M.spin_until (fun () -> Atomic.get t.wq_grant = my) in
      (* Read until the flag looks free, then test-and-set it. *)
      let rec flag spins =
        let spins = spins + M.Cell.await t.writer (fun w -> w = 0) in
        if M.Cell.test_and_set t.writer = 0 then spins
        else begin
          M.spin_pause ();
          flag (spins + 1)
        end
      in
      let s = flag turn in
      (* Flag in hand: pass the turn to the next queued writer (it will
         contend the flag at our release) and leave the reader gate up
         if — and only if — someone is still queued behind us. *)
      Atomic.incr t.wq_grant;
      Atomic.decr t.pending;
      s
    in
    let spins =
      if
        Atomic.get t.pending = 0
        && M.Cell.get t.writer = 0
        && M.Cell.test_and_set t.writer = 0
      then 0
      else contended_flag ()
    in
    let sweep = ref 0 in
    for i = 0 to n_slots - 1 do
      sweep := !sweep + M.Cell.await t.readers.(i) (fun n -> n = 0)
    done;
    Obs_metrics.observe ~cpu:(M.current_cpu ()) h_sweep !sweep;
    spins + !sweep

  let write_release t = M.Cell.set t.writer 0

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
    M.Cell.get t.writer <> 0
    || Array.exists (fun r -> M.Cell.get r <> 0) t.readers

  (* The writer side alone satisfies {!Mach_core.Lock_proto.S}: useful for
     conformance tests and for instantiating a Simple_lock over the
     brlock's writer path. *)
  module Writer = struct
    type nonrec t = t

    let proto_name = "brlock-writer"
    let make ~name = make ~name
    let acquire = write_acquire

    let try_acquire t =
      Atomic.get t.pending = 0
      && M.Cell.get t.writer = 0
      && M.Cell.test_and_set t.writer = 0
      && begin
           let clear = ref true in
           for i = 0 to n_slots - 1 do
             if M.Cell.get t.readers.(i) <> 0 then clear := false
           done;
           if !clear then true
           else begin
             M.Cell.set t.writer 0;
             false
           end
         end

    let release = write_release
    let is_locked = is_locked
  end
end
