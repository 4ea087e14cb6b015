(* MCS queue lock (Mellor-Crummey & Scott, 1991).

   Waiters form an explicit queue: an acquire swaps its qnode's id into
   the lock's [tail] and, if there was a predecessor, links behind it and
   spins on its OWN qnode's [go] cell.  That cell is written exactly once
   — by the predecessor's release — so a waiter's spin loop runs entirely
   out of its local cache: zero bus transactions until the handoff store
   invalidates it.  This is the protocol's whole point, and it is visible
   directly in the simulator's [bus-txns] column (E15).

   Qnodes.  The canonical kernel implementation spins on a per-CPU qnode;
   in the simulator threads outnumber cpus and can be preempted (or
   chaos-migrated) mid-spin, so per-CPU reuse would let two waiters share
   a node.  Instead each lock preallocates a circular pool of qnodes and
   acquires allocate slots round-robin.  Preallocation also keeps cell
   identities independent of the schedule, which the model checker's
   footprint comparison (lib/mc) relies on; the pool index lives in an
   ordinary OCaml [Atomic] because it is bookkeeping (the analogue of
   "my qnode's address"), not simulated shared memory.  A slot is in
   flight from acquire to consumed handoff, so the pool bounds concurrent
   *threads* per lock, not total acquisitions: [pool_size] must exceed
   the thread count, which 128 does for every workload here (the
   simulator tops out at 64 cpus).

   The explicit handoff is also a new fault surface: [M.handoff_fault]
   lets the chaos layer drop the [go] store, stranding the successor in a
   local spin on a lock nobody holds — the queue-lock analogue of the
   paper's section 6 lost wakeup, reported by the deadlock analyzer as a
   "lost handoff". *)

module Obs_metrics = Mach_obs.Obs_metrics

module Make (M : Mach_core.Machine_intf.MACHINE) = struct
  (* Explicit-handoff count across every MCS lock of this machine. *)
  let m_handoffs = Obs_metrics.counter "lock.handoffs"
  let m_dropped = Obs_metrics.counter "lock.handoffs_dropped"

  type qnode = {
    go : M.Cell.t; (* 0 = granted; written once, by the predecessor *)
    next : M.Cell.t; (* successor's qnode id; 0 = none yet *)
  }

  type t = {
    tail : M.Cell.t; (* qnode id of the last waiter; 0 = free *)
    pool : qnode array; (* slot for qnode id q is pool.(q - 1) *)
    alloc : int Atomic.t;
    mutable holder : int; (* holder's qnode id, acquire -> release *)
  }

  let proto_name = "mcs"
  let pool_size = 128

  (* The qnode cells' name suffixes, ".q0.go" and ".q0.next" on, built
     once. *)
  let q_suffix field =
    Array.init pool_size (fun i -> ".q" ^ string_of_int i ^ field)

  let go_suffix = q_suffix ".go"
  let next_suffix = q_suffix ".next"

  let make ~name =
    {
      tail = M.Cell.make ~name:(name ^ ".tail") 0;
      pool =
        Array.init pool_size (fun i ->
            {
              go = M.Cell.make ~name:(name ^ go_suffix.(i)) 0;
              next = M.Cell.make ~name:(name ^ next_suffix.(i)) 0;
            });
      alloc = Atomic.make 0;
      holder = 0;
    }

  let node t qid = t.pool.(qid - 1)

  let fresh_qnode t =
    let qid = (Atomic.fetch_and_add t.alloc 1 mod pool_size) + 1 in
    (* Reset the link before publishing the id via the tail swap; [go] is
       only raised on the contended path, after the swap reveals a
       predecessor, so the uncontended acquire is set + swap. *)
    M.Cell.set (node t qid).next 0;
    qid

  let acquire t =
    let qid = fresh_qnode t in
    let qn = node t qid in
    let pred = M.Cell.swap t.tail qid in
    let spins =
      if pred = 0 then 0
      else begin
        M.Cell.set qn.go 1;
        M.Cell.set (node t pred).next qid;
        1 + M.Cell.await qn.go (fun go -> go = 0)
      end
    in
    t.holder <- qid;
    spins

  let try_acquire t =
    M.Cell.get t.tail = 0
    && begin
         (* A failed race burns the slot, but an unpublished slot is dead
            (never linked, never spun on), so pool reuse stays safe. *)
         let qid = fresh_qnode t in
         M.Cell.compare_and_swap t.tail ~expected:0 ~desired:qid
         && begin
              t.holder <- qid;
              true
            end
       end

  let handoff t qn =
    let succ = M.Cell.get qn.next in
    if M.handoff_fault () then
      Obs_metrics.incr ~cpu:(M.current_cpu ()) m_dropped
    else begin
      Obs_metrics.incr ~cpu:(M.current_cpu ()) m_handoffs;
      M.Cell.set (node t succ).go 0
    end

  let release t =
    let qid = t.holder in
    let qn = node t qid in
    if M.Cell.get qn.next <> 0 then handoff t qn
    else if M.Cell.compare_and_swap t.tail ~expected:qid ~desired:0 then ()
    else begin
      (* A successor swapped itself in but has not linked yet; wait for
         the link, then hand off. *)
      ignore (M.Cell.await qn.next (fun next -> next <> 0));
      handoff t qn
    end

  let is_locked t = M.Cell.get t.tail <> 0
end
