module Obs_metrics = Mach_obs.Obs_metrics
module Obs_trace = Mach_obs.Obs_trace
module Obs_event = Mach_obs.Obs_event
module Obs_span = Mach_obs.Obs_span

type wait_result = Awakened | Cleared | Interrupted | Restart

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) =
struct
  module Spans = Lock_events.Spans (M)

  type event = int

  let h_wait = Obs_metrics.histogram "event.wait_cycles"

  let null_event = 0

  (* A waiter's tag before its first event span. *)
  let no_tag = Obs_span.tag Obs_span.Event ""

  (* Per-thread wait state.  All transitions of [state] and [event] happen
     under the bucket lock of the event involved, except the owner-only
     Woken -> Running reset in [thread_block] (at which point the waiter is
     no longer enqueued, so no other thread touches it). *)
  type waiter = {
    thread : M.thread;
    mutable event : event option;
    mutable state : wstate;
    mutable interruptible : bool;
    mutable wait_started : int; (* cycle clock at assert_wait *)
    mutable tag_event : event; (* the event [tag] names; none at first *)
    mutable tag : Obs_span.tag;
  }

  and wstate = Running | Waiting | Woken of wait_result

  let n_buckets = 64

  (* Built once: the event layer is rebuilt at every run. *)
  let bucket_names = Array.init n_buckets (Printf.sprintf "evt-bucket%d")

  type bucket = { block : Slock.t; mutable waiters : waiter list }

  (* All mutable event state (wait-queue buckets, the waiter registry and
     the id counter) is machine-scoped: thread ids restart at every
     simulation run, so a waiter record or enqueued waiter surviving one
     run would be found — stale — by an unrelated thread of the next run,
     and parallel simulations in other domains must not share the queues
     at all.  A simulated machine lives for one run, so [machine_local]
     gives every run an empty slot, and the layer is rebuilt from scratch
     rather than cleared in place: a run torn down mid-critical-section
     (step limit, model-checker cut) leaves a bucket or registry lock
     held, and merely emptying the queues would hand the next run a lock
     nobody will ever release.

     A bucket's lock is made the first time the bucket is used: most runs
     touch a handful of the 64, and a model-checking search rebuilds the
     layer at every execution that uses events.  Each bucket and the
     layer itself sit in an [Atomic] slot, so two native domains racing
     to build one install a single copy. *)
  type dstate = {
    counter : int Atomic.t; (* native domains draw ids concurrently *)
    buckets : bucket option Atomic.t array;
    registry : (int, waiter) Hashtbl.t;
        (* waiter records, keyed by thread id *)
    registry_lock : Slock.t;
  }

  (* Fill an empty slot with [v], or return what another domain put
     there first. *)
  let install slot v =
    if Atomic.compare_and_set slot None (Some v) then v
    else match Atomic.get slot with Some v -> v | None -> assert false

  (* The layer is built on first use INSIDE the run, not when the slot is
     made: the slot is made during run setup, where a built layer would
     allocate lock cells into the run's footprint id sequence.  Built
     inside the run, every re-execution of a schedule prefix makes the
     same cells in the same order, which the model checker's footprint
     identities rely on. *)
  let dstate_cell = M.machine_local (fun () -> Atomic.make None)

  let dstate () =
    let slot = dstate_cell () in
    match Atomic.get slot with
    | Some s -> s
    | None ->
        install slot
          {
            counter = Atomic.make 1;
            buckets = Array.init n_buckets (fun _ -> Atomic.make None);
            registry = Hashtbl.create 16;
            registry_lock = Slock.make ~name:"evt-registry" ();
          }

  let fresh_event () = Atomic.fetch_and_add (dstate ()).counter 1

  (* splitmix-style mix so that consecutive event ids spread over buckets *)
  let bucket_of ev =
    let h = ev * 0x9E3779B1 in
    let i = (h lxor (h lsr 16)) land (n_buckets - 1) in
    let slot = (dstate ()).buckets.(i) in
    match Atomic.get slot with
    | Some b -> b
    | None ->
        install slot
          { block = Slock.make ~name:bucket_names.(i) (); waiters = [] }

  let waiter_of thread =
    let s = dstate () in
    let tid = M.thread_id thread in
    Slock.with_lock s.registry_lock (fun () ->
        match Hashtbl.find_opt s.registry tid with
        | Some w -> w
        | None ->
            let w =
              {
                thread;
                event = None;
                state = Running;
                interruptible = false;
                wait_started = 0;
                tag_event = null_event;
                tag = no_tag;
              }
            in
            Hashtbl.add s.registry tid w;
            w)

  let my_waiter () = waiter_of (M.self ())

  let waits_on ev w = match w.event with Some e -> e = ev | None -> false
  let is_waiting w = match w.state with Waiting -> true | _ -> false

  (* The span tag of the event [w] waits on.  A thread waits on one
     event again and again (a server on its port, a client on its reply
     port), so the label is built when the event changes. *)
  let span_tag w ev =
    if w.tag_event <> ev then begin
      w.tag <- Obs_span.tag Obs_span.Event ("evt" ^ string_of_int ev);
      w.tag_event <- ev
    end;
    w.tag

  let set_in_assert_wait v = (M.context (M.self ())).in_assert_wait <- v

  let assert_wait ?(interruptible = false) ev =
    let w = my_waiter () in
    (match w.event with
    | Some e ->
        M.fatal
          (Printf.sprintf
             "assert_wait: thread %s already waiting on event %d (second \
              assert_wait before thread_block is fatal)"
             (M.thread_name (M.self ()))
             e)
    | None -> ());
    let b = bucket_of ev in
    Slock.lock b.block;
    w.event <- Some ev;
    w.state <- Waiting;
    w.interruptible <- interruptible;
    w.wait_started <- M.now_cycles ();
    b.waiters <- b.waiters @ [ w ];
    Slock.unlock b.block;
    if Waits_for.tracking () then
      Thread_ctx.note_wait (M.context (M.self ())) (Waits_for.Event { id = ev });
    (* The wait->wake span: closed at the wake in [thread_block] (or at
       [cancel_assert]) with [exit_kind] — the waiter's event slot is
       cleared by then, and a thread has at most one outstanding wait. *)
    if Obs_span.enabled () then Spans.enter (span_tag w ev);
    if Obs_trace.enabled () then
      Obs_trace.emit (Obs_event.Event_wait { event = ev });
    set_in_assert_wait true

  let check_no_simple_locks what =
    if Slock.checking () then begin
      let ctx = M.context (M.self ()) in
      if ctx.simple_locks_held > 0 then
        M.fatal
          (Printf.sprintf
             "%s while holding %d simple lock(s): simple locks may not be \
              held during blocking operations (paper, Appendix A); locks \
              held: %s"
             what ctx.simple_locks_held
             (Thread_ctx.describe_holds ctx));
      if ctx.complex_spin_locks_held > 0 then
        M.fatal
          (Printf.sprintf
             "%s while holding %d non-sleep complex lock(s): locks without \
              the Sleep option cannot be held during blocking operations \
              (paper, Appendix B); locks held: %s"
             what ctx.complex_spin_locks_held
             (Thread_ctx.describe_holds ctx))
    end

  let thread_block () =
    let w = my_waiter () in
    check_no_simple_locks "thread_block";
    if M.in_interrupt () then
      M.fatal "thread_block from interrupt context (interrupts cannot sleep)";
    let rec wait () =
      match w.state with
      | Woken r ->
          w.state <- Running;
          set_in_assert_wait false;
          Obs_metrics.observe (M.current_cpu ()) h_wait
            (Int.max 0 (M.now_cycles () - w.wait_started));
          Spans.exit_kind Obs_span.Event;
          r
      | Waiting ->
          M.park ();
          wait ()
      | Running -> M.fatal "thread_block without a prior assert_wait"
    in
    wait ()

  (* The waker (not the waiter) retires the wait edge on the woken
     thread's context: the engine's dropped-wakeup injection fires
     downstream in [M.unpark], so a waiter whose edge was retired but
     that stays parked is precisely a lost wakeup, and the context's
     [last_event] names the event it was woken from. *)
  let wf_wait_done w ev =
    if Waits_for.tracking () then
      Thread_ctx.wait_done (M.context w.thread) (Waits_for.Event { id = ev })

  (* Dequeue [w] from bucket [b] and mark it woken; caller holds b.block. *)
  let wake_locked b w result =
    let ev = match w.event with Some e -> e | None -> null_event in
    b.waiters <- List.filter (fun w' -> w' != w) b.waiters;
    w.event <- None;
    w.state <- Woken result;
    wf_wait_done w ev;
    M.unpark w.thread

  let cancel_assert () =
    let w = my_waiter () in
    let rec loop () =
      match w.event with
      | None ->
          (* Already woken concurrently: consume the wakeup. *)
          (match w.state with
          | Woken _ -> w.state <- Running
          | Running | Waiting -> ());
          set_in_assert_wait false;
          Spans.exit_kind Obs_span.Event
      | Some ev ->
          let b = bucket_of ev in
          Slock.lock b.block;
          if waits_on ev w && is_waiting w then begin
            b.waiters <- List.filter (fun w' -> w' != w) b.waiters;
            w.event <- None;
            w.state <- Running;
            wf_wait_done w ev;
            Slock.unlock b.block;
            set_in_assert_wait false;
            Spans.exit_kind Obs_span.Event
          end
          else begin
            Slock.unlock b.block;
            loop ()
          end
    in
    loop ()

  let thread_wakeup ?(result = Awakened) ev =
    let b = bucket_of ev in
    Slock.lock b.block;
    let matching, rest =
      List.partition (waits_on ev) b.waiters
    in
    b.waiters <- rest;
    List.iter
      (fun w ->
        w.event <- None;
        w.state <- Woken result;
        wf_wait_done w ev;
        M.unpark w.thread)
      matching;
    Slock.unlock b.block;
    let woken = List.length matching in
    if Obs_trace.enabled () then
      Obs_trace.emit (Obs_event.Event_signal { event = ev; woken });
    woken

  let thread_wakeup_one ?(result = Awakened) ev =
    let b = bucket_of ev in
    Slock.lock b.block;
    let rec first = function
      | [] -> None
      | w :: _ when waits_on ev w -> Some w
      | _ :: tl -> first tl
    in
    let woke =
      match first b.waiters with
      | Some w ->
          wake_locked b w result;
          true
      | None -> false
    in
    Slock.unlock b.block;
    if Obs_trace.enabled () then
      Obs_trace.emit
        (Obs_event.Event_signal { event = ev; woken = (if woke then 1 else 0) });
    woke

  let clear_wait_gen thread result ~only_interruptible =
    let w = waiter_of thread in
    let rec loop () =
      match w.event with
      | None -> false
      | Some ev ->
          let b = bucket_of ev in
          Slock.lock b.block;
          if waits_on ev w && is_waiting w then
            if only_interruptible && not w.interruptible then begin
              Slock.unlock b.block;
              false
            end
            else begin
              wake_locked b w result;
              Slock.unlock b.block;
              true
            end
          else begin
            Slock.unlock b.block;
            loop ()
          end
    in
    loop ()

  let clear_wait thread result =
    clear_wait_gen thread result ~only_interruptible:false

  let thread_interrupt thread =
    clear_wait_gen thread Interrupted ~only_interruptible:true

  let thread_sleep ev lock =
    assert_wait ev;
    Slock.unlock lock;
    thread_block ()

  let waiting_on thread =
    let w = waiter_of thread in
    w.event

  (* Diagnostic: a racy momentary observation, deliberately taken without
     the bucket lock so that a polling observer cannot starve waiters
     contending for the bucket. *)
  let waiters_count ev =
    let b = bucket_of ev in
    List.length (List.filter (waits_on ev) b.waiters)
end
