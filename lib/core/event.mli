(** The Mach event-wait mechanism (paper, section 6).

    Waiting is split into a declaration component ([assert_wait]) and a
    conditional wait component ([thread_block]); event occurrence
    ([thread_wakeup], [clear_wait]) synchronizes with the declaration.  A
    thread that must release locks to wait for an event calls [assert_wait]
    {e before} releasing the locks and [thread_block] afterwards; if the
    event occurs in the interim the block is converted into a non-blocking
    no-op that leaves the thread runnable — this is what makes
    "release locks and wait" atomic with respect to event occurrence.

    Events are identified by integers (Mach used kernel addresses).
    [null_event] (0) is the conventional event from which only [clear_wait]
    can awaken a thread. *)

type wait_result =
  | Awakened     (** the event occurred ([thread_wakeup]) *)
  | Cleared      (** thread-based occurrence ([clear_wait]) *)
  | Interrupted  (** an interruptible wait was interrupted *)
  | Restart      (** the operation should be restarted from the top *)

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) : sig
  type event = int

  val null_event : event
  (** Event 0: threads blocked here are awakened only by [clear_wait]. *)

  val fresh_event : unit -> event
  (** Allocate a unique event id (never 0). *)

  val assert_wait : ?interruptible:bool -> event -> unit
  (** Declare the event the current thread is about to wait for.  Fatal if
      the thread already has a wait asserted (the paper calls a second
      [assert_wait] before the block "fatal", section 8). *)

  val thread_block : unit -> wait_result
  (** Block if the asserted event has not occurred since [assert_wait];
      otherwise return immediately.  Fatal if called while holding simple
      locks (checking mode) or without an asserted wait. *)

  val cancel_assert : unit -> unit
  (** Withdraw the current thread's asserted wait without blocking (used
      when re-checking under a lock shows the wait is no longer needed). *)

  val thread_wakeup : ?result:wait_result -> event -> int
  (** Event-based occurrence: awaken {e all} threads waiting on the event
      (Mach's wakeup is broadcast); returns how many were awakened. *)

  val thread_wakeup_one : ?result:wait_result -> event -> bool
  (** Awaken at most one waiting thread. *)

  val clear_wait : M.thread -> wait_result -> bool
  (** Thread-based occurrence: awaken the given thread regardless of the
      event it waits on.  Returns false if the thread was not waiting. *)

  val thread_interrupt : M.thread -> bool
  (** [clear_wait] with result [Interrupted], honored only when the wait
      was asserted interruptible. *)

  val thread_sleep : event -> Slock.t -> wait_result
  (** The common case of releasing a single simple lock to wait for an
      event: [assert_wait]; unlock; [thread_block].  The lock is {e not}
      reacquired. *)

  val waiting_on : M.thread -> event option
  (** Diagnostic: the event the thread currently waits on, if any. *)

  val waiters_count : event -> int
  (** Diagnostic: momentary number of waiters on an event. *)
end
