(** The machine-dependent interface.

    The paper divides Mach's locking implementation into machine dependent
    simple locks and machine independent complex locks; "the only machine
    dependency is the simple lock implementation" (section 4).  This module
    captures that boundary as an OCaml signature.  Everything in [lib/core]
    is a functor over {!MACHINE}; two implementations exist:

    - [Mach_hw.Hw_machine]: OCaml 5 domains and [Atomic] — real multicore,
      used by the native benchmarks;
    - [Mach_sim.Sim_machine]: the deterministic simulated multiprocessor —
      used by the kernel model, the schedule-exploration tests and the
      cycle-model benchmarks.

    Code in a simulated thread must not swallow the simulator's unwinding
    exception.  When a simulated run ends, every thread and interrupt
    handler still suspended in it is unwound by an exception private to
    the simulator, raised where it is suspended; its handlers and
    [finally] blocks run, and any machine operation they make raises the
    same exception.  A catch-all handler therefore re-raises what it
    caught, as [Simple_lock.with_lock] does. *)

(** An atomic memory cell holding an [int]; the operand of the machine's
    test-and-set (or similar) instruction.  The paper notes a C integer has
    sufficed on every architecture encountered (section 4). *)
module type CELL = sig
  type t

  val make : ?name:string -> int -> t
  (** [make v] allocates a cell initialized to [v].  [name] is used by
      diagnostics only. *)

  val get : t -> int
  (** Ordinary (cacheable) read. *)

  val set : t -> int -> unit
  (** Ordinary write; invalidates other processors' cached copies. *)

  val test_and_set : t -> int
  (** Atomically set the cell to 1 and return its previous value.  The lock
      has been acquired iff the returned value is 0 (paper, section 2). *)

  val swap : t -> int -> int
  (** Atomically store [v] and return the previous value (unconditional
      exchange).  The enqueue instruction of queue locks: an MCS acquire
      swaps its qnode id into the tail pointer. *)

  val compare_and_swap : t -> expected:int -> desired:int -> bool
  (** Atomic compare-and-swap; true on success. *)

  val fetch_and_add : t -> int -> int
  (** Atomically add, returning the previous value. *)

  val await : t -> (int -> bool) -> int
  (** [await c ready] is the read-only spin-wait on one cell: read [c]
      (an ordinary {!get}, with its cost and preemption point), stop if
      [ready] holds of the value read, otherwise make one spin pause and
      read again.  Returns the number of pauses made.  [ready] may also
      read plain memory (never a cell, and no other machine operation);
      it is evaluated where a hand-written loop would evaluate it, right
      after the read.  The simulator runs every iteration after the first
      failed check itself, step for step the literal loop
      ([while not (ready (get c)) do spin_pause () done]), with the same
      clocks, counts and footprints. *)
end

(** The full machine-dependent substrate. *)
module type MACHINE = sig
  val name : string
  (** Human-readable machine name ("native", "sim"). *)

  module Cell : CELL

  (** {1 Execution context} *)

  type thread
  (** A kernel thread.  Holding of a lock is always associated with a thread
      (paper, section 4). *)

  val self : unit -> thread
  (** The current thread.  In interrupt context this is the interrupted
      thread (interrupt routines lack a thread context of their own;
      paper, section 7). *)

  val thread_id : thread -> int
  (** Unique small integer identifying the thread. *)

  val thread_name : thread -> string

  val equal_thread : thread -> thread -> bool

  val in_interrupt : unit -> bool
  (** True when executing in interrupt context (always false natively). *)

  val cpu_count : unit -> int

  val current_cpu : unit -> int

  (** {1 Spinning} *)

  val spin_pause : unit -> unit
  (** Called once per iteration of a spin loop that is not a read-only
      wait (see {!spin_until}).  Native: cpu relax.  Sim: a preemption
      point that also charges spin cycles. *)

  val spin_until : ?budget:int -> (unit -> bool) -> int
  (** [spin_until ?budget ready] is the read-only spin-wait on plain
      memory: check [ready ()] and make one spin pause after each failed
      check, for at most [budget] checks (default unbounded).  Returns the
      number of pauses made, so a result equal to [budget] means every
      check failed.  [ready] must read plain memory only: no cell and no
      other machine operation (the simulator evaluates it outside the
      thread's own code and treats a machine operation there as fatal).
      Waits that read a cell use {!CELL.await}; loops whose iteration
      does more than read and test (a test-and-set, a backoff delay)
      stay on {!spin_pause}. *)

  val spin_hint : string -> unit
  (** Diagnostic: record what the current context is spinning on, so that
      deadlock reports can name the lock.  No-op natively. *)

  val spin_max_backoff : unit -> int
  (** Cap (in cycles) on the exponential-backoff delay of backoff spin
      protocols.  The simulator reads it from the run configuration so
      experiments can tune it; native machines use a fixed cap. *)

  (** {1 Blocking} *)

  val park : unit -> unit
  (** Block the current thread until {!unpark}.  Permit semantics: if an
      unpark was delivered since the last park, return immediately and
      consume the permit.  Must not be called from interrupt context. *)

  val unpark : thread -> unit
  (** Make [thread] runnable (or grant it a permit if it is not parked). *)

  (** {1 Interrupt priority} *)

  val set_spl : Spl.t -> Spl.t
  (** Set the current processor's interrupt priority level, returning the
      previous level.  Native machines have no simulated interrupts; there
      the level is tracked for assertion checking only. *)

  val get_spl : unit -> Spl.t

  (** {1 Accounting} *)

  val cycles : int -> unit
  (** Charge [n] cycles of local work to the current processor.  No-op
      natively (real time is measured by the benchmark harness). *)

  val now_cycles : unit -> int
  (** Current processor's cycle clock (native: a monotonic tick counter). *)

  (** {1 Per-thread context} *)

  val context : thread -> Thread_ctx.t
  (** The thread's context, created with the thread: its lock holds,
      open spans, lock-order ranks, wait edges and blocking-rule
      counters. *)

  (** {1 Machine-scoped state} *)

  val machine_local : (unit -> 'a) -> unit -> 'a
  (** [machine_local init] returns an accessor for mutable state scoped
      to one machine instance — shared by every thread and interrupt of
      that machine, but never by two machines.  On the native machine
      all domains are cpus of the single process-wide machine, so the
      state is process-global: [init] runs once, eagerly, and no
      simulated run ever touches it.  A simulated machine lives for one
      run, and a domain hosts at most one run at a time while other
      domains may run unrelated simulations concurrently, so the state
      is domain-local and every run gets a fresh [init ()] (through a
      {!Run_reset} hook the simulated machine registers).  [init] runs
      at run set-up, so it should only make an empty slot: state built
      inside the run is what every re-execution of a schedule rebuilds
      identically. *)

  (** {1 Fault injection} *)

  val handoff_fault : unit -> bool
  (** Consulted by queue-lock protocols at the point of an explicit lock
      handoff (e.g. an MCS holder releasing its successor).  True means a
      fault injector asked for this handoff to be dropped — the protocol
      must skip the store that wakes the successor, modelling the lost
      store/IPI of a buggy port.  Always false natively; the simulator
      draws from its chaos RNG when the [drop_handoff] fault class is
      armed. *)

  (** {1 Failure} *)

  val fatal : string -> 'a
  (** Kernel panic: a design-rule violation (e.g. blocking while holding a
      simple lock) was detected. *)
end
