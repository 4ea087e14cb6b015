(** The simulated multiprocessor.

    A single OS thread runs a deterministic scheduler over effect-handler
    fibers.  Each virtual cpu executes a stack of contexts: at the bottom a
    kernel thread, above it nested interrupt handlers.  Fibers run native
    OCaml code between {e preemption points} (spin pauses and shared-cell
    operations); at each point the scheduler may switch to another cpu,
    deliver a pending interrupt whose priority exceeds the cpu's current
    spl, or context-switch a parked thread off the cpu.  A seeded policy
    chooses among cpus, so a (seed, config) pair fully determines the run.

    Shared-memory cells carry a MESI-like cache model and serialize their
    misses and interlocked operations on a global bus, reproducing the
    cache behaviour section 2 of the paper reasons about.

    The engine detects both deadlock flavours the paper's design rules
    exist to prevent: {e sleep deadlocks} (every thread parked, nothing
    runnable) and {e spin deadlocks / livelocks} (a progress watchdog: no
    productive operation for a configurable number of steps). *)

type thread

val schedule_version : int
(** Bumped whenever an engine change may legitimately alter seeded
    schedules (and therefore the determinism goldens).  [gen_golden]
    stamps it into regenerated goldens and [test_determinism] checks the
    stamp, so a stale golden fails with "regenerate" instead of an opaque
    byte diff. *)

type deadlock_kind = Sleep_deadlock | Spin_deadlock

exception Kernel_panic of string
exception Deadlock of deadlock_kind * string
exception Step_limit

type stats = {
  steps : int;
  makespan : int;          (** max cpu cycle clock at completion *)
  bus_transactions : int;
  cache_misses : int;
  atomic_ops : int;
  interrupts_delivered : int;
  context_switches : int;
  spawned_threads : int;
  parks : int;
  unparks : int;
  spin_pauses : int;
}

val pp_stats : Format.formatter -> stats -> unit

type chaos_stats = {
  dropped_wakeups : int;
  delayed_wakeups : int;
  spurious_wakeups : int;
  delayed_interrupts : int;
  perturbed_picks : int;
  forced_preemptions : int;
  dropped_handoffs : int;
}
(** Counts of the fault injections actually fired during a run.  Kept out
    of {!stats} so the golden determinism format is untouched. *)

type deadlock_analysis = {
  cycle : string list;
      (** labels of the waits-for cycle, in order (empty when none found) *)
  orphans : string list;
      (** orphaned-waiter / lost-wakeup explanations for parked threads *)
}

(** {1 Running} *)

val run : ?cfg:Sim_config.t -> (unit -> unit) -> stats
(** Boot the machine, run [main] as the first thread, schedule until every
    thread has finished.  However the run ends, every thread and
    interrupt handler it leaves suspended is unwound before [run]
    returns or raises: its [finally] blocks run, and any machine
    operation made meanwhile raises instead of acting (see
    {!Mach_core.Machine_intf}).  @raise Deadlock, @raise Kernel_panic,
    @raise Step_limit. *)

type outcome =
  | Completed of stats
  | Deadlocked of deadlock_kind * string
  | Panicked of string
  | Hit_step_limit

val run_outcome : ?cfg:Sim_config.t -> (unit -> unit) -> outcome
(** Like {!run} but captures the engine's own failure modes as data
    (other exceptions still propagate). *)

val running : unit -> bool
(** True between boot and completion of {!run} (i.e. inside a fiber or the
    scheduler). *)

(** {1 Threads} *)

val spawn : ?name:string -> ?bound:int -> (unit -> unit) -> thread
(** Create a runnable thread; [bound] pins it to one cpu. *)

val join : thread -> unit
val self : unit -> thread
val thread_id : thread -> int
val thread_name : thread -> string
val equal_thread : thread -> thread -> bool
val is_dead : thread -> bool

val park : unit -> unit
(** Block the current thread (permit semantics).  Fatal in interrupt
    context or outside the simulator. *)

val unpark : thread -> unit

val context : thread -> Mach_core.Thread_ctx.t
(** The thread's context (lock holds, spans, ranks, waits, rule
    counters), created with it. *)

(** {1 Preemption, time, spl} *)

val pause : unit -> unit
(** Preemption point; charges the configured pause cost. *)

val spin_pause : unit -> unit
(** {!pause}, counted in [stats.spin_pauses]: one iteration of a spin
    loop that is not a read-only wait. *)

val spin_until : ?budget:int -> (unit -> bool) -> int
(** [spin_until ?budget ready]: check [ready ()], and after each failed
    check make a counted spin pause, for at most [budget] checks
    (default unbounded); return the number of pauses made.  Step for
    step the literal loop, but after the first failed check the engine
    runs the iterations itself (see {!Mach_core.Machine_intf.MACHINE}
    for the contract).  [ready] may read plain memory only: a machine
    operation inside it is fatal.  Outside a simulated thread nothing
    could change [ready]'s answer, so a failed first check returns
    [budget], or is fatal when the wait is unbounded. *)

val cycles : int -> unit
val now_cycles : unit -> int
val current_cpu : unit -> int
val cpu_count : unit -> int
val in_interrupt : unit -> bool
val set_spl : Mach_core.Spl.t -> Mach_core.Spl.t
val get_spl : unit -> Mach_core.Spl.t
val spin_hint : string -> unit

val spin_max_backoff : unit -> int
(** The running configuration's [spin_max_backoff] (the default cap when
    no simulation is running). *)

val fatal : string -> 'a

(** {1 Interrupts} *)

val post_interrupt :
  ?name:string -> cpu:int -> level:Mach_core.Spl.t -> (unit -> unit) -> unit
(** Queue an interrupt for [cpu]; it is delivered at the cpu's next
    preemption point once its spl admits [level].  The handler runs as a
    nested context on that cpu and may spin on locks (other cpus keep
    running meanwhile) but must not block. *)

(** {1 Shared cells (used by Sim_machine.Cell)} *)

module Cell : sig
  type t

  val make : ?name:string -> int -> t
  (** A cell made during a run caches per cpu of that machine only: kept
      into a later run on a larger machine, it is fatal (the error names
      the cell) for a cpu beyond them to touch it.  A cell made outside
      any run serves every machine. *)

  val get : t -> int
  val set : t -> int -> unit
  val test_and_set : t -> int
  val swap : t -> int -> int
  val compare_and_swap : t -> expected:int -> desired:int -> bool
  val fetch_and_add : t -> int -> int

  val await : t -> (int -> bool) -> int
  (** [await c ready]: read [c] as {!get} does, stop if [ready] holds of
      the value, otherwise make a counted spin pause and repeat; return
      the number of pauses.  Engine-run like {!spin_until}; [ready] may
      also read plain memory, and is evaluated in the step after the
      read, where the fiber would evaluate it.  Outside a simulated
      thread a failed first check is fatal. *)

  val name : t -> string
end

val handoff_fault : unit -> bool
(** One chaos draw against the [drop_handoff] fault class (false, with no
    draw, when the class is off).  See
    {!Mach_core.Machine_intf.MACHINE.handoff_fault}. *)

(** {1 Introspection} *)

val trace_events : unit -> Sim_trace.event list
(** Events of the current (or most recent) run; empty when it did not
    trace. *)

val trace_drop_stats : unit -> Sim_trace.drop_stats option
(** The trace's overflow counters (split span vs plain event) for the
    current or most recent run; [None] when it did not trace. *)

val last_stats : unit -> stats option
(** Stats of the most recently completed run. *)

val last_chaos : unit -> chaos_stats option
(** Injection counts of the most recently completed run (this domain). *)

val last_analysis : unit -> deadlock_analysis option
(** The waits-for analysis of the most recent deadlock report.  [None]
    when the run ended cleanly. *)
