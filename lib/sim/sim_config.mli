(** Simulator configuration: machine size, scheduling policy and the cycle
    cost model.

    The cost model captures the quantities section 2 of the paper reasons
    about: a spinning read that hits the processor cache is nearly free; a
    cache miss or an atomic (interlocked) operation crosses the shared bus
    and serializes against all other bus traffic.  Absolute values are
    loosely calibrated to late-1980s shared-bus multiprocessors (Encore
    Multimax class); only ratios matter for the experiment shapes. *)

type policy =
  | Random_policy   (** pick uniformly among advanceable cpus (exploration) *)
  | Round_robin     (** cycle through cpus (exploration, deterministic) *)
  | Timed           (** advance the cpu with the smallest clock (cost model) *)

val policy_name : policy -> string

type faults = {
  fault_seed : int;
      (** seed of the dedicated chaos RNG; 0 = derive from the schedule
          seed.  Fault draws never consume schedule randomness. *)
  drop_wakeup : int;
      (** 1-in-N chance (0 = never) that an unpark of a parked thread is
          silently dropped — the lost-wakeup hazard of section 6 *)
  delay_wakeup : int;
      (** 1-in-N chance that an unpark is deferred by
          {!wakeup_delay_steps} *)
  spurious_wakeup : int;
      (** per-step 1-in-N chance to unpark a random parked thread
          (spurious [thread_wakeup]; wait loops must tolerate it) *)
  delay_interrupt : int;
      (** 1-in-N chance a deliverable interrupt is deferred for a step
          when the cpu has an alternative action *)
  perturb_pick : int;
      (** per-step 1-in-N chance to override the scheduling policy with a
          uniform-random candidate pick *)
  preempt_on_acquire : int;
      (** 1-in-N chance of a forced preemption (thread descheduled and
          re-enqueued) immediately before a test-and-set *)
  drop_handoff : int;
      (** 1-in-N chance that a queue-lock's explicit successor handoff
          (e.g. the MCS holder's store to its successor's spin cell) is
          silently dropped — the spin-lock analogue of a lost wakeup *)
}

val no_faults : faults
(** All odds zero: injection disabled, schedules byte-identical to a
    configuration without the faults record. *)

val faults_active : faults -> bool

val wakeup_delay_steps : int
(** Scheduler steps a delayed wakeup is deferred by (40). *)

(** {1 Model-checking hooks}

    When {!t.mc} is set the engine runs under a {e systematic} scheduler
    instead of a seeded one: at every step it enumerates the enabled
    transitions in a deterministic order and asks [mc_choose] which one to
    execute, then reports the executed slice's shared-state footprint to
    [mc_commit]; a step that replays an already-explored prefix skips
    both ([mc_replay]).  The DFS/DPOR driver over these hooks lives in
    [lib/mc]; the types live here so that library can depend on
    [lib/sim] without a dependency cycle. *)

type mc_action =
  | Mc_deliver of { slot : int; intr : string; level : string }
      (** deliver the pending interrupt at FIFO position [slot] within
          the cpu's highest deliverable level *)
  | Mc_resume of { frame : string }
      (** run the cpu's top frame to its next preemption point *)
  | Mc_dispatch of { thread : string; tseq : int }
      (** context-switch the queued thread with per-run spawn index
          [tseq] onto this (idle) cpu *)

type mc_transition = { mc_cpu : int; mc_what : mc_action }
(** Descriptors are stable across re-executions of the same choice
    prefix: threads are identified by per-run spawn sequence, interrupts
    by FIFO slot — never by process-global ids. *)

type mc_access =
  | Mc_cell of { cell : int; write : bool }
      (** a shared cell; negative ids are per-run (deterministic),
          positive ids belong to cells created outside any run *)
  | Mc_thread of int  (** thread state/permits/joiners, by spawn index *)
  | Mc_runq  (** the global run-queue order *)
  | Mc_intrq of int  (** a cpu's pending-interrupt queues *)
  | Mc_spl of int  (** a cpu's interrupt priority level *)

type mc_hooks = {
  mc_replay : int -> mc_transition option;
      (** asked first at every step, with the number of enabled
          transitions.  [Some t]: this step replays a prefix already
          committed, and [t] is the choice recorded there; the engine
          executes it without enumerating the transitions or recording a
          footprint, and calls neither hook below.  [None]: a fresh
          step. *)
  mc_choose : mc_transition array -> int;
      (** pick the index of the next transition to execute; the array is
          non-empty, in deterministic (cpu-ascending) order *)
  mc_commit : mc_access list -> unit;
      (** the footprint of the transition just executed: every access it
          made, in no particular order, possibly repeated *)
}

(** {1 The cycle cost model}

    In cycles: a cached read 1; a read that misses and crosses the bus
    40; a write (it invalidates other caches) 20; an interlocked
    operation (test-and-set etc.) 50; the bus cycles a miss or atomic
    keeps the bus busy 20; one spin-loop iteration's local work 4; a
    context switch 300; the dispatch overhead of taking an interrupt
    150. *)

val read_hit_cost : int
val read_miss_cost : int
val write_cost : int
val atomic_cost : int
val bus_occupancy : int
val pause_cost : int
val context_switch_cost : int
val interrupt_cost : int

(** {1 The configuration} *)

type t = {
  cpus : int;               (** number of virtual processors *)
  seed : int;               (** scheduling seed *)
  policy : policy;
  spin_max_backoff : int;
      (** cap (in cycles) on the exponential-backoff delay of the
          [Ttas_backoff] spin protocol *)
  watchdog_steps : int;
      (** scheduler steps without productive work before declaring a
          spin deadlock / livelock *)
  max_steps : int option;   (** hard step bound, None = unbounded *)
  trace : bool;
      (** record an event trace: 65,536 events over all cpus' rings *)
  spans : bool;
      (** record causal spans and blocked-by edges ([Obs_span]) and feed
          the flight recorder.  On by default: recording consumes no
          schedule randomness and charges no cycles, so stats are
          byte-identical either way (pinned by the determinism tests). *)
  faults : faults;          (** fault-injection odds; {!no_faults} = off *)
  mc : mc_hooks option;
      (** systematic-exploration hooks; [None] = seeded scheduling.
          Incompatible with fault injection. *)
}

val default : t
(** 4 cpus, seed 1, [Timed], checking-friendly watchdog. *)

val exploration : ?cpus:int -> seed:int -> unit -> t
(** Random policy and a tighter watchdog: the configuration used by the
    schedule-exploration tests. *)

val bench : ?cpus:int -> unit -> t
(** Timed policy: the configuration used by the cycle-model benchmarks. *)
