(** Systematic schedule-space model checking over the deterministic
    simulator.

    Where {!Mach_sim.Sim_explore} {e samples} schedules (one per seed),
    this module {e enumerates} them: the engine's model-checking hooks
    ({!Mach_sim.Sim_config.mc_hooks}) reify every scheduler decision —
    which pending interrupt slot to deliver, which cpu's context to
    resume or whose hung budgeted wait expires, which queued thread an
    idle cpu dispatches — and a depth-first search re-executes it once
    per distinct schedule, in the stateless style of Verisoft and CHESS.
    A run is fully determined by its choice trace, so any counterexample
    replays byte-identically from the printed trace alone.

    Two search modes: [Naive] enumerates every schedule and is kept as
    the reduction baseline; [Dpor] branches only on transitions that
    participate in a detected race (dynamic partial-order reduction,
    Flanagan & Godefroid 2005, conservative backtrack-set variant) and
    prunes, with Godefroid's sleep sets, schedules that merely commute
    independent transitions.  Both explore the same reachable states;
    [Dpor] just visits exponentially fewer interleavings.

    An optional {e preemption bound} in the CHESS style caps the number
    of voluntary cpu switches (switching away from a cpu that could still
    run): most concurrency bugs need only a couple of preemptions, so
    small bounds find bugs in scenarios whose unbounded space is
    intractable.  Unbounded mode ([bound] absent) is the sound,
    exhaustive mode used for verification claims. *)

type mode = Naive | Dpor

val mode_name : mode -> string
val mode_of_string : string -> mode option

type trace = Mach_sim.Sim_config.mc_transition array
(** A schedule, as the sequence of transitions chosen at each step. *)

val pp_transition : Format.formatter -> Mach_sim.Sim_config.mc_transition -> unit

val trace_to_string : trace -> string
(** One transition per line, parseable by {!trace_of_string}. *)

val trace_of_string : string -> (trace, string) result

(** {2 Dependence} *)

type footprint
(** The resources one transition touched, encoded once at commit for a
    fast conflict test. *)

val encode_footprint : Mach_sim.Sim_config.mc_access list -> footprint

val footprint_conflict : footprint -> footprint -> bool
(** Whether reordering two transitions with these footprints could
    change an outcome: they share a cell and one of them writes it, or
    they touch the same thread's scheduling state, the run queue, or the
    same cpu's interrupt plumbing (its pending queues and its spl count
    as one resource). *)

val signature : footprint -> int
(** One word summarizing a footprint's resources.  Two footprints that
    conflict always have intersecting signatures ([land] is non-zero), so
    the race scan runs {!footprint_conflict} only on those pairs. *)

type failure = {
  f_trace : trace;  (** the schedule that exhibits the failure *)
  f_kind : Mach_sim.Sim_engine.deadlock_kind option;
      (** [None] = kernel panic, [Some k] = deadlock/livelock *)
  f_report : string;  (** engine report: machine state, waits-for cycle *)
  f_preemptions : int;  (** preemptive switches in [f_trace] *)
}

type stats = {
  executions : int;  (** complete schedules executed *)
  pruned : int;  (** executions cut short by sleep-set pruning *)
  transitions : int;  (** transitions committed across all executions *)
  choice_points : int;  (** decision points with >= 2 selectable options *)
  max_depth : int;  (** longest schedule, in transitions *)
  truncated : int;  (** executions stopped by the step bound *)
}

type result = {
  mode : mode;
  bound : int option;
  complete : bool;
      (** the bounded space was exhausted (not stopped by
          [max_executions], and no execution hit the step bound) *)
  verified : bool;  (** [complete] and no failure *)
  failure : failure option;  (** first failure in DFS order, if any *)
  stats : stats;
}

exception Diverged of string
(** Raised by {!check} when a re-execution of a recorded choice prefix
    offers a different number of transitions than it did when recorded:
    the scenario is not a deterministic function of its schedule (it
    reads state kept outside the run, say).  The message names the
    depth, both candidate lists where known, and the prefix. *)

val pp_result : Format.formatter -> result -> unit

val check :
  ?cpus:int ->
  ?mode:mode ->
  ?bound:int ->
  ?max_steps:int ->
  ?max_executions:int ->
  ?domains:int ->
  ?minimize:bool ->
  (unit -> unit) ->
  result
(** [check scenario] explores every schedule of [scenario] (up to
    [bound] preemptions if given) on [cpus] (default 2) simulated
    processors and reports the first failing schedule, if any.

    [max_steps] (default 20_000) bounds a single execution's length;
    an execution that hits it is counted in [stats.truncated] and makes
    the verdict incomplete.  [max_executions] (default 1_000_000) bounds
    the search as a whole.  [domains] (default 1) fans disjoint subtrees
    of the choice tree across OCaml domains at the shallowest branching
    point; the merged result is deterministic.  [minimize] (default
    [true]) re-searches with iteratively deepened preemption bounds when
    a failure is found, so the reported counterexample uses as few
    preemptions as the bug allows.

    Incompatible with fault injection ({!Mach_sim.Sim_config.faults});
    the scenario must not itself call {!Mach_sim.Sim_engine.run}. *)

val replay :
  ?cpus:int ->
  ?max_steps:int ->
  trace:trace ->
  (unit -> unit) ->
  Mach_sim.Sim_engine.outcome * trace
(** [replay ~trace scenario] re-executes exactly the schedule in [trace]
    and returns the outcome plus the re-recorded trace (equal to the
    input when the replay is faithful).  Raises [Failure] if the trace
    diverges from the scenario — e.g. it was recorded for different
    code, a different cpu count, or has been edited. *)

