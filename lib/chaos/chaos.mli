(** The chaos driver: run scenarios under seeded fault injection with the
    waits-for deadlock detector on, classify how each run failed, sweep
    seeds per fault mix, and minimize a failing mix. *)

type detection =
  | Cycle       (** detector found a waits-for cycle *)
  | Orphan      (** detector found an orphaned waiter / lost wakeup *)
  | Watchdog    (** spin deadlock, no cycle diagnosed *)
  | Sleep       (** sleep deadlock, no analysis produced *)
  | Step_limit  (** step bound hit (e.g. watchdog kept being reset) *)
  | Panic
  | Clean       (** run completed *)

val all_detections : detection list
(** Every failing bucket, in report order ([Clean] excluded). *)

val detection_name : detection -> string
val detected : detection -> bool

type result = { seed : int; detection : detection; report : string }

val run_one :
  ?cpus:int ->
  ?max_steps:int ->
  ?watchdog:int ->
  seed:int ->
  faults:Mach_sim.Sim_config.faults ->
  (unit -> unit) ->
  result
(** One exploration run with [faults] injected, spans on and the given
    step bound and watchdog. *)

type sweep = {
  runs : int;
  counts : (detection * int) list;
  first_failure : result option;
}

val detection_rate : sweep -> float
(** Fraction of runs that did not complete. *)

val sweep :
  ?cpus:int ->
  ?max_steps:int ->
  ?watchdog:int ->
  ?seeds:int ->
  faults:Mach_sim.Sim_config.faults ->
  (unit -> unit) ->
  sweep
(** Run seeds 1..[seeds] (default 20) and tally detections. *)

val pp_sweep : Format.formatter -> sweep -> unit

val find_first_failure :
  ?cpus:int ->
  ?max_steps:int ->
  ?watchdog:int ->
  ?max_seeds:int ->
  faults:Mach_sim.Sim_config.faults ->
  (unit -> unit) ->
  result option
(** Lowest seed (up to [max_seeds], default 50) whose run fails. *)

val minimize :
  ?cpus:int ->
  ?max_steps:int ->
  ?watchdog:int ->
  seed:int ->
  faults:Mach_sim.Sim_config.faults ->
  (unit -> unit) ->
  Mach_sim.Sim_config.faults
(** Greedily drop fault classes from a failing mix while [seed] keeps
    failing (re-checked through {!Mach_sim.Sim_explore.run}); returns a
    locally-minimal mix, possibly empty for scenarios that fail without
    injection. *)

val scenarios : Mach_kernel.Scenarios.entry list
(** The chaos set, in sweep order: [interrupt-deadlock] (the section 7
    bug, a waits-for cycle with no injection), [lost-wakeup-handoff] and
    [wakeup-herd] (section 6 handoffs that hang only when a wakeup is
    dropped) and [mcs-handoff] and [scache-handoff] (queue locks that
    hang only when a release handoff is dropped). *)
