(** Schedule exploration: run one scenario under many seeds (and therefore
    many interleavings) and aggregate the outcomes.  This is the tool the
    correctness experiments (E6, E7, E11) use to show that a buggy locking
    protocol deadlocks on {e some} schedule while the disciplined protocol
    deadlocks on {e none}. *)

type verdict = {
  seeds_run : int;
  completed : int;
  sleep_deadlocks : int;
  spin_deadlocks : int;
  panics : int;
  step_limits : int;
  failures : (int * string) list;
      (** (seed, report) for the first 16 non-completed outcomes, in
          ascending seed order. *)
}

val pp_verdict : Format.formatter -> verdict -> unit

val parallel_map : domains:int -> 'a array -> ('a -> 'b) -> 'b array
(** [parallel_map ~domains jobs f] applies [f] to every job across
    [domains] OCaml domains (work-stealing over a shared index) and
    returns the results in input order.  [f] must be safe to run in a
    fresh domain — in particular each call may host its own
    [Sim_engine.run].  This is the fan-out primitive behind [run] and the
    model checker's subtree parallelism ([Mc.check ~domains]). *)

val run :
  ?cpus:int ->
  ?policy:Sim_config.policy ->
  ?seeds:int list ->
  ?domains:int ->
  ?tweak:(Sim_config.t -> Sim_config.t) ->
  (unit -> unit) ->
  verdict
(** [run scenario] executes the scenario once per seed (default seeds
    1..100) under the exploration configuration and tallies outcomes.
    [tweak] post-processes the configuration (e.g. to bound steps).

    [domains] (default 1) fans the seeds out across that many OCaml
    domains.  Each seed's simulation is single-domain deterministic and
    the merge preserves seed order, so the verdict — counts and failure
    reports alike — is identical to the sequential run for every
    [domains] value. *)

val all_completed : verdict -> bool
val some_deadlock : verdict -> bool

val find_first_deadlock :
  ?cpus:int ->
  ?max_seeds:int ->
  ?tweak:(Sim_config.t -> Sim_config.t) ->
  (unit -> unit) ->
  (int * string) option
(** Search seeds 1,2,... until a deadlock is found; [None] if none within
    [max_seeds] (default 200).  [tweak] post-processes each seed's
    configuration (e.g. to enable fault injection). *)
