(** The lock-event pipeline: one call per lock transition.

    [Simple_lock], [Complex_lock], [Range_lock] and the raw read and
    write sides of [Brlock] and [Scache_rwlock] report every wait,
    acquisition and release here.  An acquisition or release feeds, in
    this order, the ["lock.*"] metrics, {!Mach_obs.Obs_profile},
    {!Mach_obs.Obs_span}, {!Mach_obs.Obs_trace} and the held record; a
    wait feeds {!Waits_for} only.

    The held record is the only per-thread record of held locks: the
    profiler's holder class and the waits-for hold edges ({!holds}) come
    from it.  It is exact per lock instance, domain-local, cleared by
    {!Run_reset}, and kept whether or not checking or wait tracking is
    on (the section-7 buggy variants turn checking off and must still be
    explainable). *)

type site
(** A lock (or one side of it), built once when the lock is made: name,
    waits-for resource, and the profile class and span label, which are
    built at the first acquisition. *)

val site : name:string -> Waits_for.resource -> site

val with_res : site -> Waits_for.resource -> site
(** The same site over another resource, without building strings: a
    range lock waits for and holds each exact range. *)

val held : tid:int -> (string * Waits_for.resource) list
(** What thread [tid] holds (site name, resource), innermost first. *)

val held_threads : unit -> int
(** Threads holding anything; a thread is dropped once it holds
    nothing. *)

val holds : unit -> (Waits_for.resource * (int * string) list) list
(** Each held resource with its holders (tid, name) in acquisition
    order, sorted by resource. *)

module Make (M : Machine_intf.MACHINE) : sig
  val wait_begin : site -> unit
  (** Sets the spin hint and, when waits are tracked, the wait edge. *)

  val wait_end : site -> unit

  val acquired :
    ?blocker:M.thread -> site -> spins:int -> wait_cycles:int -> unit
  (** Contended iff [spins > 0]; [blocker] is the thread waited behind,
      for blocked-by attribution.  A successful try is an acquisition
      with zero spins; a failed try is not reported. *)

  val released : ?held_cycles:int -> site -> unit
  (** Without [held_cycles] the hold is untimed (read holds) and is not
      observed in ["lock.hold_cycles"]. *)

  val downgraded : held_cycles:int -> unit
  (** A write hold became a read hold: observes the write hold time;
      the held entry and the span stay open. *)
end
