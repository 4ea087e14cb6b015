(** The lock-event pipeline: one call per lock transition.

    [Simple_lock], [Complex_lock], [Range_lock] and the raw read and
    write sides of [Brlock] and [Scache_rwlock] report every blocking
    attempt, wait, acquisition and release here.  An acquisition or
    release feeds, in this order, the ["lock.*"] metrics,
    {!Mach_obs.Obs_profile}, {!Mach_obs.Obs_span}, {!Mach_obs.Obs_trace}
    and the thread's context ({!Thread_ctx}); an attempt feeds the
    profiler's lock-order record; a wait feeds the context's wait edges
    only.

    A hold is pushed on the acquiring thread's context whether or not
    checking or wait tracking is on (the section-7 buggy variants turn
    checking off and must still be explainable).  The profiler's holder
    class, the blocked-by holder context and the waits-for hold edges
    are all read from the contexts. *)

type site = Thread_ctx.site

val site : name:string -> Waits_for.resource -> site
val with_res : site -> Waits_for.resource -> site

(** Spans other than lock holds — event waits, IPC and VM operations —
    pushed on and popped from the running thread's context.  Each call
    is a no-op when spans are off.  A caller keeps one
    {!Mach_obs.Obs_span.tag} per site (per port, map or event), so
    neither entering nor closing a span builds a label. *)
module Spans (M : Machine_intf.MACHINE) : sig
  val enter : Mach_obs.Obs_span.tag -> unit
  (** Open a span at the tag's site. *)

  val exit : Mach_obs.Obs_span.tag -> unit
  (** Close the innermost open span entered with this tag.  No-op if
      none is open (unbalanced calls are tolerated, never fatal). *)

  val exit_kind : Mach_obs.Obs_span.kind -> unit
  (** Close the innermost open span of the kind, whatever its site —
      for waiters that cannot cheaply recover the site name at wake. *)
end

module Make (M : Machine_intf.MACHINE) : sig
  val attempt : site -> unit
  (** Before a lock can wait (a deadlock's last attempt never completes):
      an order edge from each lock held to this one.  Try-acquires,
      recursive and upgrade requests are no attempts. *)

  val wait_begin : site -> unit
  (** Sets the spin hint and, when waits are tracked, the wait edge. *)

  val wait_end : site -> unit

  val acquired :
    ?blocker:M.thread -> site -> spins:int -> wait_cycles:int -> unit
  (** Contended iff [spins > 0]; [blocker] is the thread waited behind,
      for blocked-by attribution.  A successful try is an acquisition
      with zero spins; a failed try is not reported. *)

  val untimed : int
  (** The [held_cycles] of an untimed hold (a read hold). *)

  val released : site -> held_cycles:int -> unit
  (** Removes this exact site's innermost hold.  An {!untimed} hold is
      not observed in ["lock.hold_cycles"]. *)

  val downgraded : held_cycles:int -> unit
  (** A write hold became a read hold: observes the write hold time;
      the hold and its span stay open. *)
end
