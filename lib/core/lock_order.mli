(** Deadlock-avoidance conventions for lock acquisition (paper, section 5).

    Each kernel subsystem incorporates usage conventions preventing
    deadlock; the range of possible protocols precludes a single lock
    hierarchy.  The paper names three conventions:

    - order acquisitions by object type, learned from every run
      ({!Mach_obs.Obs_profile.order_findings});
    - order two same-type locks by address ({!lock_both_by_uid});
    - a backout protocol for acquiring two locks in the reverse of the
      usual order: a single attempt on the second lock, failure releasing
      the first to be reacquired later ({!backout_lock_pair}). *)

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) : sig
  (** {1 Same-type pairs, ordered by address} *)

  val lock_both_by_uid : Slock.t -> Slock.t -> unit
  (** Acquire two locks of the same type in uid (address) order; safe
      against another thread locking the same pair. *)

  val unlock_both : Slock.t -> Slock.t -> unit

  (** {1 Backout protocol} *)

  val backout_lock_pair : first:Slock.t -> second:Slock.t -> int
  (** Hold both locks, taking them against the usual order: lock
      [first]; a single attempt on [second]; on failure release [first],
      make one spin pause and start again.  Returns the number of
      backouts that were needed. *)
end
