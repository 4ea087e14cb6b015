(** Deadlock-avoidance conventions for lock acquisition (paper, section 5).

    Each kernel subsystem incorporates usage conventions preventing
    deadlock; the range of possible protocols precludes a single lock
    hierarchy.  This module packages the three conventions the paper
    names, plus a runtime discipline checker:

    - order acquisitions by object type (class ranks);
    - order two same-type locks by address ({!lock_both_by_uid});
    - a backout protocol for acquiring two locks in the reverse of the
      usual order: a single attempt on the second lock, failure releasing
      the first to be reacquired later ({!backout_lock_pair}). *)

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) : sig
  (** {1 Class-rank discipline checker} *)

  type cls

  val define_class : name:string -> rank:int -> cls
  (** Declare a lock class; locks of a lower-ranked class must be acquired
      before locks of a higher-ranked class (e.g. memory map before memory
      object). *)

  val class_name : cls -> string
  val class_rank : cls -> int

  val note_acquire : cls -> unit
  (** Record that the current thread acquired a lock of this class (a
      rank entry on its context); if the thread already holds a class of
      strictly greater rank {e anywhere} in its stack, an order violation
      naming that class is recorded. *)

  val note_release : cls -> unit

  val reset_held : unit -> unit
  (** Drop the current thread's held classes.  Nothing else needs
      resetting between runs: the classes are held on the thread's
      context, and a new run has new threads. *)

  val violations : unit -> string list
  (** Violations recorded so far (most recent first). *)

  val clear_violations : unit -> unit

  val set_fatal_violations : bool -> unit
  (** When true, an order violation panics instead of being recorded. *)

  (** {1 Same-type pairs, ordered by address} *)

  val lock_both_by_uid : Slock.t -> Slock.t -> unit
  (** Acquire two locks of the same type in uid (address) order; safe
      against another thread locking the same pair. *)

  val unlock_both : Slock.t -> Slock.t -> unit

  (** {1 Backout protocol} *)

  val backout_lock_pair : first:Slock.t -> second:Slock.t -> int
  (** Acquire [second] then [first] when convention orders them
      [first]-then-[second]: hold [second]... — concretely: lock [first];
      a single attempt on [second]; on failure release [first] and retry
      after a capped exponential backoff (the [spin_max_backoff] cap).
      Returns the number of backouts that were needed. *)
end
