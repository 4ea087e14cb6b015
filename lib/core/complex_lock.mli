(** Complex locks: the machine-independent Multiple (readers/writer), Sleep
    and Recursive locking protocols (paper, section 4 and Appendix B).

    A complex lock is implemented by a data structure containing a simple
    lock (the {e interlock}) protecting its state — so the only machine
    dependency remains the simple lock implementation.

    Protocol summary (section 4):
    - {b Multiple}: multiple readers / single writer, {e writers' priority}:
      readers may not be added while a write request is outstanding, which
      guarantees the lock drains to the writer (no writer starvation).
    - {b Upgrades} ([read_to_write]) are favored over writes; a second
      concurrent upgrade request fails, {e releasing the read lock}, to
      avoid deadlocked upgrades.
    - {b Sleep}: when enabled, requestors block instead of spinning and
      holders may block while holding the lock.  When disabled the lock may
      not be held across blocking operations.
    - {b Recursive}: lets a single holder recursively acquire the lock.
      The lock must be held for write when the option is set; after a
      downgrade only recursive read acquisitions are permitted.  The
      holder's recursive requests are not blocked by pending write or
      upgrade requests. *)

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M))
    (E : module type of Event.Make (M) (Slock)) : sig
  type t

  val make : ?name:string -> ?proto:Lock_proto.t -> can_sleep:bool -> unit -> t
  (** [lock_init]: declare and initialize.  [can_sleep] enables the Sleep
      option (most complex locks use it, including the memory-map lock).
      [proto] is the spin protocol of the interlock guarding the lock's
      state ({!Simple_lock.Make.make}'s default when absent), so a complex
      lock can ride any protocol, a lib/locks queue lock included (the
      machine-independent layer is untouched; only the interlock's spin
      changes, per the paper's section 4 split). *)

  (** {1 Locking and unlocking (Appendix B.2)} *)

  val lock_read : t -> unit
  val lock_write : t -> unit

  val lock_read_to_write : t -> bool
  (** Upgrade a read lock to a write lock.  Returns [true] when the upgrade
      {e failed} because another upgrade was pending — in that case the
      read lock has been {e released} and the caller must recover (the
      behaviour section 7.1 found burdensome in practice). *)

  val lock_write_to_read : t -> unit
  (** Downgrade; cannot fail and needs no recovery logic in the caller —
      the alternative section 7.1 recommends over upgrades. *)

  val lock_done : t -> unit
  (** Release: the lock is held either by one writer or by one or more
      readers, so [lock_done] can always determine how it is held. *)

  (** {1 Single attempts (Appendix B.3)} *)

  val lock_try_read : t -> bool
  val lock_try_write : t -> bool

  val lock_try_read_to_write : t -> bool
  (** Returns [false] if the upgrade would deadlock (another upgrade
      pending) {e without} dropping the read lock; otherwise may wait for
      other readers to drain and returns [true] holding the write lock.
      (We implement the documented intent; Appendix B notes the Mach 2.5
      version had a bug making it block even with Sleep disabled.) *)

  (** {1 Options (Appendix B.4)} *)

  val lock_sleepable : t -> bool -> unit
  val lock_set_recursive : t -> unit
  val lock_clear_recursive : t -> unit

  (** {1 Convenience} *)

  val with_read : t -> (unit -> 'a) -> 'a
  val with_write : t -> (unit -> 'a) -> 'a

  (** {1 Diagnostics} *)

  val name : t -> string
  val read_count : t -> int
  val held_for_write : t -> bool
  val held_for_write_by_self : t -> bool

  val pending_write_request : t -> bool
  (** A writer has claimed the lock (holds it or is draining readers) —
      the condition that excludes new readers under writers' priority. *)

  val pending_upgrade : t -> bool
  (** An upgrade is pending or an upgrader holds the lock for write. *)

  val can_sleep : t -> bool

  val set_writers_priority : t -> bool -> unit
  (** Ablation switch for experiment E4: when disabled, readers are admitted
      past a pending write request (only an actually-held write excludes
      them), exhibiting writer starvation under read-heavy load.  Not part
      of the Mach interface. *)
end
