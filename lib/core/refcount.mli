(** Reference counting for existence coordination (paper, sections 2, 8).

    A reference guarantees that the data structure representing an object
    exists — it is safe to dereference a pointer to it — but makes no
    guarantee about the state of the object (alive, deactivated, ...).

    Rules enforced in checking mode, straight from section 8:
    - cloning requires an existing reference (the count can never come back
      from zero — no resurrection);
    - acquiring a reference never blocks and so may be done while holding
      other locks;
    - releasing a reference may destroy the object and hence block, so it
      may not be done while holding non-sleep locks nor between an
      [assert_wait] and the corresponding [thread_block]. *)

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M))
    (E : module type of Event.Make (M) (Slock)) : sig
  type t

  val make : ?name:string -> unit -> t
  (** An object is created with a single reference held by its creator. *)

  val clone : t -> unit
  (** Acquire an additional reference.  Never blocks.  Fatal (checking
      mode) if the count is zero — the caller did not hold the existing
      reference section 8 requires for cloning. *)

  val release : t -> [ `Live | `Last ]
  (** Drop a reference.  [`Last] means the count reached zero: there are no
      operations in progress, no pointers, and no way to invoke new
      operations — the caller must destroy the object.  Fatal (checking
      mode) when called while holding simple locks / non-sleep complex
      locks, or between [assert_wait] and [thread_block]. *)

  val release_not_last : t -> unit
  (** Drop a reference the caller knows is not the last (e.g. it holds
      another one); exempt from the blocking-context checks, fatal if it
      does turn out to be last. *)

  val count : t -> int
  val name : t -> string

  val set_checking : bool -> unit
  (** Domain-local, inherited by a spawned domain, as
      {!Simple_lock.Make.set_checking}. *)

  val checking : unit -> bool

  (** A hybrid of a reference and a lock (section 8): counts operations in
      progress {e and} excludes operations — such as object termination —
      that cannot proceed while the count is non-zero.  This is the
      memory object's paging-operations count.  All operations require the
      caller to hold the object's simple lock, which is released and
      reacquired around any wait. *)
  module Gated : sig
    type g

    val make : ?name:string -> object_lock:Slock.t -> unit -> g

    val enter : g -> bool
    (** Begin an operation: increment, unless the gate has been closed by
        {!close_and_drain} (returns false). *)

    val exit : g -> unit
    (** End an operation: decrement; at zero, wake any drainer. *)

    val in_progress : g -> int

    val wait_until_zero : g -> unit
    (** Wait (without closing the gate) until no operation is in progress.
        The object lock is dropped while waiting and held on return. *)

    val close_and_drain : g -> unit
    (** Forbid new entries, then wait for in-progress operations to finish
        — the termination side of the hybrid. *)

    val reopen : g -> unit
  end
end
