(** The section 2 spin protocols over one test-and-set cell.

    Section 2 of the paper describes the progression of spin protocols on
    cached multiprocessors: plain test-and-set wastes bus bandwidth while
    spinning; test-and-test-and-set spins on an ordinary (cacheable) read
    and attempts the atomic instruction only when the lock appears free; a
    further refinement attempts the atomic instruction first, resorting to
    test-and-test-and-set only if that fails — exploiting the observation
    that most locks in a well designed system are acquired on the first
    attempt.  [ttas_backoff] adds bounded exponential backoff as a modern
    extension (flagged as such in DESIGN.md).

    Each is a {!Lock_proto.t} whose state is one cell (0 free, 1 held);
    only the acquisition loop differs. *)

module Make (M : Machine_intf.MACHINE) : sig
  val tas : Lock_proto.t
  (** "tas": always spin on the atomic test-and-set. *)

  val ttas : Lock_proto.t
  (** "ttas": test and test-and-set. *)

  val tas_then_ttas : Lock_proto.t
  (** "tas+ttas": one test-and-set attempt, then test-and-test-and-set;
      the {!Simple_lock} default. *)

  val ttas_backoff : Lock_proto.t
  (** "ttas-backoff": test-and-test-and-set with capped exponential
      backoff (the machine's [spin_max_backoff]). *)

  val spin : Lock_proto.t list
  (** The four, in the order above. *)
end
