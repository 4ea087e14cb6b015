(** Spin-acquisition protocols over a test-and-set cell.

    Section 2 of the paper describes the progression of spin protocols on
    cached multiprocessors: plain test-and-set wastes bus bandwidth while
    spinning; test-and-test-and-set spins on an ordinary (cacheable) read
    and attempts the atomic instruction only when the lock appears free; a
    further refinement attempts the atomic instruction first, resorting to
    test-and-test-and-set only if that fails — exploiting the observation
    that most locks in a well designed system are acquired on the first
    attempt.  [Ttas_backoff] adds bounded exponential backoff as a modern
    extension (flagged as such in DESIGN.md). *)

type protocol =
  | Tas            (** always spin on the atomic test-and-set *)
  | Ttas           (** test and test-and-set *)
  | Tas_then_ttas  (** one test-and-set attempt, then test-and-test-and-set *)
  | Ttas_backoff   (** test-and-test-and-set with exponential backoff *)

val all_protocols : protocol list

val protocol_name : protocol -> string

module Make (M : Machine_intf.MACHINE) : sig
  val acquire : protocol -> M.Cell.t -> int
  (** Spin until the cell is acquired (0 -> 1); returns the number of spin
      iterations that were needed (0 = acquired on the first attempt). *)

  val try_acquire : M.Cell.t -> bool
  (** A single test-and-set attempt. *)

  val release : M.Cell.t -> unit
  (** Reset the cell to 0. *)
end
