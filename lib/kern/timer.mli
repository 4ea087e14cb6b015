(** The Mach timing facility: lock-free usage timers (paper, section 2;
    Black, "The Mach Timing Facility", USENIX Mach Workshop 1990).

    Section 2 notes that the Mach kernel's operation coordination is based
    on multiprocessor locking "with the exception of access to timer data
    structures in its usage timing subsystem": timers are charged on every
    context switch and interrupt, so a lock would be paid constantly.
    Instead, each timer has a {e single writer} (the processor that owns
    it) and uses a checked multi-word read so that readers on other
    processors detect torn reads and retry — coordination that works
    precisely because "other restrictions ensure that only a single
    processor can attempt to change the data structure at a time".

    The value is held as [high * low_modulus + low]; the writer bumps
    [low], and on carry updates [high] first and a [check] copy of [high]
    second.  A reader snapshots [check], then [low], then [high]: if
    [high = check] no carry happened in the window and the snapshot is
    consistent.  {!read_unchecked} omits the protocol — the anti-test and
    the benchmark use it to show both why the check is needed and how
    little it costs. *)

type t

val low_modulus : int
(** Carry boundary for the low word (small, so that the torn-read window
    is easy to demonstrate; the original used the hardware tick width). *)

val create : ?name:string -> owner_cpu:int -> unit -> t
val owner_cpu : t -> int

val tick : t -> cycles:int -> unit
(** Charge usage.  Writer side: may only be called on the owning cpu
    (panic otherwise — this is the "other restriction" that stands in for
    a lock). *)

val read : t -> int
(** Reader side, any cpu: the checked snapshot protocol; retries until
    consistent.  Never blocks, takes no lock. *)

val read_unchecked : t -> int
(** A deliberately naive reader that can return torn values during a
    carry.  For demonstration only. *)

(** {1 Per-processor usage aggregation} *)

module Usage : sig
  type u

  val create : cpus:int -> u
  val timer : u -> cpu:int -> t
  val charge_current_cpu : u -> cycles:int -> unit
  val total : u -> int
  (** Sum of all processors' timers, each read with the checked
      protocol. *)
end
