(** The spin protocol behind a simple lock.

    Appendix A of the paper: "the only machine dependency is the simple
    lock implementation".  A protocol is that implementation: the
    section 2 tas/ttas family over one cell ({!Spin}) and the lib/locks
    queue locks (ticket, MCS, Anderson, the writer sides of the
    big-reader and scache locks) all satisfy [S].  {!Simple_lock} — and
    through it {!Complex_lock} — calls the protocol it was given through
    one path, so checking, statistics, waits-for edges and observability
    are the same for every protocol.

    The types live in lib/core (next to {!Machine_intf}) so that the
    protocol implementations in lib/locks can depend on lib/core without
    a cycle. *)

module type S = sig
  type t

  val proto_name : string
  (** Short protocol name ("tas+ttas", "ticket", "mcs", ...), used in
      stats tables and diagnostics. *)

  val make : name:string -> t
  (** Allocate one lock's protocol state, unlocked. *)

  val acquire : t -> int
  (** Spin until the lock is held; returns the number of spin iterations
      (0 = uncontended first-try acquisition). *)

  val try_acquire : t -> bool
  (** One bounded attempt; never spins waiting for another thread. *)

  val release : t -> unit
  (** Release; only ever called by the holding thread (enforced by the
      {!Simple_lock} checking layer, not here). *)

  val is_locked : t -> bool
  (** Momentary observation, diagnostics only. *)
end

(** A protocol is the module itself. *)
type t = (module S)

let name ((module P) : t) = P.proto_name

(** One lock's state packed with its protocol's operations: what a simple
    lock stores. *)
type instance = Instance : (module S with type t = 'a) * 'a -> instance

let make ((module P) : t) ~name = Instance ((module P), P.make ~name)
let acquire (Instance ((module P), l)) = P.acquire l
let try_acquire (Instance ((module P), l)) = P.try_acquire l
let release (Instance ((module P), l)) = P.release l
let is_locked (Instance ((module P), l)) = P.is_locked l
