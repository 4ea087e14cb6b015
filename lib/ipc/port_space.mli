(** A port name space: integer names translated to ports, sharded across
    S independent hash tables each under its own simple lock (the E20
    "sharded port namespace" mechanism; S = 1 is the single global
    registry the sharded runs are measured against).

    The table holds one port reference per registered name.  {!lookup} is
    the translation step of the RPC hot path: under the shard lock it
    clones a port reference (guaranteed live by the table's own
    reference), so the returned port cannot vanish before the send.

    Lock order: shard lock strictly before any port lock — the table
    never acquires a port lock while holding a shard lock, and all
    reference releases that could be "the last one" happen outside the
    shard lock (paper, section 8). *)

type t

type insert_error = [ `Name_in_use ]

val create : ?name:string -> ?shards:int -> ?walk_cycles:int -> unit -> t
(** [shards] (default 1) independent tables; [walk_cycles] (default 0)
    simulated cycles charged inside the shard-lock critical section per
    operation, modeling the hash + chain walk the lock serializes. *)

val name : t -> string

val insert : t -> pname:int -> Port.t -> (unit, insert_error) result
(** Register [port] under [pname]; the table takes its own reference
    (cloned from the caller's, which the caller keeps). *)

val lookup : t -> pname:int -> Port.t option
(** Translate a name to a port, cloning a reference for the caller
    (release it when done).  A dead port found under a registered name is
    lazily purged — its table reference released outside the shard lock —
    and the lookup returns [None]. *)

val remove : t -> pname:int -> bool
(** Unregister [pname], releasing the table's port reference (outside the
    shard lock).  False if the name was not registered. *)

val size : t -> int
(** Total registered names across all shards (racy across shards; exact
    when quiescent). *)

val clear : t -> unit
(** Unregister everything, releasing all table references. *)
