(** Runtime waits-for graph: exact per-instance wait edges reported by
    the lock layers and consumed by the engine's deadlock detector.  The
    hold edges are {!Lock_events.holds}, derived from the lock layer's
    record of held locks, which is kept whether or not waits are tracked.

    Tracking is off by default; when off, every [note_*] call site is
    expected to skip the call after checking {!tracking} (one
    domain-local read).  All edge state is domain-local so parallel seed
    sweeps do not see each other's edges; {!reset} (registered with
    {!Run_reset}) clears it between runs. *)

type resource =
  | Slock of { uid : int; name : string }
  | Clock of { uid : int; name : string }
  | Event of { id : int }
  | Rendezvous of { name : string }
  | Range of { uid : int; name : string; lo : int; hi : int }
      (** One held or wanted range of a range lock; waiters on an
          overlapping range report a wait edge against each conflicting
          holder's exact [Range] node. *)

val res_label : resource -> string
(** Human-readable name ("simple lock the-lock", "event 7", ...). *)

val res_id : resource -> string
(** Stable identifier usable as a graph node id. *)

val tracking : unit -> bool
val set_tracking : bool -> unit

val note_wait : tid:int -> tname:string -> resource -> unit
(** The thread is about to block/spin on [res]. *)

val note_wait_done : tid:int -> resource -> unit
(** The wait on [res] ended (satisfied or cancelled).  May be called by
    the waking thread (event wakeups). *)

val waits : unit -> (int * string * resource) list
(** All outstanding wait edges, sorted. *)

val waits_of : tid:int -> (string * resource) list

val last_event : tid:int -> int option
(** The event this thread was most recently woken from; used to explain
    lost wakeups (the wait edge is gone, the wakeup never arrived). *)

val note_event_resource : event:int -> resource -> unit
(** Declare that an event id belongs to a higher-level resource (e.g. a
    complex lock's internal event); the detector follows the alias. *)

val event_resource : event:int -> resource option
val reset : unit -> unit
