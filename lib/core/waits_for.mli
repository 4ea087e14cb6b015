(** Runtime waits-for graph: the resources a thread can wait for or
    hold.  The exact per-instance wait edges are recorded on the waiting
    thread's context ({!Thread_ctx.note_wait}); the hold edges are the
    lock holds on the same contexts ({!Thread_ctx.hold_edges}), kept
    whether or not waits are tracked.

    The simulator turns tracking on for every run; it is off on native
    machines, which run no detector.  Every call site skips recording a
    wait after checking {!tracking} (one domain-local read). *)

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

val note_event_resource : event:int -> resource -> unit
(** Declare that an event id belongs to a higher-level resource (e.g. a
    complex lock's internal event); the detector follows the alias.  Like
    event ids, aliases belong to the calling domain's current run. *)

val event_resource : event:int -> resource option
