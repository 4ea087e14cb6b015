(** The per-thread context: everything the kernel layers keep about one
    thread — what it holds, what it is doing, what it waits for.

    The paper ties every lock hold to a thread ("holding of a lock is
    always associated with a thread", section 4).  The machine creates
    one context with each thread, and code reaches it as
    [M.context (M.self ())].  In interrupt context that is the
    interrupted thread's context, or the cpu's idle identity's on an
    idle cpu.

    The context holds:
    - one stack, innermost first, of lock holds and open spans;
    - the waits-for wait edges and the event the thread was last woken
      from;
    - the blocking-rule counters of Appendices A and B.

    A lock hold is pushed whether or not spans are on: the section 7
    buggy variants turn checking off and must still be explainable.
    When spans are on, a hold is also the lock's span.  Span entries are
    pushed only when spans are on.

    Only the owning thread changes its context, with two exceptions that
    run on the simulator alone (where every thread of a run shares one
    domain): an event's waker retires the woken thread's wait edge, and
    blocked-by attribution reads the blocker's stack.  Wait tracking and
    spans are never on natively. *)

(** {1 Lock sites} *)

type site = {
  name : string;
  mutable cls : string;  (** profile class; [""] until first reported *)
  mutable span : Mach_obs.Obs_span.tag;
      (** span tag ["lock:name"]; a placeholder until first reported *)
  res : Waits_for.resource;
  mutable prof : Mach_obs.Obs_profile.class_stats;
      (** the class record of generation [gen] *)
  mutable ordered : string list;
      (** held classes with an order edge to this site already recorded
          in generation [gen] *)
  mutable gen : int;  (** the profile generation of [prof] and [ordered] *)
}
(** A lock (or one side of it), built once when the lock is made. *)

val site : name:string -> Waits_for.resource -> site

val refresh : site -> unit
(** Make the site's records current before it reports: the class and
    span tag are built at the first call, and the class record is
    resolved again (and [ordered] emptied) when the profile generation
    has moved. *)

val with_res : site -> Waits_for.resource -> site
(** The same site over another resource: a range lock waits for and
    holds each exact range.  Each call makes a new site, so a hold of
    one range is told apart from a hold of another. *)

(** {1 The context} *)

type entry =
  | Hold of { site : site; seq : int; t0 : int }
      (** A lock hold: [seq] orders the holders of one resource by
          acquisition; [t0] is the span start clock (0 when spans are
          off). *)
  | Span of { tag : Mach_obs.Obs_span.tag; t0 : int }

type t = {
  tid : int;
  tname : string;
  mutable stack : entry list;  (** innermost first *)
  mutable waits : Waits_for.resource list;  (** innermost first *)
  mutable last_event : int option;
      (** the event this thread was most recently woken from *)
  mutable simple_locks_held : int;
  mutable complex_spin_locks_held : int;
  mutable in_assert_wait : bool;
}

val make : tid:int -> name:string -> t

val clear : t -> unit
(** Empty everything: for an identity that outlives a run. *)

val next_seq : unit -> int
(** The next acquisition sequence number of this run. *)

val take : t -> ('a -> entry -> bool) -> 'a -> entry option
(** [take t matches key] removes and returns the innermost entry [e]
    with [matches key e].  The innermost entry of all, the usual case,
    is popped without rebuilding the stack. *)

val held : t -> (string * Waits_for.resource) list
(** The lock holds (site name, resource), innermost first. *)

val describe_holds : t -> string
(** The held site names, innermost first, for panic messages. *)

(** {1 Waits} *)

val note_wait : t -> Waits_for.resource -> unit
(** The thread is about to block or spin on the resource. *)

val wait_done : t -> Waits_for.resource -> unit
(** The wait ended.  May be called by the waking thread on the woken
    thread's context; an event wait also becomes [last_event]. *)

(** {1 Readers over many contexts} *)

val open_spans : t -> (string * int) list
(** Span label and start clock of each entry, innermost first.
    Meaningful only when spans are on. *)

val holder_context : t -> Mach_obs.Obs_span.tag -> string
(** The label of the span enclosing the thread's span [wanted]: what the
    holder was doing when it took the resource.  Falls back to the
    innermost span, then to ["(top-level)"]. *)

val wait_edges : t list -> (int * string * Waits_for.resource) list
(** Every outstanding wait edge (tid, name, resource), sorted. *)

val hold_edges : t list -> (Waits_for.resource * (int * string) list) list
(** Each held resource with its holders (tid, name) in acquisition
    order, sorted by resource. *)
