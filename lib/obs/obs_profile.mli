(** The contention profiler and the lock-order record.

    Aggregates lock acquisitions by {e lock class} (the lock's name with
    digits deleted, so "slock12" and "slock40" profile together), and
    keeps one record of nested lock requests keyed by (held class,
    wanted class).  [Mach_core.Lock_events] feeds it an edge from each
    held lock at every blocking attempt, and a count on the edge from
    the innermost held lock at every contended acquisition: the
    waits-for edge list.  A cycle among the attempted edges is a
    potential deadlock (sections 4 and 7), found with no declarations on
    a run that completes.  Mutex-protected; process-wide until {!reset},
    so edges learned on different runs can close a cycle. *)

type class_stats = {
  cls : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable hold_cycles : int;
  wait_hist : Obs_histogram.t;
}

val class_of_name : string -> string
(** Lock name -> class: digits deleted; "lock" when nothing remains. *)

(** {1 Recording} (called from the lock layer)

    A lock site resolves its class record once per {!generation} and
    records into it: the class name is looked up on that cold step
    only, and every update is made under the profiler's mutex. *)

val resolve : string -> class_stats
(** The record of class [cls] in the current {!generation}, made at the
    class's first use; {!classes} lists it until the next {!reset}. *)

val placeholder : class_stats
(** A record of no class, for a site not yet resolved; never recorded
    into. *)

val note_acquire :
  class_stats ->
  holder:string option ->
  contended:bool ->
  wait_cycles:int ->
  unit
(** Record an acquisition of the class; when contended, also counts the
    waits-for edge from [holder] (the class of the acquiring thread's
    innermost held lock) unless it is the class itself. *)

val note_release : class_stats -> held_cycles:int -> unit
(** Record a release of the class held for [held_cycles] (0: untimed). *)

val note_attempt :
  held:string -> wanted:string -> witness:string * string * string -> unit
(** A blocking attempt on class [wanted] while holding class [held]; the
    edge keeps its first witness (thread, held lock, wanted lock). *)

val generation : unit -> int
(** Changes at every {!reset}, which a lock site's resolved class record
    and its memo of recorded edges outlive. *)

val note_finding : string -> unit
(** A same-spl mismatch with checking off; each distinct text once. *)

(** {1 Reading} *)

val first_attempt_rate : class_stats -> float
(** Fraction of acquisitions that succeeded without contention — the
    quantity behind the paper's "most locks in a well designed system are
    acquired on the first attempt" (section 2).  1.0 when the class has
    no acquisitions. *)

val classes : unit -> class_stats list
(** All classes, sorted by name. *)

val top : n:int -> class_stats list
(** Top [n] classes by accumulated wait cycles. *)

val edges : unit -> (string * string * int) list
(** The contended view: waits-for edges (holder class, wanted class,
    count), most frequent first. *)

val order_findings : unit -> string list
(** The potential deadlocks: each order cycle with its edges' witnesses,
    then the noted findings in the order seen.  A lock and its own
    ["<name>.interlock"] are no order (their edges stay in {!edges}). *)

val reset : unit -> unit

val pp_report : ?top_n:int -> Format.formatter -> unit -> unit
(** The contention table (top classes with first-attempt rate and wait
    percentiles), the waits-for edge list and any findings. *)

val to_json : unit -> Obs_json.t
(** Classes and waits-for edges. *)
