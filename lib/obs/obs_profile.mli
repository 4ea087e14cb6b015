(** The contention profiler.

    Aggregates lock acquisitions by {e lock class} (the lock's name with
    digits deleted, so "slock12" and "slock40" profile together) and
    maintains a waits-for edge list: each contended acquisition records an
    edge from the most recently acquired still-held lock class of the
    acquiring thread to the wanted class.  A cycle among those edges is
    the shape of the paper's deadlocks (section 4, section 7).

    Fed by [Mach_core.Lock_events], which keeps the per-thread record of
    held locks and supplies that holder class; read by
    [machsim profile], the bench harness, and [examples/locking_tour].
    All entry points are mutex-protected and safe from native domains. *)

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

(** {1 Recording} (called from the lock layer) *)

val note_acquire :
  cls:string ->
  holder:string option ->
  contended:bool ->
  wait_cycles:int ->
  unit
(** Record an acquisition of class [cls]; when contended, also records a
    waits-for edge from [holder] (the class of the acquiring thread's
    innermost held lock) unless it is [cls] itself. *)

val note_release : cls:string -> held_cycles:int -> unit
(** Record a release of class [cls] held for [held_cycles] (0: untimed). *)

(** {1 Reading} *)

val first_attempt_rate : class_stats -> float
(** 1.0 when the class has no acquisitions (mirrors
    {!Mach_core.Lock_stats.first_attempt_rate}). *)

val classes : unit -> class_stats list
(** All classes, sorted by name. *)

val top : n:int -> class_stats list
(** Top [n] classes by accumulated wait cycles. *)

val edges : unit -> (string * string * int) list
(** Waits-for edges (holder class, wanted class, count), most frequent
    first. *)

val reset : unit -> unit

val pp_report : ?top_n:int -> Format.formatter -> unit -> unit
(** The contention table (top classes with first-attempt rate and wait
    percentiles) followed by the waits-for edge list. *)

val to_json : unit -> Obs_json.t
