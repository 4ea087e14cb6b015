(** Causal spans, blocked-by attribution and the flight recorder.

    A span brackets one causally meaningful interval on a thread — a lock
    hold (acquire -> release), an event wait (assert_wait -> wake), an IPC
    send/receive, a VM fault (fault -> resolve) — identified by an
    acquire-site label ["kind:name"].  Spans nest per thread.  The open
    spans are kept on each thread's context in lib/core
    ([Mach_core.Thread_ctx]): they are "what the thread is doing right
    now", which is what blocked-by attribution reports about a lock
    holder.  This module keeps what outlives a span: the per-site
    statistics, the blocked-by edges and the flight recorder.

    The engine switches the layer on from [cfg.spans] ({!set_enabled}).
    Callers check {!enabled} before reporting; recording never consumes
    engine randomness nor charges simulated cycles — a spans-on run is
    schedule- and stats-identical to a spans-off run.

    Post-run readers use {!last}: at run end the engine {!latch}es the
    finished run's tables (before the [Run_reset] hook clears the live
    ones), and the view is built from them when it is first read; in-run
    post-mortems (the deadlock flight dump) read the live tables. *)

type kind = Lock | Event | Ipc | Vm

val kind_name : kind -> string
(** "lock" / "event" / "ipc" / "vm". *)

(** {1 Gate (engine-managed)} *)

val set_enabled : bool -> unit

val enabled : unit -> bool
(** True iff spans are on; guard label construction at call sites that
    build names dynamically. *)

(** {1 Recording} *)

type tag
(** A span site as its caller keeps it, built once per lock, port, map
    or event: the label ["kind:name"], and the current run's site
    record, looked up by label at the tag's first record in each run.
    Two tags with one label record into one site. *)

val tag : kind -> string -> tag
(** The tag of site ["kind:name"]. *)

val tag_kind : tag -> kind
val tag_label : tag -> string

val close : tag -> t0:int -> t1:int -> cpu:int -> tname:string -> unit
(** One span closed on thread [tname] running on [cpu]: updates the
    site's stats, writes the span into the cpu's flight ring, and emits
    an {!Obs_event.Span_close} when tracing is on.  Allocates nothing
    once the tag is resolved in the run. *)

val blocked : tag -> holder:string -> wait_cycles:int -> unit
(** Record one contended wait: the running thread wanted the site of
    the tag while another thread held it, inside its span [holder] (the
    span enclosing its hold — what the holder was doing when it took the
    resource).  Accumulates an edge from the wanted site to [holder],
    weighted by count and [wait_cycles]. *)

(** {1 Views} *)

type site = {
  s_label : string;
  s_kind : kind;
  mutable s_spans : int;  (** closed spans *)
  mutable s_busy : int;  (** total closed duration (hold/service cycles) *)
  mutable s_max : int;  (** longest single span *)
  mutable s_blocked : int;  (** contended waits against this site *)
  mutable s_blocked_cycles : int;
}

type flight_span = {
  f_label : string;
  f_tname : string;
  f_cpu : int;
  f_t0 : int;
  f_t1 : int;
}

type edge = {
  e_wanted : string;
  e_holder : string;
  mutable e_count : int;
  mutable e_cycles : int;
}

type view = {
  v_sites : site list;  (** sorted by label *)
  v_edges : edge list;  (** heaviest (blocked cycles) first *)
  v_flight : (int * flight_span list) list;
      (** per cpu, the newest 16 spans, oldest first; a negative cpu is
          reported as -1 *)
  v_open : int;  (** spans still open when the view was taken *)
}

val empty_view : view

val latch : open_spans:int -> unit
(** Keep the live tables as the last run's, with [open_spans] spans
    still open, and record into the previous last run's tables, cleared,
    from now on; the engine calls this at run end, before [Run_reset]
    clears the live tables.  Nothing is copied or sorted here. *)

val last : unit -> view option
(** The view of the tables latched at the end of the most recent run, if
    any, built at the first read after the latch.  A view, once read, is
    not changed by later runs. *)

val reset : unit -> unit
(** Clear the live tables (sites, edges, flight rings; the rings keep
    their arrays) and invalidate every tag's resolved site; the engine
    registers this with [Run_reset].  The gate and the latched view are
    left alone. *)

(** {1 Rendering} *)

val pp_blockers : ?top_n:int -> Format.formatter -> view -> unit
(** Lockstat-style table: per-site span/hold/blocked breakdown followed
    by the blocked-by edges (wanted <- holder context). *)

val pp_flight : Format.formatter -> view -> unit
(** The flight-recorder dump (most recent spans per cpu); prints nothing
    for an empty recorder. *)

val flight_dump : open_spans:(string * (string * int) list) list -> string
(** {!pp_flight} of the live flight rings, followed by [open_spans]:
    each thread's name and its still-open spans (label, start clock),
    innermost first, in the order given (at a hang, what every thread
    still holds is the evidence the cycle is made of); [""] when both are
    empty.  Appended to the engine's deadlock/livelock reports. *)

val to_json : view -> Obs_json.t
