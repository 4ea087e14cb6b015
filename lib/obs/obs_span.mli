(** Causal spans, blocked-by attribution and the flight recorder.

    A span brackets one causally meaningful interval on a thread — a lock
    hold (acquire -> release), an event wait (assert_wait -> wake), an IPC
    send/receive, a VM fault (fault -> resolve) — identified by an
    acquire-site label ["kind:name"].  Spans nest per thread; the stack of
    a thread's open spans is "what it is doing right now", which is what
    blocked-by attribution reports about a lock holder.

    Recording is doubly gated like {!Obs_trace}: the engine installs the
    clock/identity callbacks ({!install}) at run start and switches the
    layer on from [cfg.spans] ({!set_enabled}).  When either gate is off
    every entry point is a near-free no-op, and recording never consumes
    engine randomness nor charges simulated cycles — a spans-on run is
    schedule- and stats-identical to a spans-off run.

    Post-run readers use the {!view} the engine {!latch}es at run end
    (before the [Run_reset] hook clears the live tables); in-run
    post-mortems (the deadlock flight dump) read {!current}. *)

type kind = Lock | Event | Ipc | Vm

val kind_name : kind -> string
(** "lock" / "event" / "ipc" / "vm". *)

type ctx = {
  now : unit -> int;  (** current simulated clock, cycles *)
  tid : unit -> int;  (** running thread id *)
  tname : unit -> string;  (** running thread name *)
  cpu : unit -> int;  (** current cpu (-1 off-cpu) *)
}

(** {1 Gates (engine-managed)} *)

val install : ctx option -> unit
val set_enabled : bool -> unit

val enabled : unit -> bool
(** True iff a context is installed and spans are on; guard label
    construction at call sites that build names dynamically. *)

(** {1 Recording} *)

val label : kind -> string -> string
(** ["kind:name"]; the lock layer builds it once per lock for the
    [_label] entry points. *)

val enter : kind -> string -> unit
(** Open a span at site ["kind:name"] on the running thread. *)

val enter_label : kind -> string -> unit

val exit : kind -> string -> unit
(** Close the running thread's innermost open span matching the site;
    updates site stats, appends to the cpu's flight ring, and emits an
    {!Obs_event.Span_close} when tracing is on.  No-op if no span at that
    site is open (unbalanced calls are tolerated, never fatal). *)

val exit_label : string -> unit

val exit_kind : kind -> unit
(** Close the innermost open span of the given kind regardless of site —
    for waiters that cannot cheaply recover the site name at wake. *)

val blocked :
  kind:kind -> label:string -> holder_tid:int -> wait_cycles:int -> unit
(** Record one contended wait: the running thread wanted the site
    [label] while [holder_tid] held it.  Accumulates an edge from
    the wanted site to the holder's acquire-site context (the span
    enclosing its hold — what the holder was doing when it took the
    resource) weighted by count and [wait_cycles]. *)

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
  v_flight : (int * flight_span list) list;  (** per cpu, oldest first *)
  v_open : int;  (** spans still open when the view was taken *)
}

val empty_view : view

val current : unit -> view
(** Snapshot of the live (in-run) state. *)

val latch : unit -> unit
(** Freeze {!current} as the last-run view; the engine calls this at run
    end, before [Run_reset] clears the live tables. *)

val last : unit -> view option
(** The view latched at the end of the most recent run, if any. *)

val reset : unit -> unit
(** Clear the live tables (sites, stacks, edges, flight rings); the
    engine registers this with [Run_reset].  Gates and the latched view
    are left alone. *)

(** {1 Rendering} *)

val pp_blockers : ?top_n:int -> Format.formatter -> view -> unit
(** Lockstat-style table: per-site span/hold/blocked breakdown followed
    by the blocked-by edges (wanted <- holder context). *)

val pp_flight : Format.formatter -> view -> unit
(** The flight-recorder dump (most recent spans per cpu); prints nothing
    for an empty recorder. *)

val flight_dump : unit -> string
(** {!pp_flight} of {!current}, followed by each thread's still-open
    spans (at a hang, what every thread still holds is the evidence the
    cycle is made of); [""] when both are empty.  Appended to the
    engine's deadlock/livelock reports. *)

val to_json : view -> Obs_json.t
