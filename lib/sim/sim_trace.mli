(** Bounded typed event trace for the simulator.

    One ring buffer per cpu (plus one for the scheduler), merged on read:
    a chatty cpu cannot evict other cpus' recent history.  Events carry
    the typed payloads of {!Mach_obs.Obs_event} rather than string tags,
    so tests can match on structure and the Chrome exporter can emit real
    args.  A run that does not trace makes no trace at all. *)

module Obs_event = Mach_obs.Obs_event
module Obs_json = Mach_obs.Obs_json

type event = {
  seq : int;           (** global record order, monotonically increasing *)
  step : int;          (** scheduler step at which the event occurred *)
  clock : int;         (** the cpu's cycle clock *)
  cpu : int;           (** -1 = the scheduler itself *)
  context : string;    (** thread or interrupt name *)
  ev : Obs_event.t;    (** the typed payload *)
}

type t

val make : ?cpus:int -> capacity:int -> unit -> t
(** [capacity] is the {e total} event budget; it is divided evenly over
    the per-cpu rings ([cpus]+1 of them, at least 1 slot each). *)

val capacity : t -> int
(** Total events the trace can retain (per-ring capacity × rings; may be
    slightly below the requested capacity due to even division). *)

val record :
  t -> step:int -> clock:int -> cpu:int -> context:string -> Obs_event.t -> unit
(** Append an event, evicting its ring's oldest when the ring is full. *)

val events : t -> event list
(** All retained events merged across rings, oldest first. *)

type drop_stats = {
  dropped_spans : int;  (** span records evicted by ring overflow *)
  dropped_events : int;  (** plain instants evicted by ring overflow *)
}

val drop_stats : t -> drop_stats
(** Records lost to ring overflow, counted by the kind
    ([Obs_event.is_span]) of the {e evicted} record (the one actually
    lost). *)

val pp_event : Format.formatter -> event -> unit
(** One line: step, cpu, clock, context, the event's constructor name
    ({!Obs_event.name}) and its detail. *)

val chrome_json : event list -> Obs_json.t
(** Export as a Chrome trace-event document (loadable in chrome://tracing
    and Perfetto): every event as an instant on its cpu's track, plus
    synthesized complete-spans for TLB shootdowns (from
    [Tlb_shootdown_done.cycles]), lock hold times (from
    [Lock_release.held_cycles]) and causal spans (from
    [Span_close.dur]). *)
