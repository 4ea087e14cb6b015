(** The domain-local typed-event sink.

    Layers that have no handle on the trace buffer (the lock and event
    modules in [lib/core], the vm layer) emit through this hook; the
    simulator engine installs itself as the sink for a traced run and
    stamps each event with its scheduling context (step, cpu, clock,
    running frame).  No sink is installed outside a traced run.  Hot
    paths should guard payload construction with {!enabled} — e.g.
    [if Obs_trace.enabled () then Obs_trace.emit (Lock_acquire ...)]. *)

val set_sink : (Obs_event.t -> unit) option -> unit

val enabled : unit -> bool
(** True iff a sink is installed. *)

val emit : Obs_event.t -> unit
(** Forward [ev] to the sink; no-op when none is installed. *)
