(** Typed trace events.

    Structured payloads, so exporters (the Chrome trace-event writer, the
    contention profiler) can consume events without re-parsing strings.
    Interrupt-priority levels and threads are carried as strings to keep
    this module at the bottom of the dependency stack (everything — core,
    sim, vm — may emit events). *)

type t =
  | Spawn of { thread : string }
  | Thread_exit of { thread : string }
  | Park of { thread : string }
  | Unpark of { thread : string }
  | Permit of { thread : string }
  | Dispatch of { thread : string; cpu : int }
  | Intr_post of { name : string; cpu : int; level : string }
  | Intr_deliver of { name : string; level : string }
  | Intr_done of { name : string }
  | Spl_raise of { from_lvl : string; to_lvl : string }
  | Cell_set of { cell : string; value : int }
  | Tas of { cell : string; old_value : int }
  | Lock_acquire of { lock : string; spins : int; wait_cycles : int }
  | Lock_release of { lock : string; held_cycles : int }
  | Event_wait of { event : int }
  | Event_signal of { event : int; woken : int }
  | Refcount_drop of { name : string; count : int }
  | Tlb_shootdown_start of { initiator : int; participants : int; lazies : int }
  | Tlb_shootdown_done of { participants : int; cycles : int }
  | Span_close of { kind : string; site : string; dur : int }
      (** an [Obs_span] causal span closed: [kind] is the span kind
          ("lock", "event", "ipc", "vm"), [site] the acquire-site label,
          [dur] the span duration in cycles *)
  | Chaos_inject of { kind : string; victim : string }
      (** a fault-injection hook fired ([kind] names the fault class) *)
  | Deadlock_note of { line : string }
      (** one line of the deadlock detector's waits-for analysis *)

val name : t -> string
(** Constructor name ("Lock_acquire", "Tlb_shootdown_start", ...): the
    event's name in both the text trace and the Chrome export. *)

val detail : t -> string
(** The payload as one human-readable line. *)

val args : t -> (string * Obs_json.t) list
(** The structured payload as Chrome trace-event args. *)

val is_span : t -> bool
(** [true] exactly for [Span_close]: trace rings account span records
    separately from plain instants when counting drops. *)
