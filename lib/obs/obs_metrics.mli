(** The kernel-wide metrics registry.

    Named counters and log-bucketed latency histograms, with
    per-cpu shards merged at read time.  The paper's Appendix A wraps
    every simple lock "in a structure to allow the simple addition of
    debugging and statistics information"; this registry is where that
    information becomes legible system-wide: the lock / event /
    shootdown layers record their counts and latency distributions here
    (see the well-known names below).

    Names are interned: calling [counter "x"] twice returns the same
    counter.  Registering a name with two different types raises
    [Invalid_argument].

    Well-known names populated by the kernel layers:
    - ["lock.wait_cycles"] — acquisition wait time of every lock
    - ["lock.hold_cycles"] — hold time of every timed hold (read holds
      of complex locks, brlocks and the scache are untimed)
    - ["event.wait_cycles"] — assert_wait → wakeup latency
    - ["tlb.shootdown_cycles"] — shootdown round-trip at the initiator
    - ["lock.acquisitions"], ["lock.contentions"] — over every lock.
    The four ["lock.*"] names are fed through [Mach_core.Lock_events]. *)

type counter
type histogram

val counter : string -> counter
val histogram : string -> histogram

(** {1 Updating}

    The first argument is the updating cpu, which selects the shard. *)

val add : int -> counter -> int -> unit
val incr : int -> counter -> unit
val observe : int -> histogram -> int -> unit

(** {1 Reading} (shards are merged at read time) *)

val counter_value : counter -> int
val merged : histogram -> Obs_histogram.t

(** {1 The whole registry} *)

val reset : unit -> unit
(** Zero every registered metric (names stay registered). *)

val pp : Format.formatter -> unit -> unit
(** One line per metric, sorted by name. *)

val to_json : unit -> Obs_json.t
(** Object keyed by metric name; histograms render as
    count/sum/mean/min/p50/p90/p99/max objects. *)
