(** Log-bucketed (HDR-style) histograms of non-negative integers.

    Blocking and hold-time {e distributions}, not averages, are what
    distinguish locking protocols (Brandenburg's survey, PAPERS.md), so
    the metrics registry records latencies here rather than as flat sums.
    32 sub-buckets per power of two: values below 64 are exact, larger
    values are quantized with at most 1/32 relative error.  The 1,920
    bucket counts are kept outside the OCaml heap, where the major GC
    does not scan them: a histogram adds a few dozen words to the live
    heap, not two thousand.  Not thread-safe on its own; the registry
    shards per cpu and merges at read time. *)

type t

val make : unit -> t

val record : t -> int -> unit
(** Record one value; negative values clamp to 0. *)

val record_n : t -> int -> n:int -> unit
(** Record the same value [n] times. *)

val count : t -> int
val sum : t -> int
val min_value : t -> int
val max_value : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0, 100]: smallest bucket upper bound at
    or below which at least p%% of values fall (clamped to the observed
    maximum); 0 when empty. *)

val merge_into : dst:t -> t -> unit
val reset : t -> unit
val pp : Format.formatter -> t -> unit
val to_json : t -> Obs_json.t

(** {1 Bucket geometry} (exposed for boundary tests) *)

val bucket_index : int -> int
val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range of a bucket index. *)
