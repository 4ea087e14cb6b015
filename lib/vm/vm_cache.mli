(** Page cache over {!Vm_object} with a readers/writer-locked index.

    The resident-page index is protected by a distributed RW lock
    (default: the scache protocol of {!Mach_locks.Scache_rwlock}):
    lookups take the read side — one interlocked increment of the
    caller's own per-cpu refcount slot, no shared line — while fills and
    evictions take the write side (the [ExcLockPending] sweep).  This is
    the read-mostly page-lookup workload of ROADMAP item 4, benched in
    E19 and gated by [perf_reference.json]'s [cache] row.

    Eviction cooperates with the pageout machinery: a fill that finds
    the pool empty evicts an unwired page from this cache before
    failing, and {!reclaim} lets a shortage handler (the pageout
    daemon's trigger, {!Vm_page.free_wanted}) steal pages in bulk.
    Fills register as paging operations on the backing object
    ({!Vm_object.paging_begin}), so object termination excludes them. *)

type t

type locking =
  | Scache  (** scache distributed RW lock (default) *)
  | Brlock_rw  (** big-reader RW lock *)
  | Mutex  (** one flat simple lock — the E19 baseline *)

val create :
  ?name:string -> ?locking:locking -> pool:Vm_page.t -> size:int -> unit -> t
(** A cache over a fresh memory object of [size] pages backed by
    [pool]. *)

val name : t -> string
val obj : t -> Vm_object.t

val lookup : t -> offset:int -> int option
(** Read-side index probe: the resident ppn, or [None] on a miss. *)

val lookup_or_fill : t -> offset:int -> (int, [ `No_memory | `Terminating ]) result
(** Read-side probe; on a miss, take the write side, re-check, and fill
    from the pool (evicting an unwired page of this cache if the pool is
    empty).  The fill runs as a paging operation on the backing object. *)

val evict : t -> offset:int -> bool
(** Write side: drop the page at [offset] back to the pool.  False when
    not resident or wired. *)

val reclaim : t -> target:int -> int
(** Write side: evict up to [target] unwired pages (shortage path);
    returns the number freed. *)

val wire : t -> offset:int -> bool
(** Pin a resident page against eviction (false on a miss). *)

val unwire : t -> offset:int -> unit

val terminate : t -> unit
(** Drop the whole index and terminate the backing object. *)

val resident : t -> int
val hits : t -> int
val misses : t -> int
