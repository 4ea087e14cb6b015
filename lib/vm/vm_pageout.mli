(** The pageout path: reclaiming physical pages under memory pressure.

    In this model, reclaiming a page from a map requires the map's
    {e write} lock (the paper's "obtaining more memory requires a write
    lock on the same map", section 7.1) and then, for each victim page,
    breaking every mapping via the pv lists — the {e reverse} (pv-then-
    pmap) lock order, legal only under the write side of the pmap system
    lock (section 5). *)

val reclaim_from_map : Vm_map.t -> int
(** Steal every resident, unwired page from entries not marked wired:
    returns the number of pages freed back to the pool. *)

type daemon

val start_daemon : victims:Vm_map.t list -> daemon
(** Spawn a pageout daemon thread: it sleeps until an allocator signals a
    shortage on the context's pool, then reclaims from the victim maps.
    All victim maps must share one context. *)

val stop_daemon : daemon -> unit
(** Ask the daemon to exit and join it. *)
