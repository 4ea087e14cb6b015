(** Memory maps: the address-space data structure (paper, sections 3, 5).

    A map is a sorted list of entries, each mapping a virtual range onto a
    memory object.  Two locking disciplines are available per map:

    - {!Coarse} — the paper's single {e sleep} complex lock (most complex
      locks use the Sleep option, "including the lock on a memory map
      data structure", section 4).  Every fault, wire and pageout
      serializes on it.
    - {!Range} — a list-based range lock (Kogan, Dice & Issa, PAPERS.md):
      operations hold only the address range they touch, so
      disjoint-range faults and allocations proceed in parallel, while
      whole-map operations ({!release}, pageout) take a full-range
      write.  A simple lock covers the entry list itself, which range
      holders no longer mutually exclude.

    Coarse is the default; the locked sections are dispatched through
    {!rhandle} so the coarse path issues exactly the complex-lock calls
    it always did (goldens are byte-identical).

    Maps are passively destroyed when their last reference vanishes
    (they are {e not} deactivated, section 9).  The section 5 type-order
    convention applies: always lock the memory map before the memory
    object. *)

type context = {
  pool : Vm_page.t;
  pv : Pv_list.t;
  psys : Pmap_system.t;
}
(** Machine-wide VM state shared by all maps. *)

val make_context : ?name:string -> pages:int -> unit -> context

type entry = {
  mutable va_start : int;
  mutable va_end : int; (* exclusive *)
  e_object : Vm_object.t;
  mutable e_offset : int; (* offset of va_start within the object *)
  mutable e_wired : bool; (* wiring requested for the whole entry *)
  mutable e_prot : Tlb.prot;
}

type t

(** {1 Locking discipline} *)

type locking = Coarse | Range

val locking_name : locking -> string

val locking : t -> locking

val create : ?name:string -> ?locking:locking -> context -> t
(** [locking] defaults to [Coarse].  An unnamed map is named ["mapN"],
    N counting the unnamed maps created so far in this simulated run. *)

val name : t -> string

val fault_tag : t -> Mach_obs.Obs_span.tag
(** The span tag of a fault on the map (["vm:fault:<map>"]), built once
    per map. *)

val context : t -> context
val pmap : t -> Pmap.t

val map_lock : t -> Mach_ksync.Ksync.Clock.t
(** The coarse complex lock.  Meaningful only on [Coarse] maps (the
    recursive-wire scenario manipulates it directly); [Range] maps do
    not consult it. *)

val reference : t -> unit

val release : t -> unit
(** Drop a reference; the last one tears the map down (entries, mappings,
    pages, pmap) — passive destruction.  Takes the map lock / full-range
    write. *)

val version : t -> int
(** Incremented by every structural modification; the rewritten
    vm_map_pageable uses it to revalidate after relocking (section 7.1). *)

val bump_version : t -> unit

(** {1 Locked-section handles}

    All readers/writers of map state go through these.  On a [Coarse]
    map they perform the classic complex-lock calls and the range
    arguments are ignored; on a [Range] map they acquire [[lo, hi)] of
    the map's range lock. *)

type rhandle

val lock_range_read : t -> lo:int -> hi:int -> rhandle
val lock_range_write : t -> lo:int -> hi:int -> rhandle
val lock_map_read : t -> rhandle
(** Whole-map read: full-range in [Range] mode. *)

val lock_map_write : t -> rhandle
(** Whole-map write: excludes every other operation in both modes. *)

val unlock_range : t -> rhandle -> unit

(** {1 Entry management} *)

val vm_allocate : t -> size:int -> int
(** Allocate a fresh zero-filled region backed by a new memory object;
    returns its start address.  Coarse: map lock for writing.  Range:
    reserves the region under the entry lock, then write-locks only that
    region. *)

val vm_allocate_at : t -> va:int -> size:int -> (int, [ `Overlap ]) result

val vm_deallocate : t -> va:int -> (unit, [ `No_entry ]) result
(** Remove the entry containing [va]: break its mappings (with
    shootdowns), free its pages, release the object.  Coarse: map lock
    for writing.  Range: write-locks the entry's range and revalidates
    the entry after acquisition. *)

val lookup_entry : t -> va:int -> entry option
(** Caller must hold a covering {!rhandle} (read suffices). *)

val entries : t -> entry list
(** Caller must hold a whole-map {!rhandle}. *)

val size : t -> int
(** Total mapped bytes (pages in this model). *)

val overlap : t -> va:int -> size:int -> bool
(** Does [[va, va+size)] intersect an existing entry (or, in Range mode,
    an in-flight reservation)? *)

(** {1 Mapping helper (used by the fault path)} *)

val map_page : t -> entry -> va:int -> ppn:int -> unit
(** Install va -> ppn in the pmap and the pv list, in the forward
    (pmap-then-pv) order under the read side of the pmap system lock. *)

val unmap_page : t -> va:int -> ppn:int -> unit
(** Break one mapping in the forward order. *)
