(** Memory objects (paper, sections 3, 5, 8).

    A memory object is represented by a data structure and three
    associated ports: two pager ports for kernel/pager communication and a
    name port serving as a unique identifier.  It carries {e two}
    independent reference counts (section 8): the ordinary count for the
    data structure's existence, and a paging-operations-in-progress count
    that is a hybrid of a reference and a lock — it excludes operations
    such as object termination that cannot run while paging is in
    progress.

    Pager-port creation exhibits the section 5 {e customized lock}: a
    simple lock cannot be held across the (blocking) port allocation, so
    two boolean flags set under the object's simple lock — "being
    created" and "created" — extend the simple lock's functionality and
    ensure the ports are created at most once. *)

type t

type page = {
  offset : int;
  mutable ppn : int;
  mutable wired : int;
  mutable dirty : bool;
}

val create : ?name:string -> pool:Vm_page.t -> size:int -> unit -> t
(** A new zero-filled memory object with one reference (the creator's).
    Pages are allocated from [pool] on demand (by the fault path) and
    returned to it on termination. *)

val name : t -> string
val size : t -> int
val kobj : t -> Mach_ksync.Kobj.t
val reference : t -> unit
val release : t -> unit
val ref_count : t -> int

(** {1 Locking} *)

val lock : t -> unit
val unlock : t -> unit
val with_lock : t -> (unit -> 'a) -> 'a

(** {1 Resident pages (caller holds the object lock)} *)

val page_at : t -> offset:int -> page option
val insert_page : t -> offset:int -> ppn:int -> page
val remove_page : t -> offset:int -> int option
(** Unhook the page, returning its ppn (the caller frees it). *)

val resident_pages : t -> page list
val resident_count : t -> int
val wire : page -> unit
val unwire : page -> unit

(** {1 Paging count (the hybrid, section 8)} *)

val paging_begin : t -> bool
(** Under the object lock: register a paging operation in progress; false
    when the object is terminating. *)

val paging_end : t -> unit
val paging_in_progress : t -> int

(** {1 Pager ports (the section 5 customized lock)} *)

val ensure_pager_ports : t -> Mach_ipc.Port.t * Mach_ipc.Port.t * Mach_ipc.Port.t
(** Create the pager, pager-request and pager-name ports at most once,
    without holding the object's simple lock across the (blocking)
    allocations.  Concurrent callers wait for the creator. *)

(** {1 Termination} *)

val terminate : t -> unit
(** Deactivate: drain paging operations (new ones are refused), free all
    resident pages back to the pool, destroy the ports.  The data
    structure itself persists until the last reference is released. *)

val is_active : t -> bool
