(** The page-fault path (paper, sections 5, 7.1).

    Lock choreography, following the section 5 conventions:
    - map lock (read) before object lock (type order: map before object);
    - object simple lock around page lookup/insertion, with the paging
      count held across the mapping step (the hybrid reference excluding
      termination);
    - pmap and pv-list updates in the forward order under the read side
      of the pmap system lock.

    On a physical-memory shortage the fault routine {e drops its lock} to
    wait for memory (section 7.1) and retries — under vm_map_pageable's
    recursive read lock this is precisely what leaves the outer read lock
    held and deadlocks against a pageout needing the write lock
    (experiment E6). *)

type fault_error = [ `Bad_address | `Object_terminated ]

val fault : ?wire:bool -> Vm_map.t -> va:int -> (int, fault_error) result
(** Resolve a fault at [va]: find the entry, find or zero-fill-allocate
    the page, map it, and return the physical page number.  [wire] also
    wires the page (the vm_map_pageable path).  Blocks (dropping all
    locks) while physical memory is short. *)
