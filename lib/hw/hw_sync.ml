(** The machine-independent synchronization layer instantiated on the
    native machine — used by the real-multicore benchmarks and tests. *)

include Mach_core.Sync.Make (Hw_machine)

(** Every simple-lock protocol on real atomics. *)
module Locks = Mach_locks.Locks.Make (Hw_machine)
