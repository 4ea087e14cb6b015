(** The kernel's synchronization layer: the machine-independent lock /
    event / refcount modules instantiated once on the simulated machine.
    Every kernel subsystem (ipc, vm, kern) shares this instance so that
    lock checking, events and per-thread contexts compose across
    subsystems. *)

include Mach_core.Sync.Make (Mach_sim.Sim_machine)

(** The scalable queue-lock suite on the same machine; [Locks.ticket],
    [Locks.mcs], [Locks.anderson] are factories for [Slock.make ?proto]
    (and [Clock.make ?proto]); [Locks.Brlock] is the big-reader
    readers/writer lock. *)
module Locks = Mach_locks.Locks.Make (Mach_sim.Sim_machine)

(** The list-based range lock (Kogan et al.) on the same machine,
    sharing the simple-lock and event layers so checking, waits-for
    edges and observability compose with the rest of the kernel. *)
module Rlock = Mach_locks.Range_lock.Make (Mach_sim.Sim_machine) (Slock) (Ev)
