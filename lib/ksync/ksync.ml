(** The kernel's synchronization layer: the machine-independent lock /
    event / refcount modules instantiated once on the simulated machine.
    Every kernel subsystem (ipc, vm, kern) shares this instance so that
    lock checking, events and per-thread contexts compose across
    subsystems. *)

include Mach_core.Sync.Make (Mach_sim.Sim_machine)

(** Every simple-lock protocol on the same machine, for [Slock.make
    ?proto] (and [Clock.make ?proto]): the section 2 family
    ([Locks.spin]: [tas], [ttas], [tas_then_ttas], [ttas_backoff]), the
    queue locks ([Locks.queue]: [ticket], [mcs], [anderson]) and the
    writer sides of the two readers/writer locks, [Locks.Brlock] (the
    big-reader lock) and [Locks.Scache] ([brlock_writer],
    [scache_writer]); [Locks.all] lists all nine. *)
module Locks = Mach_locks.Locks.Make (Mach_sim.Sim_machine)

(** The list-based range lock (Kogan et al.) on the same machine,
    sharing the simple-lock and event layers so checking, waits-for
    edges and observability compose with the rest of the kernel. *)
module Rlock = Mach_locks.Range_lock.Make (Mach_sim.Sim_machine) (Slock) (Ev)
