(** Canonical multiprocessor scenarios from the paper, shared by the
    tests, the examples and the benchmark harness, and the registry of
    named scenarios ({!all}) that [machsim], the chaos set, the goldens
    and the bench run. *)

(** {1 The registry} *)

type expect =
  | Completes  (** every schedule runs to completion *)
  | Deadlocks  (** every schedule ends in a deadlock, never a panic *)

type entry = {
  name : string;  (** the name [machsim] and the harnesses use *)
  doc : string;  (** one line for [machsim list] *)
  min_cpus : int;
      (** fewest cpus the body runs on; below it the body's own argument
          check panics, which is no finding *)
  expect : expect;  (** how a run at 4 cpus ends, on every seed *)
  run : unit -> unit;  (** the body; run inside a simulation *)
}

val all : entry list
(** Every named scenario, in [machsim list] order; names are unique. *)

val find : string -> entry option

val get : string -> entry
(** [find] for a name the caller knows is registered.
    @raise Invalid_argument otherwise. *)

(** {1 The section 7 three-processor interrupt deadlock (experiment E11)}

    Processor 1 holds a lock; processor 2 spins for it with interrupts
    disabled; processor 3 initiates barrier synchronization at interrupt
    level.  If interrupt protection is inconsistent — P1 holds the lock
    with interrupts {e enabled} — P1 enters the barrier handler while
    still holding the lock, P2 never takes its interrupt because it spins
    with interrupts masked, and the system deadlocks.  Acquiring the lock
    at the same interrupt priority on both processors (the section 7
    rule) makes the deadlock impossible. *)

val interrupt_barrier_scenario : disciplined:bool -> unit -> unit
(** Run inside a simulation with at least 3 cpus.  With
    [disciplined:false] the same-spl checking is disabled (the scenario
    exists to show what the rule prevents) and some schedules deadlock;
    with [disciplined:true] every schedule completes. *)

val same_spl_holder : disciplined:bool -> unit -> unit
(** The same-spl rule at its smallest: two cpus, one lock, one
    interrupt.  A holder takes the lock while a device interrupt aimed
    at its cpu has a service routine that takes the same lock.
    [disciplined:true] holds at the interrupt's spl (the section 7
    rule), so the interrupt waits and every schedule completes —
    exhaustively checkable with [Mc].  [disciplined:false] holds at
    spl0 (checking disabled): the handler preempts its own lock holder
    and spins forever. *)

(** {1 The section 6 event-wait handoff} *)

val lost_wakeup_handoff : unit -> unit
(** A producer publishes a flag and wakes the event a consumer waits on
    with the section 6 protocol (assert_wait, re-test, thread_block).
    No schedule hangs it; a dropped wakeup does. *)

val wakeup_herd : ?sleepers:int -> unit -> unit
(** [sleepers] (default 4) threads wait on one event that a single
    broadcast wakes. *)

(** {1 One contended lock (experiments E1, E15, E18)} *)

val contention : lock:Mach_ksync.Ksync.Slock.t -> iters:int -> unit -> unit
(** Every cpu takes [lock] [iters] times; each critical section updates
    four shared cells and spends 20 cycles.  The caller makes [lock]
    inside the run, so its name and protocol stay the caller's. *)

(** {1 Locking granularity (experiments E3)} *)

type granularity =
  | Coarse       (** one lock protects every object (locking code) *)
  | Fine         (** one lock per object (locking data, the Mach way) *)
  | Master_funnel  (** all operations funnel to a master processor *)

val granularity_name : granularity -> string

val object_ops_workload :
  granularity -> objects:int -> workers:int -> ops_per_worker:int -> unit
(** Each worker performs [ops_per_worker] operations, each picking an
    object (round-robin per worker), acquiring the relevant lock(s) and
    updating the object (some local work plus shared-data updates).
    Run inside a simulation; makespan is read from the run stats. *)

(** {1 RPC null round-trip (experiment E9)} *)

val null_rpc_workload : Kernel.t -> clients:int -> calls_each:int -> unit
(** Spawn [clients] threads each performing [calls_each] null RPCs to the
    kernel host port; joins them all. *)

(** {1 TLB shootdown and vm_map_pageable (experiments E10, E6)} *)

val shootdown : ?removals:int -> unit -> unit
(** A thread on every cpu but cpu0 activates one pmap and spins; the
    initiator on cpu0 enters [removals] (default 8) mappings, then removes
    them, each removal a shootdown that rendezvous with every victim at
    interrupt level.  On one cpu the removals invalidate locally. *)

val pageable : use_recursive:bool -> unit -> unit
(** [vm_map_pageable] wires three pages of a four-page machine while the
    pageout daemon reclaims the other three.  [use_recursive] is the
    original recursive-lock version, which can deadlock (section 7.1);
    otherwise the Mach 3.0 rewrite, which cannot. *)

(** {1 Range locks over the VM map (experiment E16)} *)

val range_pair :
  r1:int * int ->
  m1:Mach_locks.Range_lock.mode ->
  r2:int * int ->
  m2:Mach_locks.Range_lock.mode ->
  expect_parallel:bool ->
  unit ->
  bool
(** One cell of the 2-cpu range-lock matrix: two threads acquire the
    given ranges and meet in the critical section if the lock lets
    them.  Fatal if conflicting requests are held concurrently (unless
    [expect_parallel]); returns whether this schedule interleaved the
    holds, so a model checker can both refute overlap concurrency and
    witness disjoint parallelism. *)

val range_disjoint : unit -> unit
(** [range_pair] on disjoint write ranges; never fatal. *)

val range_overlap : unit -> unit
(** [range_pair] on overlapping write ranges; fatal iff the lock ever
    admits both. *)

val range_abba : unit -> unit
(** Two threads each hold one range and want the other's: deadlocks on
    every schedule, with the waits-for edges naming the exact ranges. *)

val vm_fault_storm :
  ?locking:Mach_vm.Vm_map.locking ->
  ?threads:int ->
  ?pages_per_thread:int ->
  ?rounds:int ->
  unit ->
  unit
(** The E16 workload: [threads] (default [cpu_count]) threads each own a
    disjoint [pages_per_thread]-page slice of one map and repeatedly
    allocate_at / fault / deallocate it, [rounds] times.  Run inside a
    simulation; makespan is read from the run stats. *)

val vm_fault_vs_deallocate : overlapping:bool -> unit -> unit
(** Model-checkable pair on a [Range] map: one thread faults region A
    while another deallocates region B (= A when [overlapping]).  Fatal
    on any outcome the range-locked map must not produce. *)

(** {1 scache RW lock and the page cache (experiment E19)} *)

val scache_pair :
  m1:[ `Read | `Write ] ->
  m2:[ `Read | `Write ] ->
  expect_parallel:bool ->
  unit ->
  bool
(** One cell of the 2-cpu scache matrix: two threads take the given
    sides of one {!Mach_locks.Scache_rwlock} and meet in the critical
    section if the protocol admits them.  Fatal if conflicting sides are
    held concurrently (unless [expect_parallel]); returns whether this
    schedule interleaved the holds, so a model checker can both refute
    reader/writer concurrency and witness reader parallelism. *)

val scache_rw : unit -> unit
(** [scache_pair] reader vs writer; fatal iff the lock ever admits both. *)

val scache_ww : unit -> unit
(** [scache_pair] writer vs writer; fatal iff the sweep admits both. *)

val scache_rr : unit -> unit
(** [scache_pair] reader vs reader; never fatal (readers share). *)

val vm_cache_ops :
  ?locking:Mach_vm.Vm_cache.locking ->
  ?threads:int ->
  ?pages:int ->
  ?ops:int ->
  ?write_every:int ->
  unit ->
  unit
(** The E19 workload: a fully-warmed page cache, then [threads] (default
    [cpu_count]) workers doing [ops] read-mostly lookups each, with 1 in
    [write_every] operations evicting and refilling its page (the write
    side).  Run inside a simulation; makespan is read from run stats. *)

val scache_rrw : unit -> bool
(** The 3-cpu scache matrix cell: two readers racing one writer on one
    {!Mach_locks.Scache_rwlock}.  Fatal if a reader and the writer (or
    two writers) ever hold the lock concurrently; returns whether this
    schedule interleaved the two readers, so DPOR over the cell both
    refutes reader/writer concurrency and witnesses reader parallelism
    with a writer contending. *)

(** {1 High-throughput RPC serving (experiment E20)} *)

val rpc_serve :
  ?shards:int ->
  ?batch:int ->
  ?servers:int ->
  ?clients:int ->
  ?calls_each:int ->
  ?work_cycles:int ->
  ?walk_cycles:int ->
  ?spin:int ->
  ?drain_under_load:bool ->
  unit ->
  int * int
(** [clients] (default [cpu_count - servers]) client threads each make
    [calls_each] RPCs to [servers] (default [cpu_count / 8]) server
    ports through the full reference protocol: name translation via a
    [shards]-way {!Mach_ipc.Port_space} ([walk_cycles] simulated cycles
    under the shard lock per operation), send, batched receive
    ([batch] requests per port-lock acquisition), port-to-object
    translation, dispatch, reply.  Shutdown drains in-flight requests
    with [err_deactivated] replies ({!Mach_ipc.Mig.drain}) — under load
    if [drain_under_load], after the clients finish otherwise — then
    ([spin], default 8192, is the spin-then-block budget on both the
    server receive and the client reply wait; 0 parks on every wait)
    audits every port and object refcount (a leak or double-free is
    fatal).  Latency per call is recorded in the [rpc.latency_cycles]
    histogram.  Returns (completed RPCs, requests drained in flight). *)
