type policy = Random_policy | Round_robin | Timed

let policy_name = function
  | Random_policy -> "random"
  | Round_robin -> "round-robin"
  | Timed -> "timed"

(* Fault-injection odds: each field is a 1-in-N chance per opportunity
   (0 = never).  Draws come from a dedicated chaos RNG seeded by
   [fault_seed] (or the schedule seed when 0), so enabling a fault class
   never consumes schedule randomness, and all-zero odds leave the run
   byte-identical to an uninjected one. *)
type faults = {
  fault_seed : int;
  drop_wakeup : int; (* unpark of a parked thread silently dropped *)
  delay_wakeup : int; (* unpark deferred by [wakeup_delay_steps] steps *)
  spurious_wakeup : int; (* per-step chance to unpark a random parked thread *)
  delay_interrupt : int; (* deliverable interrupt deferred when possible *)
  perturb_pick : int; (* per-step chance to pick a uniform-random candidate *)
  preempt_on_acquire : int; (* forced preemption at test-and-set boundaries *)
  drop_handoff : int; (* queue-lock successor handoff silently dropped *)
}

let no_faults =
  {
    fault_seed = 0;
    drop_wakeup = 0;
    delay_wakeup = 0;
    spurious_wakeup = 0;
    delay_interrupt = 0;
    perturb_pick = 0;
    preempt_on_acquire = 0;
    drop_handoff = 0;
  }

let wakeup_delay_steps = 40

let faults_active f =
  f.drop_wakeup > 0 || f.delay_wakeup > 0 || f.spurious_wakeup > 0
  || f.delay_interrupt > 0 || f.perturb_pick > 0 || f.preempt_on_acquire > 0
  || f.drop_handoff > 0

(* Model-checking hooks.  When [mc] is set the engine stops drawing from
   its RNG: at every scheduler step it enumerates the enabled transitions
   (in a deterministic order) and asks [mc_choose] which to execute, then
   reports the executed slice's shared-state footprint to [mc_commit] --
   except at a step [mc_replay] answers, which re-executes a recorded
   choice.
   The driver lives in lib/mc; the types live here so lib/mc can depend
   on lib/sim without a cycle. *)

(* Transition descriptors are stable across re-executions of the same
   choice prefix: threads are named by their per-run spawn sequence (not
   the process-global tid) and interrupts by their FIFO slot, so a
   descriptor recorded in one execution identifies the same transition in
   a sibling execution. *)
type mc_action =
  | Mc_deliver of { slot : int; intr : string; level : string }
      (* take pending interrupt [slot] (FIFO position within the highest
         deliverable level) on this cpu *)
  | Mc_resume of { frame : string }
      (* run the cpu's top frame to its next preemption point *)
  | Mc_dispatch of { thread : string; tseq : int }
      (* context-switch the queued thread with per-run spawn index [tseq]
         onto this (idle) cpu *)

type mc_transition = { mc_cpu : int; mc_what : mc_action }

(* One shared-state access of an executed slice.  Cells created during a
   run carry negative per-run ids (deterministic across re-executions);
   cells created outside any run keep stable positive global ids. *)
type mc_access =
  | Mc_cell of { cell : int; write : bool }
  | Mc_thread of int (* per-run spawn index: state/permit/joiner access *)
  | Mc_runq (* global run-queue order *)
  | Mc_intrq of int (* a cpu's pending-interrupt queues *)
  | Mc_spl of int (* a cpu's interrupt priority level *)

type mc_hooks = {
  mc_replay : int -> mc_transition option;
      (* given the number of enabled transitions: the choice recorded at
         this depth when it replays a committed prefix unchanged (the
         engine executes it and records no footprint), or None for a
         fresh step (enumerate, [mc_choose], [mc_commit]) *)
  mc_choose : mc_transition array -> int;
      (* pick the next transition; the array is non-empty and in
         deterministic (cpu-ascending) order *)
  mc_commit : mc_access list -> unit;
      (* footprint of the transition just executed: every access, in no
         particular order, possibly repeated *)
}

(* The cycle cost model. *)
let read_hit_cost = 1
let read_miss_cost = 40
let write_cost = 20
let atomic_cost = 50
let bus_occupancy = 20
let pause_cost = 4
let context_switch_cost = 300
let interrupt_cost = 150

type t = {
  cpus : int;
  seed : int;
  policy : policy;
  spin_max_backoff : int;
  watchdog_steps : int;
  max_steps : int option;
  trace : bool;
  spans : bool;
  faults : faults;
  mc : mc_hooks option;
      (* systematic-exploration hooks; None = seeded scheduling *)
}

let default =
  {
    cpus = 4;
    seed = 1;
    policy = Timed;
    spin_max_backoff = 1024;
    watchdog_steps = 1_000_000;
    max_steps = None;
    trace = false;
    spans = true;
    faults = no_faults;
    mc = None;
  }

let exploration ?(cpus = 4) ~seed () =
  {
    default with
    cpus;
    seed;
    policy = Random_policy;
    watchdog_steps = 200_000;
  }

let bench ?(cpus = 8) () =
  { default with cpus; policy = Timed }
