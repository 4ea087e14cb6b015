(** {!Mach_core.Machine_intf.MACHINE} implemented on the simulated
    multiprocessor: the machine the kernel model runs on. *)

let name = "sim"

module Cell = Sim_engine.Cell

type thread = Sim_engine.thread

let self = Sim_engine.self
let thread_id = Sim_engine.thread_id
let thread_name = Sim_engine.thread_name
let equal_thread = Sim_engine.equal_thread
let in_interrupt = Sim_engine.in_interrupt
let cpu_count = Sim_engine.cpu_count
let current_cpu = Sim_engine.current_cpu

let spin_pause = Sim_engine.spin_pause
let spin_until = Sim_engine.spin_until
let spin_hint = Sim_engine.spin_hint
let spin_max_backoff = Sim_engine.spin_max_backoff
let park = Sim_engine.park
let unpark = Sim_engine.unpark
let set_spl = Sim_engine.set_spl
let get_spl = Sim_engine.get_spl
let cycles = Sim_engine.cycles
let now_cycles = Sim_engine.now_cycles
let context = Sim_engine.context
let handoff_fault = Sim_engine.handoff_fault
let fatal = Sim_engine.fatal

(* A simulated machine lives for one run: one domain hosts at most one
   simulation at a time, concurrent explorations in other domains must
   not share machine state, and every run starts from a fresh [init ()]
   (the engine runs the [Run_reset] hooks at set-up and teardown). *)
let machine_local init =
  let key = Domain.DLS.new_key init in
  Mach_core.Run_reset.register (fun () -> Domain.DLS.set key (init ()));
  fun () -> Domain.DLS.get key
