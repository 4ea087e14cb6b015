module Sim_config = Mach_sim.Sim_config

type cls =
  | Drop_wakeup
  | Delay_wakeup
  | Spurious_wakeup
  | Delay_interrupt
  | Perturb_pick
  | Preempt_acquire
  | Drop_handoff

let all =
  [
    Drop_wakeup;
    Delay_wakeup;
    Spurious_wakeup;
    Delay_interrupt;
    Perturb_pick;
    Preempt_acquire;
    Drop_handoff;
  ]

let name = function
  | Drop_wakeup -> "drop-wakeup"
  | Delay_wakeup -> "delay-wakeup"
  | Spurious_wakeup -> "spurious-wakeup"
  | Delay_interrupt -> "delay-interrupt"
  | Perturb_pick -> "perturb-pick"
  | Preempt_acquire -> "preempt-acquire"
  | Drop_handoff -> "drop-handoff"

(* [intensity] is the 1-in-N odds given to the class; lower = more
   aggressive.  1 fires on every opportunity. *)
let apply ~intensity cls (f : Sim_config.faults) =
  match cls with
  | Drop_wakeup -> { f with Sim_config.drop_wakeup = intensity }
  | Delay_wakeup -> { f with Sim_config.delay_wakeup = intensity }
  | Spurious_wakeup -> { f with Sim_config.spurious_wakeup = intensity }
  | Delay_interrupt -> { f with Sim_config.delay_interrupt = intensity }
  | Perturb_pick -> { f with Sim_config.perturb_pick = intensity }
  | Preempt_acquire -> { f with Sim_config.preempt_on_acquire = intensity }
  | Drop_handoff -> { f with Sim_config.drop_handoff = intensity }

let mix ?(intensity = 2) classes =
  List.fold_left (fun f c -> apply ~intensity c f) Sim_config.no_faults classes

let mix_classes (f : Sim_config.faults) =
  List.filter
    (fun c ->
      match c with
      | Drop_wakeup -> f.Sim_config.drop_wakeup > 0
      | Delay_wakeup -> f.Sim_config.delay_wakeup > 0
      | Spurious_wakeup -> f.Sim_config.spurious_wakeup > 0
      | Delay_interrupt -> f.Sim_config.delay_interrupt > 0
      | Perturb_pick -> f.Sim_config.perturb_pick > 0
      | Preempt_acquire -> f.Sim_config.preempt_on_acquire > 0
      | Drop_handoff -> f.Sim_config.drop_handoff > 0)
    all

let remove cls (f : Sim_config.faults) =
  match cls with
  | Drop_wakeup -> { f with Sim_config.drop_wakeup = 0 }
  | Delay_wakeup -> { f with Sim_config.delay_wakeup = 0 }
  | Spurious_wakeup -> { f with Sim_config.spurious_wakeup = 0 }
  | Delay_interrupt -> { f with Sim_config.delay_interrupt = 0 }
  | Perturb_pick -> { f with Sim_config.perturb_pick = 0 }
  | Preempt_acquire -> { f with Sim_config.preempt_on_acquire = 0 }
  | Drop_handoff -> { f with Sim_config.drop_handoff = 0 }
