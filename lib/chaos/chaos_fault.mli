(** Fault classes for the chaos layer: names for the odds fields of
    {!Mach_sim.Sim_config.faults}, plus mix construction and surgery used
    by the first-failure minimizer. *)

type cls =
  | Drop_wakeup       (** unpark of a parked thread silently dropped (§6) *)
  | Delay_wakeup      (** unpark deferred by a configurable step count *)
  | Spurious_wakeup   (** random parked thread woken without cause *)
  | Delay_interrupt   (** deliverable interrupt deferred when possible *)
  | Perturb_pick      (** scheduling policy overridden by a uniform pick *)
  | Preempt_acquire   (** forced preemption at a test-and-set boundary *)
  | Drop_handoff      (** queue-lock successor handoff silently dropped *)

val all : cls list
val name : cls -> string

val apply : intensity:int -> cls -> Mach_sim.Sim_config.faults -> Mach_sim.Sim_config.faults
(** Set the class's odds field to 1-in-[intensity]. *)

val mix : ?intensity:int -> cls list -> Mach_sim.Sim_config.faults
(** A faults record with every listed class at [intensity] (default 2:
    1-in-2 odds per opportunity). *)

val mix_classes : Mach_sim.Sim_config.faults -> cls list
(** The classes active in a faults record. *)

val remove : cls -> Mach_sim.Sim_config.faults -> Mach_sim.Sim_config.faults
(** Zero one class's odds, leaving the rest of the mix intact. *)
