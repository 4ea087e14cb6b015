(** Aliases kept for the repository benchmark, which names these two
    bodies here.  Both are defined in {!Mach_kernel.Scenarios}; the chaos
    set is {!Chaos.scenarios}. *)

val lost_wakeup_handoff : unit -> unit
(** {!Mach_kernel.Scenarios.lost_wakeup_handoff}. *)

val wakeup_herd : ?sleepers:int -> unit -> unit
(** {!Mach_kernel.Scenarios.wakeup_herd}. *)
