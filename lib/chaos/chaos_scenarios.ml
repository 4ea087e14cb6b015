(* The two scenario bodies the repository benchmark names by these paths;
   both live in the registry (Mach_kernel.Scenarios), and the chaos set is
   [Chaos.scenarios]. *)
let lost_wakeup_handoff = Mach_kernel.Scenarios.lost_wakeup_handoff
let wakeup_herd = Mach_kernel.Scenarios.wakeup_herd
