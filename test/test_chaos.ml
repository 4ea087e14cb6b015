(* The chaos layer: schedule preservation with injection off, the
   waits-for deadlock detector on the section 7 interrupt deadlock, the
   section 6 lost wakeup under drop-wakeup injection, and fault-mix
   minimization. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Chaos = Mach_chaos.Chaos
module Fault = Mach_chaos.Chaos_fault
module Scenarios = Mach_kernel.Scenarios

let interrupt_deadlock = (Scenarios.get "interrupt-deadlock").run
let scache_handoff = (Scenarios.get "scache-handoff").run

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* With every fault's odds at zero the chaos RNG is never drawn and the
   stats must be byte-identical to a run without the faults record (the
   golden determinism test pins the text format; this pins the invariance
   under the chaos plumbing). *)
let test_injection_off_preserves_schedule () =
  let scenario () = Scenarios.lost_wakeup_handoff () in
  let base = Config.exploration ~cpus:4 ~seed:7 () in
  let plain = Engine.run ~cfg:base scenario in
  let with_fields =
    Engine.run
      ~cfg:
        {
          base with
          Config.faults = { Config.no_faults with Config.fault_seed = 999 };
        }
      scenario
  in
  let pp s = Format.asprintf "%a" Engine.pp_stats s in
  Alcotest.(check string)
    "stats byte-identical with injection off" (pp plain) (pp with_fields)

let test_chaos_counters_zero_when_off () =
  ignore
    (Engine.run ~cfg:(Config.exploration ~cpus:4 ~seed:3 ()) (fun () ->
         Scenarios.wakeup_herd ()));
  match Engine.last_chaos () with
  | Some c ->
      check_int "dropped" 0 c.Engine.dropped_wakeups;
      check_int "delayed" 0 c.Engine.delayed_wakeups;
      check_int "spurious" 0 c.Engine.spurious_wakeups;
      check_int "delayed intr" 0 c.Engine.delayed_interrupts;
      check_int "perturbed" 0 c.Engine.perturbed_picks;
      check_int "preempted" 0 c.Engine.forced_preemptions
  | None -> Alcotest.fail "no chaos stats recorded"

let test_section7_cycle_detected () =
  match
    Chaos.find_first_failure ~cpus:4 ~max_seeds:10 ~faults:(Fault.mix [])
      interrupt_deadlock
  with
  | Some r ->
      check_bool "classified as cycle" true (r.Chaos.detection = Chaos.Cycle);
      check_bool "cycle in report" true
        (contains r.Chaos.report "waits-for cycle");
      check_bool "cycle goes through the lock" true
        (contains r.Chaos.report "simple lock the-lock");
      check_bool "cycle goes through the pending interrupt" true
        (contains r.Chaos.report "pending interrupt barrier")
  | None -> Alcotest.fail "section 7 deadlock not reproduced within 10 seeds"

let test_section7_deterministic () =
  let faults = Fault.mix [] in
  let r1 = Chaos.run_one ~cpus:4 ~seed:1 ~faults interrupt_deadlock in
  let r2 = Chaos.run_one ~cpus:4 ~seed:1 ~faults interrupt_deadlock in
  check_bool "same detection" true (r1.Chaos.detection = r2.Chaos.detection);
  Alcotest.(check string) "same report" r1.Chaos.report r2.Chaos.report

let test_lost_wakeup_detected () =
  let faults = Fault.mix ~intensity:2 [ Fault.Drop_wakeup ] in
  let found = ref None in
  let seed = ref 1 in
  while !found = None && !seed <= 20 do
    let r =
      Chaos.run_one ~cpus:4 ~seed:!seed ~faults Scenarios.lost_wakeup_handoff
    in
    if
      Chaos.detected r.Chaos.detection
      && contains r.Chaos.report "never arrived"
    then found := Some r;
    incr seed
  done;
  match !found with
  | Some r ->
      check_bool "classified as orphan" true
        (r.Chaos.detection = Chaos.Orphan);
      check_bool "names the waiter's event" true
        (contains r.Chaos.report "woken from event");
      (* Reproducible: event ids are process-global (they keep counting
         across runs), so compare the stable parts of the report rather
         than the raw string. *)
      let r' = Chaos.run_one ~cpus:4 ~seed:r.Chaos.seed ~faults
                 Scenarios.lost_wakeup_handoff in
      check_bool "reproducible detection" true
        (r'.Chaos.detection = r.Chaos.detection);
      check_bool "reproducible lost-wakeup line" true
        (contains r'.Chaos.report "never arrived");
      (match Engine.last_chaos () with
      | Some c -> check_bool "drops counted" true (c.Engine.dropped_wakeups > 0)
      | None -> Alcotest.fail "no chaos stats")
  | None -> Alcotest.fail "no lost wakeup detected within 20 seeds"

(* The scache writer release is a droppable grant store (the FIFO
   ticket handoff): under drop-handoff injection the queued writer spins
   on a grant that never lands and the analyzer must call it a lost
   handoff — the same search [machsim chaos] runs in its scache
   section, pinned here with a reproducibility check. *)
let test_scache_lost_handoff_detected () =
  let faults = Fault.mix ~intensity:2 [ Fault.Drop_handoff ] in
  match
    Chaos.find_first_failure ~cpus:3 ~max_seeds:20 ~faults scache_handoff
  with
  | Some r ->
      check_bool "diagnosed as lost handoff" true
        (contains r.Chaos.report "lost handoff");
      let r' =
        Chaos.run_one ~cpus:3 ~seed:r.Chaos.seed ~faults scache_handoff
      in
      check_bool "reproducible detection" true
        (r'.Chaos.detection = r.Chaos.detection);
      check_bool "reproducible diagnosis" true
        (contains r'.Chaos.report "lost handoff");
      (match Engine.last_chaos () with
      | Some c ->
          check_bool "handoff drops counted" true
            (c.Engine.dropped_handoffs > 0)
      | None -> Alcotest.fail "no chaos stats")
  | None -> Alcotest.fail "no scache lost handoff within 20 seeds"

let test_scache_handoff_clean_without_faults () =
  let v =
    Mach_sim.Sim_explore.run ~cpus:3
      ~seeds:(List.init 25 (fun i -> i + 1))
      scache_handoff
  in
  check_bool "scache handoff never hangs uninjected" true
    (Mach_sim.Sim_explore.all_completed v)

(* The E20 ride-along: shutdown drain under load with wakeup drops.  The
   drain protocol's promise is that no client sleeps forever on its reply
   port — every in-flight request gets an [err_deactivated] reply.  A
   dropped reply wakeup breaks exactly that promise; the analyzer must
   name the orphaned waiter ("never arrived") instead of the run hanging
   silently.  The terminator's bounded give-up spin in [rpc_serve] is
   what keeps this a sleep deadlock rather than a livelock.  [spin = 0]
   forces every wait onto the park path — with the default spin budget a
   dropped wakeup usually lands while the receiver is still probing and
   is recovered for free, which is the production configuration's
   defense but would starve this test of failures. *)
let rpc_drain () =
  ignore
    (Scenarios.rpc_serve ~shards:2 ~batch:2 ~calls_each:4 ~spin:0
       ~drain_under_load:true ())

let test_rpc_drain_lost_wakeup_detected () =
  let faults = Fault.mix ~intensity:2 [ Fault.Drop_wakeup ] in
  let found = ref None in
  let seed = ref 1 in
  while !found = None && !seed <= 30 do
    let r = Chaos.run_one ~cpus:4 ~seed:!seed ~faults rpc_drain in
    if
      Chaos.detected r.Chaos.detection
      && contains r.Chaos.report "never arrived"
    then found := Some r;
    incr seed
  done;
  match !found with
  | Some r ->
      check_bool "classified as orphan" true (r.Chaos.detection = Chaos.Orphan);
      check_bool "names the waiter's event" true
        (contains r.Chaos.report "woken from event");
      let r' = Chaos.run_one ~cpus:4 ~seed:r.Chaos.seed ~faults rpc_drain in
      check_bool "reproducible detection" true
        (r'.Chaos.detection = r.Chaos.detection);
      check_bool "reproducible lost-wakeup line" true
        (contains r'.Chaos.report "never arrived")
  | None ->
      Alcotest.fail "no lost wakeup during rpc drain within 30 seeds"

let test_rpc_drain_clean_without_faults () =
  let v =
    Mach_sim.Sim_explore.run ~cpus:4
      ~seeds:(List.init 10 (fun i -> i + 1))
      rpc_drain
  in
  check_bool "rpc drain never hangs uninjected" true
    (Mach_sim.Sim_explore.all_completed v)

let test_handoff_clean_without_faults () =
  let v =
    Mach_sim.Sim_explore.run ~cpus:4
      ~seeds:(List.init 25 (fun i -> i + 1))
      Scenarios.lost_wakeup_handoff
  in
  check_bool "correct protocol never hangs uninjected" true
    (Mach_sim.Sim_explore.all_completed v)

let test_minimize_keeps_failing () =
  let full = Fault.mix ~intensity:2 Fault.all in
  match
    Chaos.find_first_failure ~cpus:4 ~max_seeds:20 ~faults:full
      Scenarios.lost_wakeup_handoff
  with
  | None -> Alcotest.fail "full mix produced no failure"
  | Some r ->
      let minimal =
        Chaos.minimize ~cpus:4 ~seed:r.Chaos.seed ~faults:full
          Scenarios.lost_wakeup_handoff
      in
      let kept = Fault.mix_classes minimal in
      check_bool "minimal mix is a subset" true
        (List.for_all (fun c -> List.mem c Fault.all) kept);
      check_bool "did shrink" true
        (List.length kept < List.length Fault.all);
      let r' =
        Chaos.run_one ~cpus:4 ~seed:r.Chaos.seed ~faults:minimal
          Scenarios.lost_wakeup_handoff
      in
      check_bool "minimal mix still fails" true
        (Chaos.detected r'.Chaos.detection)

let test_forced_preemption_counted () =
  let faults = Fault.mix ~intensity:1 [ Fault.Preempt_acquire ] in
  let r =
    Chaos.run_one ~cpus:4 ~seed:2 ~faults Scenarios.lost_wakeup_handoff
  in
  ignore r;
  match Engine.last_chaos () with
  | Some c ->
      check_bool "preemptions fired" true (c.Engine.forced_preemptions > 0)
  | None -> Alcotest.fail "no chaos stats"

let () =
  Alcotest.run "chaos"
    [
      ( "schedule preservation",
        [
          Alcotest.test_case "injection off = identical stats" `Quick
            test_injection_off_preserves_schedule;
          Alcotest.test_case "counters zero when off" `Quick
            test_chaos_counters_zero_when_off;
        ] );
      ( "deadlock detection",
        [
          Alcotest.test_case "section 7 cycle" `Quick
            test_section7_cycle_detected;
          Alcotest.test_case "section 7 deterministic" `Quick
            test_section7_deterministic;
          Alcotest.test_case "section 6 lost wakeup" `Quick
            test_lost_wakeup_detected;
          Alcotest.test_case "handoff clean uninjected" `Quick
            test_handoff_clean_without_faults;
          Alcotest.test_case "scache lost writer handoff" `Quick
            test_scache_lost_handoff_detected;
          Alcotest.test_case "scache handoff clean uninjected" `Quick
            test_scache_handoff_clean_without_faults;
          Alcotest.test_case "rpc drain lost wakeup" `Quick
            test_rpc_drain_lost_wakeup_detected;
          Alcotest.test_case "rpc drain clean uninjected" `Quick
            test_rpc_drain_clean_without_faults;
        ] );
      ( "injection",
        [
          Alcotest.test_case "minimization" `Slow test_minimize_keeps_failing;
          Alcotest.test_case "forced preemption fires" `Quick
            test_forced_preemption_counted;
        ] );
    ]
