(* Model-checker tests: exhaustive-verification verdicts for the
   section 6 event-wait protocol and the section 7 same-spl rule, a
   golden minimal counterexample for the section 7 deadlock, and the
   mechanics the verdicts rest on (trace round-trip, byte-identical
   replay, preemption bounding, mode agreement, fault-injection
   exclusion). *)

module Mc = Mach_mc.Mc
module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Scenarios = Mach_kernel.Scenarios
open Test_support

let same_spl ~disciplined () = Scenarios.same_spl_holder ~disciplined ()

(* The exact exploration of a DPOR cell: (executions, pruned,
   transitions, choice points).  Pinned so that a change to the checker's
   bookkeeping that alters what it explores, not just how fast, fails
   here rather than passing on an unchanged verdict. *)
let check_exploration label (e, p, t, c) r =
  let s = r.Mc.stats in
  Alcotest.(check (list int))
    (label ^ ": executions, pruned, transitions, choice points")
    [ e; p; t; c ]
    [ s.Mc.executions; s.Mc.pruned; s.Mc.transitions; s.Mc.choice_points ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Exhaustive verification verdicts                                     *)
(* ------------------------------------------------------------------ *)

let test_same_spl_verified () =
  (* Section 7: holding at the interrupt's spl makes the deadlock
     impossible — over EVERY schedule, not a sample of seeds. *)
  let r = Mc.check ~cpus:2 (same_spl ~disciplined:true) in
  check_bool "complete" true r.Mc.complete;
  check_bool "verified" true r.Mc.verified;
  check_bool "no failure" true (r.Mc.failure = None);
  check_exploration "same-spl" (11, 0, 272, 45) r

let test_event_wait_verified () =
  (* Section 6: the assert_wait / re-test / thread_block protocol never
     loses a wakeup under any interleaving (no fault injection). *)
  let r = Mc.check ~cpus:2 Scenarios.lost_wakeup_handoff in
  check_bool "complete" true r.Mc.complete;
  check_bool "verified" true r.Mc.verified;
  check_exploration "handoff" (84, 84, 3584, 418) r

let test_same_spl_buggy_fails () =
  let r = Mc.check ~cpus:2 (same_spl ~disciplined:false) in
  check_bool "not verified" false r.Mc.verified;
  check_exploration "same-spl-buggy" (1, 0, 14, 9) r;
  match r.Mc.failure with
  | None -> Alcotest.fail "expected a failing schedule"
  | Some f ->
      check_bool "spin deadlock / livelock" true
        (f.Mc.f_kind = Some Engine.Spin_deadlock);
      check_bool "report names the lock" true
        (contains f.Mc.f_report "vm-lock");
      (* minimization: the handler preempting its own holder needs no
         preemptive switch at all *)
      check_int "preemptions" 0 f.Mc.f_preemptions

(* ------------------------------------------------------------------ *)
(* Golden minimal counterexample (section 7, two-cpu form)              *)
(* ------------------------------------------------------------------ *)

let test_golden_counterexample () =
  let r = Mc.check ~cpus:2 (same_spl ~disciplined:false) in
  let f =
    match r.Mc.failure with
    | Some f -> f
    | None -> Alcotest.fail "expected a failing schedule"
  in
  let kind_line =
    match f.Mc.f_kind with
    | Some Engine.Spin_deadlock -> "spin-deadlock"
    | Some Engine.Sleep_deadlock -> "sleep-deadlock"
    | None -> "panic"
  in
  let actual = kind_line ^ "\n" ^ Mc.trace_to_string f.Mc.f_trace in
  let expected = read_file "golden/mc_counterexample.expected" in
  if not (String.equal expected actual) then begin
    Printf.printf "counterexample mismatch.\n--- expected ---\n%s--- actual ---\n%s"
      expected actual;
    Alcotest.fail
      "minimal section 7 counterexample changed; if the schedule change is \
       intentional, regenerate golden/mc_counterexample.expected from this \
       test's output"
  end

let test_golden_replays () =
  (* The golden trace alone — as parsed from disk — must reproduce the
     deadlock and re-record byte-identically. *)
  let text = read_file "golden/mc_counterexample.expected" in
  let body =
    match String.index_opt text '\n' with
    | Some i -> String.sub text (i + 1) (String.length text - i - 1)
    | None -> Alcotest.fail "golden counterexample is empty"
  in
  let trace =
    match Mc.trace_of_string body with
    | Ok t -> t
    | Error e -> Alcotest.failf "golden trace does not parse: %s" e
  in
  let outcome, recorded = Mc.replay ~cpus:2 ~trace (same_spl ~disciplined:false) in
  (match outcome with
  | Engine.Deadlocked (Engine.Spin_deadlock, _) -> ()
  | _ -> Alcotest.fail "replay did not reproduce the spin deadlock");
  Alcotest.(check string)
    "re-recorded trace byte-identical" (Mc.trace_to_string trace)
    (Mc.trace_to_string recorded)

(* ------------------------------------------------------------------ *)
(* Mechanics                                                            *)
(* ------------------------------------------------------------------ *)

let test_trace_round_trip () =
  let r = Mc.check ~cpus:2 (same_spl ~disciplined:false) in
  let f = Option.get r.Mc.failure in
  let text = Mc.trace_to_string f.Mc.f_trace in
  match Mc.trace_of_string text with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok t ->
      Alcotest.(check string) "round-trip identical" text
        (Mc.trace_to_string t)

(* A budgeted wait against a writer: the waiter probes a plain flag
   with [spin_until ~budget:8], and main, after a read, sets the flag
   just before its write publishes it.  Once the waiter's checks could
   only fail again, the checker offers the budget's expiry in place of
   the suppressed resume, so both outcomes are explored: the write lands
   first, or the budget runs out.  [~strict] makes a spent budget fatal, so the failing
   schedule ends with the expiry. *)
let budgeted_cell ~strict () =
  let flag = ref false in
  let published = Engine.Cell.make ~name:"published" 0 in
  let waiter =
    Engine.spawn ~name:"waiter" (fun () ->
        let pauses = Engine.spin_until ~budget:8 (fun () -> !flag) in
        if pauses = 8 && strict then Engine.fatal "budget spent";
        ignore (Engine.Cell.get published))
  in
  ignore (Engine.Cell.get published);
  flag := true;
  Engine.Cell.set published 1;
  Engine.join waiter

let test_budget_expiry () =
  let r = Mc.check ~cpus:2 (budgeted_cell ~strict:false) in
  check_bool "verified" true r.Mc.verified;
  check_exploration "budgeted" (2, 1, 24, 6) r;
  let r = Mc.check ~cpus:2 (budgeted_cell ~strict:true) in
  let f = Option.get r.Mc.failure in
  let text = Mc.trace_to_string f.Mc.f_trace in
  check_bool "the failing schedule ends with the expiry" true
    (contains text "expire waiter");
  match Mc.trace_of_string text with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok t -> (
      Alcotest.(check string) "round-trip identical" text
        (Mc.trace_to_string t);
      match fst (Mc.replay ~cpus:2 ~trace:t (budgeted_cell ~strict:true)) with
      | Engine.Panicked msg ->
          check_bool "replays to the spent budget" true
            (contains msg "budget spent")
      | _ -> Alcotest.fail "the replay must end in the spent budget")

(* After its budget expires, the waiter reads a cell without producing
   and only then writes the cell main waits on: the expiry leaves the
   wait, so the waiter stays offered until it writes, and every schedule
   completes (as the seeded scheduler's run does). *)
let expiry_then_write () =
  let x = Engine.Cell.make ~name:"x" 0 in
  let y = Engine.Cell.make ~name:"y" 0 in
  let waiter =
    Engine.spawn ~name:"waiter" (fun () ->
        ignore (Engine.spin_until ~budget:4 (fun () -> false));
        ignore (Engine.Cell.get x);
        Engine.Cell.set y 1)
  in
  while Engine.Cell.get y = 0 do
    Engine.pause ()
  done;
  Engine.join waiter

let test_expiry_leaves_the_wait () =
  let r = Mc.check ~cpus:2 expiry_then_write in
  check_bool "verified" true r.Mc.verified;
  check_exploration "expiry then write" (3, 0, 39, 11) r;
  check_bool "the seeded run completes" true
    (match
       Engine.run_outcome ~cfg:{ Config.default with cpus = 2 } expiry_then_write
     with
    | Engine.Completed _ -> true
    | _ -> false)

let test_modes_agree () =
  (* Both modes explore the same state space: identical verdicts, and
     DPOR visits no more schedules than naive enumeration. *)
  let naive = Mc.check ~cpus:2 ~mode:Mc.Naive (same_spl ~disciplined:true) in
  let dpor = Mc.check ~cpus:2 ~mode:Mc.Dpor (same_spl ~disciplined:true) in
  check_bool "naive verified" true naive.Mc.verified;
  check_bool "dpor verified" true dpor.Mc.verified;
  check_exploration "naive same-spl" (21004, 0, 572248, 21003) naive;
  check_bool "dpor prunes" true
    (dpor.Mc.stats.Mc.executions <= naive.Mc.stats.Mc.executions);
  (* the acceptance bar: DPOR explores at most a quarter of the naive
     schedule count on the flagship scenario (it is in fact ~0.1%) *)
  check_bool "dpor <= 25% of naive" true
    (4 * dpor.Mc.stats.Mc.executions <= naive.Mc.stats.Mc.executions)

let test_domains_agree () =
  let seq = Mc.check ~cpus:2 (same_spl ~disciplined:true) in
  let par = Mc.check ~cpus:2 ~domains:2 (same_spl ~disciplined:true) in
  check_bool "sequential verified" true seq.Mc.verified;
  check_bool "parallel verified" true par.Mc.verified;
  let seqb = Mc.check ~cpus:2 (same_spl ~disciplined:false) in
  let parb = Mc.check ~cpus:2 ~domains:2 (same_spl ~disciplined:false) in
  let kind r =
    match r.Mc.failure with Some f -> f.Mc.f_kind | None -> None
  in
  check_bool "parallel finds the same failure kind" true
    (kind seqb = kind parb && kind seqb = Some Engine.Spin_deadlock)

let test_preemption_bound () =
  (* Bound 0 must still find the same-spl deadlock (it needs no
     preemptions) and bound exploration must be cheaper than unbounded. *)
  let b0 = Mc.check ~cpus:2 ~bound:0 (same_spl ~disciplined:false) in
  check_bool "bound 0 finds it" true (b0.Mc.failure <> None);
  let v0 = Mc.check ~cpus:2 ~bound:0 (same_spl ~disciplined:true) in
  let full = Mc.check ~cpus:2 (same_spl ~disciplined:true) in
  check_bool "bound 0 no failure" true (v0.Mc.failure = None);
  check_bool "bound 0 explores fewer schedules" true
    (v0.Mc.stats.Mc.executions <= full.Mc.stats.Mc.executions)

(* ------------------------------------------------------------------ *)
(* Range-lock matrix at 2 cpus (experiment E16 acceptance)              *)
(* ------------------------------------------------------------------ *)

module RL = Mach_locks.Range_lock

(* Conflicting cells: the scenario is fatal if both threads are ever in
   the critical section together, so [verified] over every schedule is
   exactly "overlap serializes". *)
let test_range_matrix_overlap_serializes () =
  List.iter
    (fun (label, m1, m2) ->
      let r =
        Mc.check ~cpus:2 (fun () ->
            ignore
              (Scenarios.range_pair ~r1:(0, 8) ~m1 ~r2:(4, 12) ~m2
                 ~expect_parallel:false ()))
      in
      check_bool (label ^ ": complete") true r.Mc.complete;
      check_bool (label ^ ": verified") true r.Mc.verified;
      check_exploration label (248, 230, 15370, 1496) r)
    [
      ("overlap W/W", RL.Write, RL.Write);
      ("overlap R/W", RL.Read, RL.Write);
      ("overlap W/R", RL.Write, RL.Read);
    ]

(* Compatible cells: no schedule may be fatal AND some schedule must
   witness both threads holding at once.  The witness ref lives outside
   the scenario closure, so it accumulates across every execution the
   checker runs. *)
let test_range_matrix_disjoint_interleaves () =
  List.iter
    (fun (label, r1, m1, r2, m2) ->
      let witnessed = ref false in
      let r =
        Mc.check ~cpus:2 (fun () ->
            if Scenarios.range_pair ~r1 ~m1 ~r2 ~m2 ~expect_parallel:true ()
            then witnessed := true)
      in
      check_bool (label ^ ": complete") true r.Mc.complete;
      check_bool (label ^ ": verified") true r.Mc.verified;
      check_bool (label ^ ": some schedule interleaves the holds") true
        !witnessed;
      check_exploration label (536, 534, 24618, 2520) r)
    [
      ("disjoint W/W", (0, 8), RL.Write, (8, 16), RL.Write);
      ("overlap R/R", (0, 8), RL.Read, (4, 12), RL.Read);
    ]

(* The map itself, model-checked: fault vs deallocate on a Range map,
   overlapping (fault may lose the race but must never see a stale
   entry) and disjoint (both must succeed on every schedule). *)
let test_range_map_fault_vs_deallocate () =
  List.iter
    (fun (overlapping, explored) ->
      let r =
        Mc.check ~cpus:2 (Scenarios.vm_fault_vs_deallocate ~overlapping)
      in
      let label =
        if overlapping then "overlapping fault/deallocate"
        else "disjoint fault/deallocate"
      in
      check_bool (label ^ ": complete") true r.Mc.complete;
      check_bool (label ^ ": verified") true r.Mc.verified;
      check_exploration label explored r)
    [ (false, (1432, 1434, 233552, 10386)); (true, (464, 602, 85700, 5930)) ]

(* ------------------------------------------------------------------ *)
(* Scache matrix at 3 cpus: two readers racing one writer               *)
(* ------------------------------------------------------------------ *)

(* The 2-cpu scache cells (cache-smoke) cannot show reader parallelism
   WITH a writer contending — their reader-parallel cell has no writer
   in the mix.  This cell model-checks exactly that: over every 3-cpu
   schedule no reader ever overlaps the writer (verified), and at least
   one schedule interleaves the two readers' holds (witnessed).  Same
   witness-ref-outside-the-closure pattern as the range matrix. *)
let test_scache_rrw_matrix () =
  let witnessed = ref false in
  let r =
    Mc.check ~cpus:3 (fun () ->
        if Scenarios.scache_rrw () then witnessed := true)
  in
  check_bool "complete" true r.Mc.complete;
  check_bool "verified (no reader/writer overlap on any schedule)" true
    r.Mc.verified;
  check_bool "some schedule interleaves the two readers" true !witnessed;
  check_exploration "scache-rrw" (11093, 23200, 3509121, 108447) r

(* ------------------------------------------------------------------ *)
(* Footprint encoding vs the list-based dependence relation            *)
(* ------------------------------------------------------------------ *)

(* The reference model: the dependence relation as a plain pairwise test
   over access lists.  The checker encodes footprints into sorted int
   arrays; the two must agree on every pair, and the one-word signatures
   must intersect on every pair that conflicts. *)
let access_conflict a b =
  match (a, b) with
  | Config.Mc_cell x, Config.Mc_cell y -> x.cell = y.cell && (x.write || y.write)
  | Config.Mc_thread x, Config.Mc_thread y -> x = y
  | Config.Mc_runq, Config.Mc_runq -> true
  | Config.Mc_intrq x, Config.Mc_intrq y | Config.Mc_spl x, Config.Mc_spl y ->
      x = y
  | Config.Mc_intrq x, Config.Mc_spl y | Config.Mc_spl x, Config.Mc_intrq y ->
      x = y
  | _ -> false

let fp_conflict f1 f2 =
  List.exists (fun a -> List.exists (fun b -> access_conflict a b) f2) f1

let footprint_gen =
  let open QCheck.Gen in
  (* Small id ranges so that footprints share resources often; one large
     id per kind guards the key packing. *)
  let id = frequency [ (9, int_range 0 4); (1, return (1 lsl 40)) ] in
  let access =
    frequency
      [
        (4, map2 (fun cell write -> Config.Mc_cell { cell; write }) id bool);
        (2, map (fun t -> Config.Mc_thread t) id);
        (1, return Config.Mc_runq);
        (2, map (fun c -> Config.Mc_intrq c) id);
        (2, map (fun c -> Config.Mc_spl c) id);
      ]
  in
  list_size (int_range 0 8) access

let footprint_conflict_prop =
  QCheck.Test.make ~count:2000
    ~name:"encoded footprint conflict = list-based access_conflict"
    (QCheck.make (QCheck.Gen.pair footprint_gen footprint_gen))
    (fun (f1, f2) ->
      let e1 = Mc.encode_footprint f1 and e2 = Mc.encode_footprint f2 in
      let conflict = fp_conflict f1 f2 in
      (* The race scan merges only footprints whose signatures
         intersect, so a conflict must never have disjoint ones. *)
      Mc.footprint_conflict e1 e2 = conflict
      && ((not conflict) || Mc.signature e1 land Mc.signature e2 <> 0))

(* A scenario that is not a function of its schedule: every execution
   after the first spawns a third worker.  The second execution replays
   the first one's prefix by stored choice, without enumerating the
   transitions, and must still stop where the count differs (two idle
   cpus, three queued workers where two were recorded) rather than
   explore a tree that is not there.  A depth that enumerated would list
   the transitions it saw after the count; a replayed one reports the
   count alone. *)
let test_divergence_detected () =
  let runs = ref 0 in
  let scenario () =
    incr runs;
    let c = Engine.Cell.make ~name:"shared" 0 in
    let workers = if !runs = 1 then 2 else 3 in
    List.init workers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
            Engine.Cell.set c (Engine.Cell.get c + 1)))
    |> List.iter Engine.join
  in
  match Mc.check ~cpus:2 scenario with
  | _ -> Alcotest.fail "a third worker in the second execution must diverge"
  | exception Mc.Diverged msg ->
      check_bool
        (Printf.sprintf "replayed depth reports the count it saw: %s" msg)
        true
        (contains msg "6 candidates, expected 4")

(* The checker paces the major GC by heap growth at execution
   boundaries: searching one cell again and again in one process keeps
   the heap where the first searches put it.  The heap's high-water mark
   after the last of twenty searches stays within eight 32 KB pools of
   its mark after the third.  Run first in its process, as it is here,
   the mark rises by 8,000-12,000 words paced and by 74,000-87,000
   unpaced (x86-64, OCaml 5.1.1); after the rest of the suite, an
   unpaced process has already grown and the searches show little. *)
let test_heap_flat_across_searches () =
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.compact ();
  let after_third = ref 0 in
  for i = 1 to 20 do
    let r = Mc.check ~cpus:2 Scenarios.scache_rw in
    check_bool "verified" true r.Mc.verified;
    if i = 3 then after_third := top ()
  done;
  let grown = top () - !after_third in
  if grown > 32_768 then
    Alcotest.failf
      "heap high-water mark rose by %d words over 17 searches after the \
       third (limit 32,768)"
      grown

let test_faults_excluded () =
  let cfg =
    {
      Config.default with
      Config.faults = { Config.no_faults with Config.drop_wakeup = 2 };
      mc =
        Some
          {
            Config.mc_replay = (fun _ -> None);
            mc_choose = (fun _ -> 0);
            mc_commit = (fun _ -> ());
          };
    }
  in
  match Engine.run ~cfg (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mc + fault injection must be rejected"

let () =
  Alcotest.run "mc"
    [
      (* First, so that its searches run in a fresh process. *)
      ( "memory",
        [
          Alcotest.test_case "heap flat across searches" `Quick
            test_heap_flat_across_searches;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "section 7 disciplined: verified" `Quick
            test_same_spl_verified;
          Alcotest.test_case "section 6 event-wait: verified" `Quick
            test_event_wait_verified;
          Alcotest.test_case "section 7 buggy: deadlock found" `Quick
            test_same_spl_buggy_fails;
        ] );
      ( "counterexample",
        [
          Alcotest.test_case "golden minimal trace" `Quick
            test_golden_counterexample;
          Alcotest.test_case "golden trace replays byte-identically" `Quick
            test_golden_replays;
        ] );
      ( "range matrix",
        [
          Alcotest.test_case "overlapping ranges serialize" `Quick
            test_range_matrix_overlap_serializes;
          Alcotest.test_case "compatible ranges interleave" `Quick
            test_range_matrix_disjoint_interleaves;
          Alcotest.test_case "fault vs deallocate on a Range map" `Quick
            test_range_map_fault_vs_deallocate;
        ] );
      ( "scache matrix",
        [
          Alcotest.test_case "3-cpu two readers vs one writer" `Slow
            test_scache_rrw_matrix;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "trace round-trip" `Quick test_trace_round_trip;
          Alcotest.test_case "budget expiry" `Quick test_budget_expiry;
          Alcotest.test_case "an expiry leaves the wait" `Quick
            test_expiry_leaves_the_wait;
          Alcotest.test_case "modes agree; reduction holds" `Quick
            test_modes_agree;
          Alcotest.test_case "domain fan-out agrees" `Quick test_domains_agree;
          Alcotest.test_case "preemption bounding" `Quick test_preemption_bound;
          Alcotest.test_case "fault injection excluded" `Quick
            test_faults_excluded;
          Alcotest.test_case "divergence detected on a replayed depth" `Quick
            test_divergence_detected;
          QCheck_alcotest.to_alcotest footprint_conflict_prop;
        ] );
    ]
