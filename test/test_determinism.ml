(* Golden determinism regression + parallel-exploration equivalence.

   The golden test pins the exact (seed, cfg) -> stats mapping of the
   simulated machine across three scenario families; see
   test/support/golden_scenarios.ml.  The exploration tests check that
   [Sim_explore.run ~domains:n] is observably identical to the
   sequential fold for every n. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Explore = Mach_sim.Sim_explore
module Golden = Test_support.Golden_scenarios

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_golden_stats () =
  let expected = read_file "golden/determinism.expected" in
  let actual = Golden.render () in
  (* Version stamp first: a golden from an older engine fails with a
     message naming the versions, not a stats diff to puzzle over. *)
  let version = Golden.version_line () in
  let stale =
    String.length expected < String.length version
    || not
         (String.equal (String.sub expected 0 (String.length version)) version)
  in
  if stale then
    Alcotest.failf
      "golden/determinism.expected was generated by a different engine \
       schedule version (current: %d).  The schedule changed intentionally; \
       regenerate with `dune exec test/gen_golden.exe -- \
       test/golden/determinism.expected`"
      Engine.schedule_version;
  if String.equal expected actual then ()
  else begin
    Printf.printf
      "golden mismatch.\n--- expected ---\n%s--- actual ---\n%s" expected
      actual;
    Alcotest.fail
      "golden (seed, cfg) -> stats changed; if intentional, regenerate \
       with `dune exec test/gen_golden.exe -- test/golden/determinism.expected`"
  end

let test_shared_rng_reseeded () =
  (* The shared test RNG must be reseeded at every run boundary: a test
     drawing from it inside [in_sim] sees the same stream no matter how
     many simulations ran earlier in the process. *)
  let draws () =
    Test_support.in_sim (fun () -> List.init 8 (fun _ -> Test_support.rng_int 1000))
  in
  let a = draws () in
  let b = draws () in
  Alcotest.(check (list int)) "same stream in every run" a b

let test_repeat_identical () =
  (* The same process, run twice: the engine must not leak state between
     runs (per-run counters, caches, traces). *)
  let a = Golden.render () in
  let b = Golden.render () in
  Alcotest.(check string) "second render identical" a b

(* ------------------------------------------------------------------ *)
(* Parallel exploration equivalence                                     *)
(* ------------------------------------------------------------------ *)

(* All locks named explicitly: failure reports quote lock names, and
   unnamed locks embed a process-global allocation id that depends on run
   order.  Named locks make the verdict (including report strings)
   independent of which domain ran which seed. *)
let clean_scenario () =
  let module K = Mach_ksync.Ksync in
  let l = K.Slock.make ~name:"clean" () in
  let c = Engine.Cell.make ~name:"n" 0 in
  let ts =
    List.init 3 (fun _ ->
        Engine.spawn (fun () ->
            for _ = 1 to 5 do
              K.Slock.lock l;
              ignore (Engine.Cell.fetch_and_add c 1);
              K.Slock.unlock l
            done))
  in
  List.iter Engine.join ts

(* AB/BA ordering bug: deadlocks on some schedules, completes on others —
   the mixed-outcome case the failure list must report identically. *)
let abba_scenario () =
  let module K = Mach_ksync.Ksync in
  let a = K.Slock.make ~name:"A" () in
  let b = K.Slock.make ~name:"B" () in
  let forward () =
    for _ = 1 to 3 do
      K.Slock.lock a;
      Engine.cycles 10;
      K.Slock.lock b;
      Engine.cycles 10;
      K.Slock.unlock b;
      K.Slock.unlock a;
      Engine.pause ()
    done
  in
  let backward () =
    for _ = 1 to 3 do
      K.Slock.lock b;
      Engine.cycles 10;
      K.Slock.lock a;
      Engine.cycles 10;
      K.Slock.unlock a;
      K.Slock.unlock b;
      Engine.pause ()
    done
  in
  let t1 = Engine.spawn ~name:"fwd" forward in
  let t2 = Engine.spawn ~name:"bwd" backward in
  Engine.join t1;
  Engine.join t2

let verdict_testable =
  let pp ppf (v : Explore.verdict) =
    Format.fprintf ppf "%a failures=[%s]" Explore.pp_verdict v
      (String.concat "; "
         (List.map (fun (s, _) -> string_of_int s) v.Explore.failures))
  in
  Alcotest.testable pp ( = )

let check_parallel_matches scenario ~seeds =
  let seeds = List.init seeds (fun s -> s + 1) in
  let sequential = Explore.run ~cpus:3 ~seeds scenario in
  List.iter
    (fun domains ->
      let par = Explore.run ~cpus:3 ~seeds ~domains scenario in
      Alcotest.check verdict_testable
        (Printf.sprintf "domains=%d verdict" domains)
        sequential par)
    [ 1; 2; 4 ]

let test_parallel_equivalence_clean () =
  check_parallel_matches clean_scenario ~seeds:24

let test_parallel_equivalence_mixed () =
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 40 (fun s -> s + 1))
      abba_scenario
  in
  (* The scenario must actually produce both outcomes, or the test below
     proves nothing about failure aggregation. *)
  Alcotest.(check bool) "some seeds deadlock" true (Explore.some_deadlock v);
  Alcotest.(check bool) "some seeds complete" true (v.Explore.completed > 0);
  check_parallel_matches abba_scenario ~seeds:40

(* wire-recursive creates an unnamed vm map, whose name shows in its
   deadlock reports: the name must come from the run, not from how many
   runs this process (or domain) made before. *)
let test_parallel_equivalence_unnamed_map () =
  let scenario = (Mach_kernel.Scenarios.get "wire-recursive").run in
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 40 (fun s -> s + 1))
      scenario
  in
  Alcotest.(check bool) "some seeds deadlock" true (Explore.some_deadlock v);
  check_parallel_matches scenario ~seeds:40

let test_failures_first_ascending () =
  (* Every seed of a guaranteed deadlock: the failure list must hold the
     FIRST 16 seeds in ascending order (not the last 16 reversed). *)
  let always_deadlock () = Engine.park () in
  let v =
    Explore.run ~cpus:2
      ~seeds:(List.init 25 (fun s -> s + 1))
      always_deadlock
  in
  Alcotest.(check int) "capped at 16" 16 (List.length v.Explore.failures);
  Alcotest.(check (list int)) "first 16 seeds, ascending"
    (List.init 16 (fun s -> s + 1))
    (List.map fst v.Explore.failures)

(* ------------------------------------------------------------------ *)
(* Deadlock reports                                                     *)
(* ------------------------------------------------------------------ *)

module K = Mach_ksync.Ksync

let cycle_line report =
  match
    List.find_opt
      (fun l -> String.trim l |> String.starts_with ~prefix:"waits-for cycle")
      (String.split_on_char '\n' report)
  with
  | Some l -> String.trim l
  | None -> "no waits-for cycle in:\n" ^ report

(* [take first second] on one thread and [take second first] on another,
   on 2 cpus: each takes its first lock before either tries its second,
   so every schedule deadlocks. *)
let abba ~take a b =
  let both = Engine.Cell.make ~name:"both" 0 in
  let run first second () =
    take first;
    ignore (Engine.Cell.fetch_and_add both 1);
    ignore (Engine.Cell.await both (fun v -> v = 2));
    take second
  in
  let t1 = Engine.spawn ~name:"t1" (run a b) in
  let t2 = Engine.spawn ~name:"t2" (run b a) in
  Engine.join t1;
  Engine.join t2

let two_cpus = { Config.default with Config.cpus = 2 }

let deadlock_cycle scenario =
  match Engine.run_outcome ~cfg:two_cpus scenario with
  | Engine.Deadlocked (_, report) -> cycle_line report
  | _ -> Alcotest.fail "expected a deadlock"

(* A complex lock's event is aliased to the lock for the detector.  Event
   ids restart at every run and in every domain, so a simulation in
   another domain that makes complex locks during this run must not
   rename this run's events. *)
let test_alias_other_domain () =
  let other_domain () =
    Domain.join
      (Domain.spawn (fun () ->
           ignore
             (Engine.run (fun () ->
                  ignore (K.Clock.make ~name:"other-a" ~can_sleep:true ());
                  ignore (K.Clock.make ~name:"other-b" ~can_sleep:true ())))))
  in
  let scenario ~meanwhile () =
    let a = K.Clock.make ~name:"alias-a" ~can_sleep:true () in
    let b = K.Clock.make ~name:"alias-b" ~can_sleep:true () in
    meanwhile ();
    abba ~take:K.Clock.lock_write a b
  in
  let expected =
    "waits-for cycle: complex lock alias-a -> t1 -> event 2 -> complex lock \
     alias-b -> t2 -> event 1 -> complex lock alias-a"
  in
  Alcotest.(check string) "alone" expected
    (deadlock_cycle (scenario ~meanwhile:ignore));
  Alcotest.(check string) "with a simulation in another domain" expected
    (deadlock_cycle (scenario ~meanwhile:other_domain))

(* Lock uids are process-wide, so how many locks the process made before
   must not decide where the printed cycle starts: a pair whose uids
   straddle a power of ten (9 and 10) prints the cycle a pair with uids of
   one width prints. *)
let test_cycle_independent_of_uid_width () =
  let rec lock_with_uid n name =
    let l = K.Slock.make ~name () in
    if K.Slock.uid l < n then lock_with_uid n name else l
  in
  let cycle_from uid =
    let uids = ref [] in
    let cycle =
      deadlock_cycle (fun () ->
          let a = lock_with_uid uid "abba-a" in
          let b = K.Slock.make ~name:"abba-b" () in
          uids := [ K.Slock.uid a; K.Slock.uid b ];
          abba ~take:K.Slock.lock a b)
    in
    Alcotest.(check (list int)) "uids placed" [ uid; uid + 1 ] !uids;
    cycle
  in
  let next = K.Slock.uid (K.Slock.make ()) + 2 in
  let rec power p = if p >= next then p else power (p * 10) in
  let p = power 10 in
  let straddling = cycle_from (p - 1) in
  Alcotest.(check string) "same cycle" (cycle_from (p + 1)) straddling;
  Alcotest.(check bool) "names the cycle" true
    (String.starts_with ~prefix:"waits-for cycle: simple lock abba-a"
       straddling)

let () =
  Alcotest.run "determinism"
    [
      ( "golden",
        [
          Alcotest.test_case "stats byte-identical" `Quick test_golden_stats;
          Alcotest.test_case "no cross-run state leak" `Quick
            test_repeat_identical;
          Alcotest.test_case "shared test RNG reseeded per run" `Quick
            test_shared_rng_reseeded;
        ] );
      ( "explore",
        [
          Alcotest.test_case "parallel == sequential (all complete)" `Quick
            test_parallel_equivalence_clean;
          Alcotest.test_case "parallel == sequential (mixed outcomes)" `Quick
            test_parallel_equivalence_mixed;
          Alcotest.test_case "failure list: first 16 ascending" `Quick
            test_failures_first_ascending;
          Alcotest.test_case "parallel == sequential (unnamed vm map)" `Quick
            test_parallel_equivalence_unnamed_map;
        ] );
      ( "report",
        [
          Alcotest.test_case "cycle unchanged by another domain's run" `Quick
            test_alias_other_domain;
          Alcotest.test_case "cycle unchanged by lock uid width" `Quick
            test_cycle_independent_of_uid_width;
        ] );
    ]
