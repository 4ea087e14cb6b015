(* Tests for the simulated multiprocessor engine: scheduling, parking,
   interrupts, deadlock detection, determinism and the cache/bus model. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Explore = Mach_sim.Sim_explore
module Spl = Mach_core.Spl

let cfg ?(cpus = 4) ?(seed = 7) ?(policy = Config.Random_policy) () =
  { Config.default with Config.cpus; seed; policy }

let run ?cpus ?seed ?policy main =
  Engine.run ~cfg:(cfg ?cpus ?seed ?policy ()) main

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* ------------------------------------------------------------------ *)

let test_single_thread_runs () =
  let hit = ref false in
  let stats = run (fun () -> hit := true) in
  check_bool "main ran" true !hit;
  check_int "one thread spawned" 1 stats.Engine.spawned_threads

let test_spawn_join () =
  let order = ref [] in
  let _ =
    run (fun () ->
        let note tag = order := tag :: !order in
        let children =
          List.init 5 (fun i ->
              Engine.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
                  Engine.pause ();
                  note i))
        in
        List.iter Engine.join children;
        note 99)
  in
  (match !order with
  | 99 :: rest -> check_int "all children before join" 5 (List.length rest)
  | _ -> Alcotest.fail "join returned before children finished");
  ()

let test_join_already_dead () =
  let _ =
    run (fun () ->
        let t = Engine.spawn (fun () -> ()) in
        (* Let it finish first. *)
        for _ = 1 to 50 do
          Engine.pause ()
        done;
        Engine.join t;
        check_bool "dead" true (Engine.is_dead t))
  in
  ()

let test_park_unpark () =
  let got = ref 0 in
  let _ =
    run (fun () ->
        let waiter =
          Engine.spawn ~name:"waiter" (fun () ->
              Engine.park ();
              got := 1)
        in
        for _ = 1 to 10 do
          Engine.pause ()
        done;
        Engine.unpark waiter;
        Engine.join waiter)
  in
  check_int "waiter resumed" 1 !got

let test_permit_before_park () =
  (* unpark before park must not lose the wakeup. *)
  let _ =
    run (fun () ->
        let t = ref None in
        let waiter =
          Engine.spawn ~name:"w" (fun () ->
              for _ = 1 to 20 do
                Engine.pause ()
              done;
              Engine.park ())
        in
        t := Some waiter;
        Engine.unpark waiter;
        Engine.join waiter)
  in
  ()

let test_sleep_deadlock_detected () =
  match
    Engine.run_outcome ~cfg:(cfg ()) (fun () ->
        let t = Engine.spawn ~name:"forever" (fun () -> Engine.park ()) in
        Engine.join t)
  with
  | Engine.Deadlocked (Engine.Sleep_deadlock, report) ->
      check_bool "report mentions parked threads" true
        (contains report "parked")
  | _ -> Alcotest.fail "expected a sleep deadlock"

let test_spin_deadlock_detected () =
  (* Two threads spin forever on cells that never change. *)
  let outcome =
    Engine.run_outcome
      ~cfg:{ (cfg ()) with Config.watchdog_steps = 5_000 }
      (fun () ->
        let c = Engine.Cell.make ~name:"never" 0 in
        let spinner () =
          while Engine.Cell.get c = 0 do
            Engine.pause ()
          done
        in
        let a = Engine.spawn ~name:"s1" spinner in
        let b = Engine.spawn ~name:"s2" spinner in
        Engine.join a;
        Engine.join b)
  in
  match outcome with
  | Engine.Deadlocked (Engine.Spin_deadlock, _) -> ()
  | _ -> Alcotest.fail "expected a spin deadlock (watchdog)"

let test_determinism () =
  let trace_of seed =
    let log = ref [] in
    let _ =
      run ~seed (fun () ->
          let c = Engine.Cell.make 0 in
          let worker i () =
            for _ = 1 to 10 do
              let v = Engine.Cell.fetch_and_add c 1 in
              log := (i, v) :: !log
            done
          in
          let ts = List.init 3 (fun i -> Engine.spawn (worker i)) in
          List.iter Engine.join ts)
    in
    !log
  in
  check_bool "same seed, same schedule" true (trace_of 42 = trace_of 42);
  (* Different seeds almost surely differ for this racy workload. *)
  check_bool "different seed, different schedule" true
    (trace_of 42 <> trace_of 43)

let test_cell_semantics () =
  let _ =
    run (fun () ->
        let c = Engine.Cell.make ~name:"c" 5 in
        check_int "initial" 5 (Engine.Cell.get c);
        Engine.Cell.set c 9;
        check_int "set/get" 9 (Engine.Cell.get c);
        check_int "tas returns old" 9 (Engine.Cell.test_and_set c);
        check_int "tas set to 1" 1 (Engine.Cell.get c);
        Engine.Cell.set c 0;
        check_int "tas acquires" 0 (Engine.Cell.test_and_set c);
        check_bool "cas success" true
          (Engine.Cell.compare_and_swap c ~expected:1 ~desired:7);
        check_bool "cas failure" false
          (Engine.Cell.compare_and_swap c ~expected:1 ~desired:8);
        check_int "faa old" 7 (Engine.Cell.fetch_and_add c 3);
        check_int "faa new" 10 (Engine.Cell.get c))
  in
  ()

let test_fetch_add_atomic_under_contention () =
  let final = ref 0 in
  let _ =
    run ~cpus:4 (fun () ->
        let c = Engine.Cell.make 0 in
        let ts =
          List.init 4 (fun _ ->
              Engine.spawn (fun () ->
                  for _ = 1 to 100 do
                    ignore (Engine.Cell.fetch_and_add c 1)
                  done))
        in
        List.iter Engine.join ts;
        final := Engine.Cell.get c)
  in
  check_int "atomic increments" 400 !final

let test_interrupt_delivery () =
  let fired = ref false in
  let _ =
    run ~cpus:2 (fun () ->
        Engine.post_interrupt ~name:"test" ~cpu:(Engine.current_cpu ())
          ~level:Spl.Splvm (fun () -> fired := true);
        (* Delivery happens at a preemption point. *)
        while not !fired do
          Engine.pause ()
        done)
  in
  check_bool "handler ran" true !fired

let test_interrupt_masked_by_spl () =
  let fired = ref false in
  let _ =
    run ~cpus:1 (fun () ->
        let old = Engine.set_spl Spl.Splhigh in
        Engine.post_interrupt ~name:"masked" ~cpu:0 ~level:Spl.Splvm
          (fun () -> fired := true);
        for _ = 1 to 50 do
          Engine.pause ()
        done;
        check_bool "masked while at splhigh" false !fired;
        ignore (Engine.set_spl old);
        while not !fired do
          Engine.pause ()
        done)
  in
  check_bool "delivered after spl lowered" true !fired

let test_interrupt_nesting_and_spl_restore () =
  let order = ref [] in
  let _ =
    run ~cpus:1 (fun () ->
        Engine.post_interrupt ~name:"low" ~cpu:0 ~level:Spl.Splnet (fun () ->
            order := `Low_start :: !order;
            Engine.post_interrupt ~name:"high" ~cpu:0 ~level:Spl.Splclock
              (fun () -> order := `High :: !order);
            (* The higher-priority interrupt preempts this handler at its
               next preemption point. *)
            for _ = 1 to 20 do
              Engine.pause ()
            done;
            order := `Low_end :: !order);
        for _ = 1 to 200 do
          Engine.pause ()
        done;
        check_bool "spl restored to spl0" true
          (Spl.equal (Engine.get_spl ()) Spl.Spl0))
  in
  match List.rev !order with
  | [ `Low_start; `High; `Low_end ] -> ()
  | _ -> Alcotest.fail "nested interrupt did not preempt the low handler"

let test_interrupt_on_idle_cpu () =
  (* Post an IPI to an idle cpu, from [poster]'s cpu (or main's when
     unbound): it must still be delivered there, over the cpu's idle
     identity. *)
  let ipi ~cpus ?poster target =
    let ran = ref None in
    let _ =
      run ~cpus (fun () ->
          let post () =
            let other = target (Engine.current_cpu ()) in
            Engine.post_interrupt ~name:"idle-ipi" ~cpu:other ~level:Spl.Splvm
              (fun () ->
                ran :=
                  Some
                    ( other,
                      Engine.current_cpu (),
                      Engine.thread_name (Engine.self ()) ));
            while !ran = None do
              Engine.pause ()
            done
          in
          match poster with
          | None -> post ()
          | Some cpu -> Engine.join (Engine.spawn ~name:"poster" ~bound:cpu post))
    in
    match !ran with
    | None -> Alcotest.fail "interrupt never fired"
    | Some (other, cpu, identity) ->
        check_int (Printf.sprintf "%d cpus: ran on cpu %d" cpus other) other cpu;
        Alcotest.(check string)
          (Printf.sprintf "%d cpus: cpu %d was idle" cpus other)
          (Printf.sprintf "cpu%d-idle" other)
          identity
  in
  ipi ~cpus:2 (fun me -> 1 - me);
  (* Cpu 63 is the last bit of the second word of the scheduler's cpu
     sets. *)
  ipi ~cpus:64 ~poster:0 (fun _ -> 63)

let test_park_in_interrupt_panics () =
  match
    Engine.run_outcome ~cfg:(cfg ~cpus:1 ()) (fun () ->
        Engine.post_interrupt ~name:"bad" ~cpu:0 ~level:Spl.Splvm (fun () ->
            Engine.park ());
        for _ = 1 to 100 do
          Engine.pause ()
        done)
  with
  | Engine.Panicked msg ->
      check_bool "mentions interrupt" true (contains msg "interrupt")
  | _ -> Alcotest.fail "parking in an interrupt must panic"

let test_bound_thread_runs_on_its_cpu () =
  (* At 64 cpus the scheduler's cpu sets span two words: bind at both
     ends and on both sides of the 31 -> 32 boundary. *)
  List.iter
    (fun (cpus, bounds) ->
      let seen = Array.make (List.length bounds) (-1) in
      let _ =
        run ~cpus (fun () ->
            List.mapi
              (fun k cpu ->
                Engine.spawn ~name:(Printf.sprintf "pinned%d" cpu) ~bound:cpu
                  (fun () -> seen.(k) <- Engine.current_cpu ()))
              bounds
            |> List.iter Engine.join)
      in
      List.iteri
        (fun k cpu ->
          check_int (Printf.sprintf "%d cpus: ran on cpu %d" cpus cpu) cpu
            seen.(k))
        bounds)
    [ (4, [ 2 ]); (64, [ 0; 31; 32; 63 ]) ]

let test_ttas_fewer_bus_transactions_than_tas () =
  (* The section 2 cache claim, at engine level: spinning with plain reads
     (cache hits) generates far less bus traffic than spinning with
     test-and-set, and the bus saturation slows the whole machine down. *)
  let run_for spin_with_tas =
    let stats =
      Engine.run
        ~cfg:{ (cfg ~cpus:8 ~policy:Config.Timed ()) with Config.seed = 3 }
        (fun () ->
          let lock = Engine.Cell.make ~name:"l" 0 in
          (* Shared kernel data protected by the lock: its updates must
             cross the bus, so spin traffic delays useful work. *)
          let data = Array.init 4 (fun _ -> Engine.Cell.make 0) in
          let iters = 30 in
          let worker () =
            for _ = 1 to iters do
              let rec acquire () =
                if spin_with_tas then begin
                  if Engine.Cell.test_and_set lock <> 0 then begin
                    Engine.pause ();
                    acquire ()
                  end
                end
                else if
                  Engine.Cell.get lock = 0
                  && Engine.Cell.test_and_set lock = 0
                then ()
                else begin
                  Engine.pause ();
                  acquire ()
                end
              in
              acquire ();
              Array.iter
                (fun d -> ignore (Engine.Cell.fetch_and_add d 1))
                data;
              Engine.cycles 20;
              Engine.Cell.set lock 0
            done
          in
          let ts = List.init 8 (fun _ -> Engine.spawn worker) in
          List.iter Engine.join ts)
    in
    (stats.Engine.bus_transactions, stats.Engine.makespan)
  in
  let tas_bus, tas_time = run_for true in
  let ttas_bus, ttas_time = run_for false in
  check_bool
    (Printf.sprintf "ttas (%d) uses less bus than tas (%d)" ttas_bus tas_bus)
    true (ttas_bus < tas_bus);
  check_bool
    (Printf.sprintf "ttas (%d) completes before tas (%d)" ttas_time tas_time)
    true (ttas_time < tas_time)

let test_explore_all_completed () =
  let v =
    Explore.run ~cpus:2 ~seeds:(List.init 20 (fun i -> i + 1)) (fun () ->
        let t = Engine.spawn (fun () -> Engine.pause ()) in
        Engine.join t)
  in
  check_bool "all completed" true (Explore.all_completed v)

let test_explore_finds_deadlock () =
  match
    Explore.find_first_deadlock ~max_seeds:5 (fun () ->
        Engine.park () (* nobody will ever unpark main *))
  with
  | Some _ -> ()
  | None -> Alcotest.fail "exploration failed to find an obvious deadlock"

let () =
  Alcotest.run "sim_engine"
    [
      ( "threads",
        [
          Alcotest.test_case "single thread runs" `Quick
            test_single_thread_runs;
          Alcotest.test_case "spawn and join" `Quick test_spawn_join;
          Alcotest.test_case "join already-dead" `Quick
            test_join_already_dead;
          Alcotest.test_case "park/unpark" `Quick test_park_unpark;
          Alcotest.test_case "permit before park" `Quick
            test_permit_before_park;
          Alcotest.test_case "bound thread" `Quick
            test_bound_thread_runs_on_its_cpu;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "sleep deadlock detected" `Quick
            test_sleep_deadlock_detected;
          Alcotest.test_case "spin deadlock detected" `Quick
            test_spin_deadlock_detected;
        ] );
      ( "cells",
        [
          Alcotest.test_case "cell semantics" `Quick test_cell_semantics;
          Alcotest.test_case "atomic under contention" `Quick
            test_fetch_add_atomic_under_contention;
          Alcotest.test_case "ttas < tas bus traffic" `Quick
            test_ttas_fewer_bus_transactions_than_tas;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "delivery" `Quick test_interrupt_delivery;
          Alcotest.test_case "masking by spl" `Quick
            test_interrupt_masked_by_spl;
          Alcotest.test_case "nesting + spl restore" `Quick
            test_interrupt_nesting_and_spl_restore;
          Alcotest.test_case "idle cpu" `Quick test_interrupt_on_idle_cpu;
          Alcotest.test_case "park in interrupt panics" `Quick
            test_park_in_interrupt_panics;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "all completed" `Quick
            test_explore_all_completed;
          Alcotest.test_case "finds deadlock" `Quick
            test_explore_finds_deadlock;
        ] );
    ]
