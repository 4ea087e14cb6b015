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

let test_kept_cell_on_a_larger_machine () =
  (* A cell made during a run has a cache slot per cpu of that machine
     only.  Kept into a larger machine's run and touched from a cpu
     beyond them, every kind of access is a fatal error naming the cell,
     not an anonymous index-out-of-bounds exception. *)
  let kept = ref None in
  ignore
    (run ~cpus:2 (fun () -> kept := Some (Engine.Cell.make ~name:"kept" 0)));
  let c = Option.get !kept in
  List.iter
    (fun (what, touch) ->
      match
        Engine.run_outcome ~cfg:(cfg ~cpus:4 ()) (fun () ->
            Engine.join (Engine.spawn ~bound:3 (fun () -> touch c)))
      with
      | Engine.Panicked msg ->
          check_bool
            (Printf.sprintf "%s names the cell and the cpu: %s" what msg)
            true
            (contains msg "cell kept" && contains msg "cpu 3")
      | _ -> Alcotest.failf "%s on cpu 3 of a 4-cpu run must panic" what)
    [
      ("read", fun c -> ignore (Engine.Cell.get c));
      ("write", fun c -> Engine.Cell.set c 1);
      ("atomic", fun c -> ignore (Engine.Cell.fetch_and_add c 1));
    ]

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

(* An interrupt on an idle cpu holds and waits under that cpu's idle
   identity.  Thread [t] holds [intr-m] and wants [intr-l]; the handler
   it posted to idle cpu 1 holds [intr-l] and wants [intr-m].  The
   handler's hold and wait edges exist only under [cpu1-idle], so the
   waits-for cycle must go through that identity.  The run keeps the
   default configuration: every simulated deadlock carries its analysis. *)
let test_deadlock_through_idle_interrupt () =
  let module K = Mach_ksync.Ksync in
  let outcome =
    Engine.run_outcome ~cfg:(cfg ~cpus:2 ()) (fun () ->
        let m = K.Slock.make ~name:"intr-m" () in
        let l = K.Slock.make ~name:"intr-l" () in
        let handler_has_l = ref false in
        Engine.join
          (Engine.spawn ~name:"t" ~bound:0 (fun () ->
               ignore (Engine.set_spl Spl.Splvm);
               K.Slock.lock m;
               Engine.post_interrupt ~name:"grab" ~cpu:1 ~level:Spl.Splvm
                 (fun () ->
                   K.Slock.lock l;
                   handler_has_l := true;
                   K.Slock.lock m);
               while not !handler_has_l do
                 Engine.pause ()
               done;
               K.Slock.lock l)))
  in
  match (outcome, Engine.last_analysis ()) with
  | Engine.Deadlocked (Engine.Spin_deadlock, _), Some a ->
      let cycle = String.concat " -> " a.Engine.cycle in
      check_bool ("cycle names intr-m: " ^ cycle) true (contains cycle "intr-m");
      check_bool ("cycle names intr-l: " ^ cycle) true (contains cycle "intr-l");
      check_bool ("cycle goes through cpu1-idle: " ^ cycle) true
        (List.mem "cpu1-idle" a.Engine.cycle)
  | _ -> Alcotest.fail "expected a spin deadlock with a waits-for analysis"

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

(* ------------------------------------------------------------------ *)
(* Engine-run waits                                                     *)
(* ------------------------------------------------------------------ *)

(* The hand-written loops [Engine.spin_until] and [Engine.Cell.await]
   replace, kept here as the reference they must equal step for step. *)
let literal_until ?(budget = max_int) ready =
  let rec loop p =
    if p >= budget || ready () then p
    else begin
      Engine.spin_pause ();
      loop (p + 1)
    end
  in
  loop 0

let literal_await c ready =
  let rec loop p =
    if ready (Engine.Cell.get c) then p
    else begin
      Engine.spin_pause ();
      loop (p + 1)
    end
  in
  loop 0

type wait_form = Engine_run | Literal

(* Bound waiters on cpus 1.. wait for a writer that flips a cell (and a
   plain flag with it) after some work: [Cell.await] on the cell, an
   unbounded [spin_until] on the flag, one whose budget runs out and one
   whose budget does not.  The writer also posts interrupts whose
   handlers wait the same ways, on top of whatever the target cpu is
   running (often a waiting thread frame).  Returns the pause counts,
   in completion order, and every value a predicate was given. *)
let wait_scenario form ~cpus () =
  let until ?budget ready =
    match form with
    | Engine_run -> Engine.spin_until ?budget ready
    | Literal -> literal_until ?budget ready
  in
  let await c ready =
    match form with
    | Engine_run -> Engine.Cell.await c ready
    | Literal -> literal_await c ready
  in
  let flag = Engine.Cell.make ~name:"flag" 0 in
  let work = Engine.Cell.make ~name:"work" 0 in
  let plain = ref false in
  let results = ref [] and seen = ref [] in
  let record who pauses = results := (who, pauses) :: !results in
  let set v =
    seen := v :: !seen;
    v = 1
  in
  let wait_kind k who =
    match k mod 4 with
    | 0 -> record who (await flag set)
    | 1 -> record who (until (fun () -> !plain))
    | 2 -> record who (until ~budget:3 (fun () -> !plain))
    | _ -> record who (until ~budget:1_000_000 (fun () -> !plain))
  in
  let waiters =
    List.init (cpus - 1) (fun i ->
        let cpu = i + 1 in
        let who = Printf.sprintf "w%d" cpu in
        Engine.spawn ~name:who ~bound:cpu (fun () -> wait_kind i who))
  in
  let writer =
    Engine.spawn ~name:"writer" (fun () ->
        for j = 1 to 12 do
          Engine.cycles 40;
          ignore (Engine.Cell.fetch_and_add work 1);
          if j = 4 then
            List.iteri
              (fun k cpu ->
                let who = Printf.sprintf "i%d" cpu in
                Engine.post_interrupt ~name:who ~cpu ~level:Spl.Splvm
                  (fun () -> wait_kind k who))
              [ 1; cpus - 1 ]
        done;
        Engine.Cell.set flag 1;
        plain := true)
  in
  Engine.join writer;
  List.iter Engine.join waiters;
  (!results, !seen)

(* Rows of (cpus, policy, seed, fault odds).  The 16-cpu Timed row has
   most cpus outside the Timed window, so the window follows its least
   clock rather than rescanning; the faulted row delays deliverable
   interrupts, often on a cpu whose top frame waits, so that cpu resumes
   its wait in place of its cached wait action, and every step runs the
   fault hooks. *)
let test_engine_wait_equals_literal () =
  let faulted =
    { Config.no_faults with Config.delay_interrupt = 2; spurious_wakeup = 8 }
  in
  List.iter
    (fun (cpus, policy, seed, faults) ->
      let go form =
        let out = ref ([], []) in
        let stats =
          Engine.run
            ~cfg:{ (cfg ~cpus ~seed ~policy ()) with Config.faults }
            (fun () -> out := wait_scenario form ~cpus ())
        in
        (stats, !out, Option.get (Engine.last_chaos ()))
      in
      let s1, (r1, v1), c1 = go Engine_run in
      let s2, (r2, v2), c2 = go Literal in
      let injected = faults <> Config.no_faults in
      let what =
        Printf.sprintf "%d cpus, %s, seed %d%s" cpus
          (Config.policy_name policy)
          seed
          (if injected then ", faulted" else "")
      in
      check_bool (what ^ ": stats") true (s1 = s2);
      check_bool (what ^ ": chaos") true (c1 = c2);
      Alcotest.(check (list (pair string int))) (what ^ ": pauses") r2 r1;
      Alcotest.(check (list int)) (what ^ ": values read") v2 v1;
      check_bool (what ^ ": some wait ran out of budget") true
        (List.exists (fun (_, p) -> p = 3) r1);
      check_bool (what ^ ": some budgeted wait did not") true
        (List.exists (fun (_, p) -> p > 3 && p < 1_000_000) r1);
      if injected then
        check_bool (what ^ ": interrupts delayed, threads woken") true
          (c1.Engine.delayed_interrupts > 0 && c1.spurious_wakeups > 0))
    [
      (4, Config.Random_policy, 1, Config.no_faults);
      (4, Config.Round_robin, 2, Config.no_faults);
      (4, Config.Timed, 3, Config.no_faults);
      (16, Config.Timed, 7, Config.no_faults);
      (8, Config.Timed, 8, faulted);
      (64, Config.Random_policy, 4, Config.no_faults);
      (64, Config.Round_robin, 5, Config.no_faults);
      (64, Config.Timed, 6, Config.no_faults);
    ]

(* The same equivalence under the model checker: a waiter in each shape
   against a writer, explored exhaustively by DPOR. *)
let test_engine_wait_equals_literal_mc () =
  let cell form () =
    let flag = Engine.Cell.make ~name:"flag" 0 in
    let published = Engine.Cell.make ~name:"published" 0 in
    let plain = ref false in
    let waiter =
      Engine.spawn ~name:"waiter" (fun () ->
          match form with
          | Engine_run ->
              ignore (Engine.Cell.await flag (fun v -> v = 1));
              ignore (Engine.spin_until ~budget:4 (fun () -> !plain))
          | Literal ->
              ignore (literal_await flag (fun v -> v = 1));
              ignore (literal_until ~budget:4 (fun () -> !plain)))
    in
    Engine.Cell.set flag 1;
    Engine.cycles 10;
    plain := true;
    Engine.Cell.set published 1;
    Engine.join waiter
  in
  let module Mc = Mach_mc.Mc in
  let summary form =
    let r = Mc.check ~mode:Mc.Dpor (cell form) in
    if not r.Mc.verified then Alcotest.failf "%a" Mc.pp_result r;
    let s = r.Mc.stats in
    (s.Mc.executions, s.pruned, s.transitions, s.choice_points)
  in
  let a = summary Engine_run and b = summary Literal in
  check_bool "same counts" true (a = b)

let test_wait_predicate_contract () =
  (* A predicate that performs a machine operation or reads the running
     context while the engine evaluates it is a named fatal error, not
     an unhandled effect or a read of no frame's context.  The first
     check runs in the fiber, where the operation is legal. *)
  List.iter
    (fun (op, misbehave) ->
      match
        Engine.run_outcome ~cfg:(cfg ~cpus:2 ()) (fun () ->
            let c = Engine.Cell.make ~name:"probe" 0 in
            let me = Engine.self () in
            let t =
              Engine.spawn (fun () ->
                  Engine.cycles 100;
                  Engine.Cell.set c 1)
            in
            let first = ref true in
            ignore
              (Engine.spin_until (fun () ->
                   if not !first then misbehave c me;
                   first := false;
                   Engine.Cell.get c = 1));
            Engine.join t)
      with
      | Engine.Panicked msg ->
          check_bool
            (Printf.sprintf "%s: names the wait and the operation: %s" op msg)
            true
            (contains msg "predicate of spin_until" && contains msg op)
      | _ -> Alcotest.failf "%s inside spin_until's predicate must panic" op)
    [
      ("a cell operation", fun c _ -> ignore (Engine.Cell.get c));
      ("pause", fun _ _ -> Engine.pause ());
      ("park", fun _ _ -> Engine.park ());
      ("cycles", fun _ _ -> Engine.cycles 1);
      ("set_spl", fun _ _ -> ignore (Engine.set_spl Spl.Splhigh));
      ("unpark", fun _ me -> Engine.unpark me);
      ("spawn", fun _ _ -> ignore (Engine.spawn (fun () -> ())));
      ( "post_interrupt",
        fun _ _ ->
          Engine.post_interrupt ~cpu:1 ~level:Spl.Splvm (fun () -> ()) );
      ("self", fun _ _ -> ignore (Engine.self ()));
      ("now_cycles", fun _ _ -> ignore (Engine.now_cycles ()));
      ("current_cpu", fun _ _ -> ignore (Engine.current_cpu ()));
      ("get_spl", fun _ _ -> ignore (Engine.get_spl ()));
    ]

let test_wait_outside_a_thread () =
  (* Outside a simulated thread nothing can change a failed check: a
     bounded wait spends its budget, an unbounded one is refused. *)
  check_int "budget spent" 5 (Engine.spin_until ~budget:5 (fun () -> false));
  check_int "first check holds" 0 (Engine.spin_until (fun () -> true));
  let c = Engine.Cell.make ~name:"idle" 0 in
  check_int "value already there" 0 (Engine.Cell.await c (fun v -> v = 0));
  match Engine.Cell.await c (fun v -> v = 1) with
  | _ -> Alcotest.fail "an unbounded wait outside a thread must be refused"
  | exception Engine.Kernel_panic _ -> ()

(* The SplitMix64 stream itself: every schedule is a function of it, so
   a change to the generator's representation must leave these values
   as they are.  [copy] must give an independent generator: draws from
   the copy leave the original where it was. *)
let test_rng_stream_and_copy () =
  let module Rng = Mach_sim.Sim_rng in
  List.iter
    (fun (seed, expected) ->
      let t = Rng.make seed in
      List.iteri
        (fun i v ->
          check_int (Printf.sprintf "seed %d draw %d" seed i) v (Rng.next t))
        expected)
    [
      ( 1,
        [
          589247400368751047; 1332979573466417937; 502526960763541152;
          947045033056371473; 459234201185271890; 2518517405150344927;
          4365123174149004738; 4053358328027661375;
        ] );
      ( 3,
        [
          3119250675482766366; 4534518981844068699; 3876114437759809920;
          879167274396062637; 4292814611115540725; 2526229254985099159;
          1120045505311163970; 1054386664558676946;
        ] );
    ];
  let t = Rng.make 3 in
  ignore (Rng.next t);
  let u = Rng.copy t in
  let first = Rng.next u in
  ignore (Rng.next u);
  ignore (Rng.next u);
  check_int "the original is untouched by the copy's draws" first (Rng.next t)

(* ------------------------------------------------------------------ *)
(* Ending a run: every fiber a run abandons is unwound, inertly         *)
(* ------------------------------------------------------------------ *)

(* The report of [test_abandoned_fibers_unwound]'s run: its fibers are
   unwound only after the report is fixed. *)
let abandoned_report =
  "no productive operation for 2000 steps; machine state:\n\
  \  cpu0 clock=4920 spl=spl0 frames=[spinner] pending=0\n\
  \  cpu1 clock=624 spl=spl0 frames=[] pending=0\n\
  \  cpu2 clock=4797 spl=splvm frames=[intr:spin; awaiter] pending=0\n\
  \  runq=[queued]\n\
  \  parked=[waker; main]\n"

(* A spin deadlock that leaves one fiber of every suspended kind:
   [parked] waits for a wakeup that never comes; [spin_until] holds cpu
   0 in an engine-run wait; [queued] was woken but waits on cpu 0's run
   queue behind it; [await] is in an engine-run [Cell.await] on cpu 2,
   with [handler] spinning in an interrupt frame above it; [main]
   joins.  Each body's [finally] runs once, before [run] returns. *)
let test_abandoned_fibers_unwound () =
  let finished = ref [] in
  let protect name body =
    Fun.protect ~finally:(fun () -> finished := name :: !finished) body
  in
  let outcome =
    Engine.run_outcome
      ~cfg:
        { (cfg ~cpus:3 ()) with Config.watchdog_steps = 2_000; spans = false }
      (fun () ->
        protect "main" @@ fun () ->
        let never = Engine.Cell.make ~name:"never" 0 in
        let queued_parked = ref false and awaiting = ref false in
        let queued =
          Engine.spawn ~name:"queued" ~bound:0 (fun () ->
              protect "queued" @@ fun () ->
              queued_parked := true;
              Engine.park ())
        in
        ignore
          (Engine.spawn ~name:"spinner" ~bound:0 (fun () ->
               protect "spin_until" @@ fun () ->
               ignore (Engine.spin_until (fun () -> false))));
        ignore
          (Engine.spawn ~name:"awaiter" ~bound:2 (fun () ->
               protect "await" @@ fun () ->
               ignore
                 (Engine.Cell.await never (fun v ->
                      awaiting := true;
                      v = 1))));
        let waker =
          Engine.spawn ~name:"waker" ~bound:1 (fun () ->
              protect "parked" @@ fun () ->
              ignore
                (Engine.spin_until (fun () -> !queued_parked && !awaiting));
              Engine.unpark queued;
              Engine.post_interrupt ~name:"spin" ~cpu:2 ~level:Spl.Splvm
                (fun () ->
                  protect "handler" @@ fun () ->
                  ignore (Engine.spin_until (fun () -> false)));
              Engine.park ())
        in
        Engine.join waker)
  in
  (match outcome with
  | Engine.Deadlocked (Engine.Spin_deadlock, report) ->
      Alcotest.(check string) "the report" abandoned_report report
  | _ -> Alcotest.fail "expected a spin deadlock");
  Alcotest.(check (list string))
    "every body's finally ran once"
    [ "await"; "handler"; "main"; "parked"; "queued"; "spin_until" ]
    (List.sort compare !finished)

(* Unwinding changes nothing the run reported: a handler stops at its
   first machine operation.  A hold unwound through [with_lock]
   releases nothing, even with checking off (as in the section-7 buggy
   scenarios), where no holder check would refuse the release; and a
   write after the first machine operation never lands. *)
let test_unwinding_is_inert () =
  let module K = Mach_ksync.Ksync in
  let module Metrics = Mach_obs.Obs_metrics in
  let module Profile = Mach_obs.Obs_profile in
  let module Histogram = Mach_obs.Obs_histogram in
  let outside = Engine.Cell.make ~name:"outside" 0 in
  let stage = ref 0 in
  let deadlock hold =
    Metrics.reset ();
    Profile.reset ();
    (match
       Engine.run_outcome ~cfg:(cfg ~cpus:2 ()) (fun () ->
           let m = K.Slock.make ~name:"timed" () in
           let l = K.Slock.make ~name:"held" () in
           K.Slock.with_lock m (fun () -> Engine.cycles 10);
           let holder = Engine.spawn ~name:"holder" (fun () -> hold l) in
           ignore
             (Engine.spawn ~name:"writer" (fun () ->
                  try Engine.park ()
                  with e ->
                    stage := 1;
                    Engine.Cell.set outside 7;
                    stage := 2;
                    raise e));
           Engine.join holder)
     with
    | Engine.Deadlocked (Engine.Sleep_deadlock, _) -> ()
    | _ -> Alcotest.fail "expected a sleep deadlock");
    let hold = Metrics.merged (Metrics.histogram "lock.hold_cycles") in
    ( Metrics.counter_value (Metrics.counter "lock.acquisitions"),
      (Histogram.count hold, Histogram.sum hold),
      Profile.classes () )
  in
  K.Slock.set_checking false;
  let scoped, plain =
    Fun.protect ~finally:(fun () -> K.Slock.set_checking true) (fun () ->
        let scoped = deadlock (fun l -> K.Slock.with_lock l Engine.park) in
        ( scoped,
          deadlock (fun l ->
              K.Slock.lock l;
              Engine.park ()) ))
  in
  let acquisitions, (holds, _), _ = plain in
  check_int "two acquisitions" 2 acquisitions;
  check_int "one timed hold" 1 holds;
  check_bool "with_lock and lock leave the same metrics and profile" true
    (scoped = plain);
  check_int "the handler ran up to its first machine operation" 1 !stage;
  check_int "its write never landed" 0 (Engine.Cell.get outside)

(* Every run's abandoned stacks go back to the runtime: thousands of
   deadlocked runs leave the resident size where it was.  Skipped where
   /proc/self/status does not exist. *)
let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.starts_with ~prefix:"VmRSS:" l ->
            Scanf.sscanf l "VmRSS: %d kB" Option.some
        | _ -> scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

let test_abandoned_stacks_freed () =
  let deadlocked_runs n =
    for _ = 1 to n do
      match
        Engine.run_outcome ~cfg:(cfg ~cpus:2 ()) (fun () ->
            let ts = List.init 4 (fun _ -> Engine.spawn Engine.park) in
            List.iter Engine.join ts)
      with
      | Engine.Deadlocked (Engine.Sleep_deadlock, _) -> ()
      | _ -> Alcotest.fail "expected a sleep deadlock"
    done
  in
  match vm_rss_kb () with
  | None -> Alcotest.skip ()
  | Some _ ->
      deadlocked_runs 100;
      Gc.compact ();
      let before = Option.get (vm_rss_kb ()) in
      deadlocked_runs 5_000;
      Gc.compact ();
      let grown = Option.get (vm_rss_kb ()) - before in
      check_bool
        (Printf.sprintf "5000 deadlocked runs grew VmRSS by %d kB" grown)
        true (grown < 5 * 1024)

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
          Alcotest.test_case "kept cell on a larger machine" `Quick
            test_kept_cell_on_a_larger_machine;
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
          Alcotest.test_case "deadlock through an idle cpu's handler" `Quick
            test_deadlock_through_idle_interrupt;
        ] );
      ( "waits",
        [
          Alcotest.test_case "engine-run == literal loop" `Quick
            test_engine_wait_equals_literal;
          Alcotest.test_case "engine-run == literal loop (mc)" `Quick
            test_engine_wait_equals_literal_mc;
          Alcotest.test_case "predicate contract" `Quick
            test_wait_predicate_contract;
          Alcotest.test_case "outside a thread" `Quick
            test_wait_outside_a_thread;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "every abandoned fiber unwound" `Quick
            test_abandoned_fibers_unwound;
          Alcotest.test_case "unwinding is inert" `Quick
            test_unwinding_is_inert;
          Alcotest.test_case "abandoned stacks freed" `Quick
            test_abandoned_stacks_freed;
        ] );
      ( "rng",
        [
          Alcotest.test_case "stream and copy" `Quick test_rng_stream_and_copy;
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
