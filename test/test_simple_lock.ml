(* Simple locks on the simulated machine: Appendix A semantics, the
   design-rule assertions, and mutual exclusion under schedule
   exploration. *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module Spl = Mach_core.Spl
module Lock_proto = Mach_core.Lock_proto
module K = Mach_ksync.Ksync

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let in_sim f =
  let result = ref None in
  ignore
    (Engine.run (fun () -> result := Some (f ())));
  Option.get !result

(* ------------------------------------------------------------------ *)

let test_basic_lock_unlock () =
  in_sim (fun () ->
      let l = K.Slock.make ~name:"t" () in
      check_bool "initially free" false (K.Slock.is_locked l);
      K.Slock.lock l;
      check_bool "locked" true (K.Slock.is_locked l);
      check_bool "held by self" true (K.Slock.held_by_self l);
      K.Slock.unlock l;
      check_bool "free again" false (K.Slock.is_locked l))

let test_try_lock () =
  in_sim (fun () ->
      let l = K.Slock.make () in
      check_bool "try succeeds when free" true (K.Slock.try_lock l);
      check_bool "try fails when held" false (K.Slock.try_lock l);
      K.Slock.unlock l;
      check_bool "try succeeds after unlock" true (K.Slock.try_lock l);
      K.Slock.unlock l)

let test_all_protocols_acquire () =
  in_sim (fun () ->
      List.iter
        (fun p ->
          let l = K.Slock.make ~proto:p () in
          K.Slock.lock l;
          K.Slock.unlock l)
        K.Locks.all)

let test_unlock_by_non_holder_panics () =
  match
    Engine.run_outcome (fun () ->
        let l = K.Slock.make ~name:"owned" () in
        K.Slock.lock l;
        let intruder = Engine.spawn ~name:"intruder" (fun () ->
            K.Slock.unlock l)
        in
        Engine.join intruder)
  with
  | Engine.Panicked msg ->
      check_bool "names the lock" true (contains msg "owned")
  | _ -> Alcotest.fail "unlock by non-holder must panic"

let test_recursive_simple_lock_panics () =
  match
    Engine.run_outcome (fun () ->
        let l = K.Slock.make () in
        K.Slock.lock l;
        K.Slock.lock l)
  with
  | Engine.Panicked msg ->
      check_bool "mentions recursion" true (contains msg "recursive")
  | _ -> Alcotest.fail "recursive simple lock acquisition must panic"

let test_same_spl_rule_enforced () =
  (* Section 7: each lock must always be acquired at the same spl. *)
  match
    Engine.run_outcome (fun () ->
        let l = K.Slock.make ~name:"spl-pinned" () in
        let old = Engine.set_spl Spl.Splvm in
        K.Slock.lock l;
        K.Slock.unlock l;
        ignore (Engine.set_spl old);
        (* second acquisition at a different level *)
        K.Slock.lock l)
  with
  | Engine.Panicked msg ->
      check_bool "mentions the spl rule" true (contains msg "same-spl")
  | _ -> Alcotest.fail "acquiring at a different spl must panic"

let test_spl_pinned_at_creation () =
  match
    Engine.run_outcome (fun () ->
        let l = K.Slock.make ~name:"pinned" ~spl:Spl.Splvm () in
        (* acquired at spl0: violates the pin *)
        K.Slock.lock l)
  with
  | Engine.Panicked _ -> ()
  | _ -> Alcotest.fail "violating a pinned spl must panic"

let test_mutual_exclusion_explored () =
  (* The fundamental property, over many schedules: no two threads inside
     the critical section at once. *)
  let scenario proto () =
    let l = K.Slock.make ~proto () in
    let inside = ref 0 in
    let worker () =
      for _ = 1 to 5 do
        K.Slock.lock l;
        incr inside;
        if !inside <> 1 then Engine.fatal "mutual exclusion violated";
        Engine.pause ();
        decr inside;
        K.Slock.unlock l
      done
    in
    let ts = List.init 3 (fun i ->
        Engine.spawn ~name:(Printf.sprintf "w%d" i) worker)
    in
    List.iter Engine.join ts
  in
  List.iter
    (fun p ->
      let v =
        Explore.run ~cpus:3
          ~seeds:(List.init 25 (fun i -> i + 1))
          (scenario p)
      in
      check_bool
        (Lock_proto.name p ^ " exclusion holds on all schedules")
        true (Explore.all_completed v))
    K.Locks.spin

(* The profiler's count for the lock's class, as a difference: it adds
   up over every run of the process. *)
let test_contention_counted () =
  let acquisitions () =
    match
      List.find_opt
        (fun (c : Mach_obs.Obs_profile.class_stats) -> c.cls = "counted")
        (Mach_obs.Obs_profile.classes ())
    with
    | Some c -> c.acquisitions
    | None -> 0
  in
  in_sim (fun () ->
      let l = K.Slock.make ~name:"counted" () in
      let before = acquisitions () in
      let worker () =
        for _ = 1 to 10 do
          K.Slock.lock l;
          Engine.cycles 20;
          K.Slock.unlock l
        done
      in
      let ts = List.init 4 (fun _ -> Engine.spawn worker) in
      List.iter Engine.join ts;
      check_int "all acquisitions recorded" 40 (acquisitions () - before))

(* The uncontended path allocates what it keeps: the two cell
   operations' continuations, the hold and the wait edge on the
   thread's context, the holder.  A lock pair's words are measured
   against a test-and-set + set pair's, the same two cell operations
   without the lock layer, in the same process on a 1-cpu machine, so
   the bound holds whatever a cell operation costs on the compiler in
   use.  Spans are on, as they ship. *)
let test_uncontended_allocation () =
  let n = 2_000 in
  let per_op f =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let cfg = { Mach_sim.Sim_config.default with cpus = 1 } in
  ignore
    (Engine.run ~cfg (fun () ->
         let c = Engine.Cell.make ~name:"bare" 0 in
         let l = K.Slock.make ~name:"uncontended" () in
         let cells () =
           ignore (Engine.Cell.test_and_set c);
           Engine.Cell.set c 0
         in
         let pair () =
           K.Slock.lock l;
           K.Slock.unlock l
         in
         (* The first pair builds the site's class and span tag. *)
         pair ();
         let cells = per_op cells and pair = per_op pair in
         if pair > cells +. 24. then
           Alcotest.failf
             "an uncontended lock pair allocates %.1f words, %.1f beyond \
              its two cell operations (at most 24)"
             pair (pair -. cells)))

let test_uniprocessor_mode () =
  in_sim (fun () ->
      K.Slock.set_uniprocessor true;
      Fun.protect
        ~finally:(fun () -> K.Slock.set_uniprocessor false)
        (fun () ->
          let l = K.Slock.make () in
          (* Defined out: lock/unlock are no-ops, try always succeeds. *)
          K.Slock.lock l;
          K.Slock.lock l;
          check_bool "try under up mode" true (K.Slock.try_lock l);
          K.Slock.unlock l))

let test_lock_both_by_uid_no_deadlock () =
  (* Two threads locking the same pair in opposite argument orders must
     never deadlock thanks to uid ordering (section 5). *)
  let v =
    Explore.run ~cpus:2
      ~seeds:(List.init 40 (fun i -> i + 1))
      (fun () ->
        let a = K.Slock.make ~name:"a" () in
        let b = K.Slock.make ~name:"b" () in
        let t1 =
          Engine.spawn (fun () ->
              for _ = 1 to 5 do
                K.Order.lock_both_by_uid a b;
                Engine.pause ();
                K.Order.unlock_both a b
              done)
        in
        let t2 =
          Engine.spawn (fun () ->
              for _ = 1 to 5 do
                K.Order.lock_both_by_uid b a;
                Engine.pause ();
                K.Order.unlock_both b a
              done)
        in
        Engine.join t1;
        Engine.join t2)
  in
  check_bool "no deadlocks" true (Explore.all_completed v)

let test_opposite_order_deadlocks () =
  (* The anti-test: naive opposite-order acquisition must deadlock on some
     schedule, and the engine must find it. *)
  match
    Explore.find_first_deadlock ~cpus:2 ~max_seeds:100 (fun () ->
        let a = K.Slock.make ~name:"a" () in
        let b = K.Slock.make ~name:"b" () in
        let t1 =
          Engine.spawn (fun () ->
              K.Slock.lock a;
              Engine.pause ();
              K.Slock.lock b;
              K.Slock.unlock b;
              K.Slock.unlock a)
        in
        let t2 =
          Engine.spawn (fun () ->
              K.Slock.lock b;
              Engine.pause ();
              K.Slock.lock a;
              K.Slock.unlock a;
              K.Slock.unlock b)
        in
        Engine.join t1;
        Engine.join t2)
  with
  | Some (_seed, report) ->
      check_bool "report shows spinning" true (contains report "spinning")
  | None -> Alcotest.fail "opposite-order locking should deadlock somewhere"

let test_backout_protocol_never_deadlocks () =
  (* Same conflict, resolved with the section 5 backout protocol. *)
  let v =
    Explore.run ~cpus:2
      ~seeds:(List.init 40 (fun i -> i + 1))
      (fun () ->
        let a = K.Slock.make ~name:"a" () in
        let b = K.Slock.make ~name:"b" () in
        let t1 =
          Engine.spawn (fun () ->
              for _ = 1 to 3 do
                K.Slock.lock a;
                Engine.pause ();
                K.Slock.lock b;
                K.Slock.unlock b;
                K.Slock.unlock a
              done)
        in
        let t2 =
          Engine.spawn (fun () ->
              for _ = 1 to 3 do
                (* usual order is a-then-b; t2 wants b-then-a, so it uses
                   the backout protocol *)
                ignore (K.Order.backout_lock_pair ~first:b ~second:a);
                Engine.pause ();
                K.Slock.unlock a;
                K.Slock.unlock b
              done)
        in
        Engine.join t1;
        Engine.join t2)
  in
  check_bool "no deadlocks with backout" true (Explore.all_completed v)

(* The learned lock order (section 5): no lock declares a rank.  One
   thread takes map then object; after it has ended, another takes
   object then map.  The run completes, yet the order record closes the
   map -> object -> map cycle and names each edge's witness.  A
   try_lock in the reverse order cannot block, so it adds no edge. *)
let test_order_checker_flags_inversion () =
  let module Profile = Mach_obs.Obs_profile in
  let run reverse =
    Profile.reset ();
    let outcome =
      Engine.run_outcome (fun () ->
          let map = K.Slock.make ~name:"map" () in
          let obj = K.Slock.make ~name:"object" () in
          Engine.join
            (Engine.spawn ~name:"forward" (fun () ->
                 K.Slock.lock map;
                 K.Slock.lock obj;
                 K.Slock.unlock obj;
                 K.Slock.unlock map));
          Engine.join
            (Engine.spawn ~name:"reverse" (fun () -> reverse map obj)))
    in
    (match outcome with
    | Engine.Completed _ -> ()
    | _ -> Alcotest.fail "the run must complete");
    Profile.order_findings ()
  in
  Alcotest.(check (list string))
    "the map/object cycle with both witnesses"
    [
      "order cycle: map -> object -> map (forward held map, wanted object; \
       reverse held object, wanted map)";
    ]
    (run (fun map obj ->
         K.Slock.lock obj;
         K.Slock.lock map;
         K.Slock.unlock map;
         K.Slock.unlock obj));
  check_int "a reverse try_lock adds no finding" 0
    (List.length
       (run (fun map obj ->
            K.Slock.lock obj;
            if K.Slock.try_lock map then K.Slock.unlock map;
            K.Slock.unlock obj)))

(* With checking off (the section-7 buggy variants) the same-spl rule
   does not panic: the attempt at a second level is recorded as a
   finding naming the lock and both levels. *)
let test_same_spl_recorded_unchecked () =
  let module Profile = Mach_obs.Obs_profile in
  Profile.reset ();
  K.Slock.set_checking false;
  Fun.protect ~finally:(fun () -> K.Slock.set_checking true) (fun () ->
      in_sim (fun () ->
          let l = K.Slock.make ~name:"spl-learned" () in
          K.Slock.lock l;
          K.Slock.unlock l;
          let old = Engine.set_spl Spl.Splvm in
          K.Slock.lock l;
          K.Slock.unlock l;
          ignore (Engine.set_spl old)));
  Alcotest.(check (list string))
    "names the lock and both levels"
    [
      "simple lock spl-learned: acquired at splvm but pinned/first acquired \
       at spl0 (same-spl rule, paper section 7)";
    ]
    (Profile.order_findings ())

(* The buggy section-7 scenarios switch checking off for their run and
   back on in a [finally] that runs when the run unwinds its fibers, so
   a deadlocked run or a model-checked failure leaves checking on.  The
   switch is domain-local: a domain spawned earlier keeps its own
   setting, one spawned later inherits its parent's. *)
let test_checking_switch () =
  let module Scenarios = Mach_kernel.Scenarios in
  let module Mc = Mach_mc.Mc in
  (match
     Engine.run_outcome
       ~cfg:{ Mach_sim.Sim_config.default with cpus = 3 }
       (Scenarios.interrupt_barrier_scenario ~disciplined:false)
   with
  | Engine.Deadlocked _ -> ()
  | _ -> Alcotest.fail "interrupt-deadlock must deadlock at 3 cpus");
  check_bool "on after interrupt-deadlock" true (K.Slock.checking ());
  let r =
    Mc.check ~cpus:2 (Scenarios.same_spl_holder ~disciplined:false)
  in
  check_bool "mc finds same-spl-buggy's failure" true (r.Mc.failure <> None);
  check_bool "on after mc of same-spl-buggy" true (K.Slock.checking ());
  let switches () = (K.Slock.checking (), K.Ref.checking ()) in
  let switched = Atomic.make false in
  let earlier =
    Domain.spawn (fun () ->
        while not (Atomic.get switched) do
          Domain.cpu_relax ()
        done;
        switches ())
  in
  K.Slock.set_checking false;
  K.Ref.set_checking false;
  Fun.protect
    ~finally:(fun () ->
      K.Slock.set_checking true;
      K.Ref.set_checking true)
    (fun () ->
      Atomic.set switched true;
      let later = Domain.spawn switches in
      let pair = Alcotest.(pair bool bool) in
      Alcotest.check pair "a domain spawned earlier keeps its setting"
        (true, true) (Domain.join earlier);
      Alcotest.check pair "a domain spawned later inherits its parent's"
        (false, false) (Domain.join later))

let () =
  Alcotest.run "simple_lock"
    [
      ( "basics",
        [
          Alcotest.test_case "lock/unlock" `Quick test_basic_lock_unlock;
          Alcotest.test_case "try_lock" `Quick test_try_lock;
          Alcotest.test_case "all spin protocols" `Quick
            test_all_protocols_acquire;
          Alcotest.test_case "stats" `Quick test_contention_counted;
          Alcotest.test_case "uniprocessor compile-out" `Quick
            test_uniprocessor_mode;
          Alcotest.test_case "uncontended allocation" `Quick
            test_uncontended_allocation;
        ] );
      ( "design rules",
        [
          Alcotest.test_case "unlock by non-holder" `Quick
            test_unlock_by_non_holder_panics;
          Alcotest.test_case "no recursion" `Quick
            test_recursive_simple_lock_panics;
          Alcotest.test_case "same-spl rule" `Quick
            test_same_spl_rule_enforced;
          Alcotest.test_case "spl pin at creation" `Quick
            test_spl_pinned_at_creation;
          Alcotest.test_case "same-spl recorded unchecked" `Quick
            test_same_spl_recorded_unchecked;
          Alcotest.test_case "checking switch" `Quick test_checking_switch;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "mutual exclusion" `Slow
            test_mutual_exclusion_explored;
          Alcotest.test_case "uid-ordered pair never deadlocks" `Quick
            test_lock_both_by_uid_no_deadlock;
          Alcotest.test_case "opposite order deadlocks" `Quick
            test_opposite_order_deadlocks;
          Alcotest.test_case "backout protocol safe" `Quick
            test_backout_protocol_never_deadlocks;
          Alcotest.test_case "order checker" `Quick
            test_order_checker_flags_inversion;
        ] );
    ]
