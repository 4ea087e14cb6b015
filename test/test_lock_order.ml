(* Lock-order conventions (section 5): the learned order record's reset,
   uid-ordered pairs and the backout protocol's capped backoff. *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_sim f =
  let result = ref None in
  ignore (Engine.run (fun () -> result := Some (f ())));
  Option.get !result

(* The order record is process-wide until Obs_profile.reset: a cycle
   learned before it is not reported after it, and the same lock sites
   (whose memos of recorded edges predate the reset) learn it again. *)
let test_reset_forgets_cycle () =
  let module Profile = Mach_obs.Obs_profile in
  let cycles () = List.length (Profile.order_findings ()) in
  Profile.reset ();
  in_sim (fun () ->
      let a = K.Slock.make ~name:"reset-a" () in
      let b = K.Slock.make ~name:"reset-b" () in
      let inversion () =
        K.Slock.lock a;
        K.Slock.lock b;
        K.Slock.unlock b;
        K.Slock.unlock a;
        K.Slock.lock b;
        K.Slock.lock a;
        K.Slock.unlock a;
        K.Slock.unlock b
      in
      inversion ();
      check_int "cycle learned" 1 (cycles ());
      Profile.reset ();
      check_int "not reported after the reset" 0 (cycles ());
      inversion ();
      check_int "learned again" 1 (cycles ()))

let test_lock_both_by_uid_orders () =
  in_sim (fun () ->
      let a = K.Slock.make ~name:"pair-a" () in
      let b = K.Slock.make ~name:"pair-b" () in
      check_bool "distinct uids" true (K.Slock.uid a <> K.Slock.uid b);
      (* both argument orders acquire both locks *)
      K.Order.lock_both_by_uid a b;
      check_bool "a locked" true (K.Slock.is_locked a);
      check_bool "b locked" true (K.Slock.is_locked b);
      K.Order.unlock_both a b;
      K.Order.lock_both_by_uid b a;
      check_bool "a locked (swapped)" true (K.Slock.is_locked a);
      check_bool "b locked (swapped)" true (K.Slock.is_locked b);
      K.Order.unlock_both b a;
      (* the same lock twice is a single acquisition, not a recursion *)
      K.Order.lock_both_by_uid a a;
      check_bool "self pair locked once" true (K.Slock.is_locked a);
      K.Order.unlock_both a a;
      check_bool "self pair released" false (K.Slock.is_locked a))

(* The backout protocol against an opposing-order holder: it completes
   (the protocol exists for exactly this), and each failed attempt on
   the second lock releases the first and counts one backout. *)
let test_backout_backs_off () =
  let backouts = ref (-1) in
  let firsts () =
    match
      List.find_opt
        (fun (c : Mach_obs.Obs_profile.class_stats) -> c.cls = "bo-first")
        (Mach_obs.Obs_profile.classes ())
    with
    | Some c -> c.acquisitions
    | None -> 0
  in
  in_sim (fun () ->
      let first = K.Slock.make ~name:"bo-first" () in
      let second = K.Slock.make ~name:"bo-second" () in
      (* Hold [second] until the contender has taken [first] three times
         (counted by the profiler), so its single-attempt try on [second]
         failed at least twice and the protocol backed off at least twice
         regardless of timing. *)
      let held = Engine.Cell.make ~name:"bo-held" 0 in
      let holder =
        Engine.spawn ~name:"holder" (fun () ->
            K.Slock.lock second;
            let start = firsts () in
            Engine.Cell.set held 1;
            Engine.spin_hint "bo-first-acquisitions";
            while firsts () - start < 3 do
              Engine.pause ()
            done;
            K.Slock.unlock second)
      in
      let contender =
        Engine.spawn ~name:"contender" (fun () ->
            Engine.spin_hint "bo-held";
            while Engine.Cell.get held = 0 do
              Engine.pause ()
            done;
            backouts := K.Order.backout_lock_pair ~first ~second;
            K.Order.unlock_both first second)
      in
      Engine.join holder;
      Engine.join contender);
  check_bool "protocol completed" true (!backouts >= 0);
  check_bool "backed out at least twice" true (!backouts >= 2)

let test_backout_explored () =
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 20 (fun i -> i + 1))
      (fun () ->
        let first = K.Slock.make ~name:"x-first" () in
        let second = K.Slock.make ~name:"x-second" () in
        let t1 =
          Engine.spawn ~name:"fwd" (fun () ->
              K.Slock.lock first;
              Engine.cycles 50;
              if K.Slock.try_lock second then K.Slock.unlock second;
              K.Slock.unlock first)
        in
        let t2 =
          Engine.spawn ~name:"bwd" (fun () ->
              ignore (K.Order.backout_lock_pair ~first:second ~second:first);
              K.Order.unlock_both second first)
        in
        Engine.join t1;
        Engine.join t2)
  in
  check_bool "no deadlocks under exploration" true (Explore.all_completed v)

let () =
  Alcotest.run "lock_order"
    [
      ( "learned order",
        [
          Alcotest.test_case "reset forgets a cycle" `Quick
            test_reset_forgets_cycle;
        ] );
      ( "pairs and backout",
        [
          Alcotest.test_case "lock_both_by_uid orders" `Quick
            test_lock_both_by_uid_orders;
          Alcotest.test_case "backout backs off" `Quick test_backout_backs_off;
          Alcotest.test_case "backout explored" `Quick test_backout_explored;
        ] );
    ]
