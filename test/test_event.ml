(* The section 6 event-wait mechanism: assert_wait / thread_block /
   thread_wakeup / clear_wait, and the no-lost-wakeup atomicity property
   under schedule exploration. *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module Ev = Mach_ksync.Ksync.Ev
module Wait = Mach_core.Event
open Test_support

(* ------------------------------------------------------------------ *)

let test_basic_sleep_wakeup () =
  let result = ref None in
  ignore
    (Engine.run (fun () ->
         let ev = Ev.fresh_event () in
         let sleeper =
           Engine.spawn ~name:"sleeper" (fun () ->
               Ev.assert_wait ev;
               result := Some (Ev.thread_block ()))
         in
         wait_until (fun () -> Ev.waiters_count ev = 1);
         ignore (Ev.thread_wakeup ev);
         Engine.join sleeper));
  match !result with
  | Some Wait.Awakened -> ()
  | _ -> Alcotest.fail "sleeper not awakened"

let test_canonical_wait_pattern_explored () =
  (* The defining property: a thread that asserts its wait *before*
     releasing the lock under which it checked the condition can never
     miss the wakeup, on any schedule. *)
  let v =
    Explore.run ~cpus:2
      ~seeds:(List.init 50 (fun i -> i + 1))
      (fun () ->
        let guard = K.Slock.make ~name:"guard" () in
        let ev = Ev.fresh_event () in
        let condition = ref false in
        let sleeper =
          Engine.spawn ~name:"sleeper" (fun () ->
              K.Slock.lock guard;
              if not !condition then begin
                (* assert_wait BEFORE releasing the lock: atomic with
                   respect to event occurrence *)
                Ev.assert_wait ev;
                K.Slock.unlock guard;
                ignore (Ev.thread_block ())
              end
              else K.Slock.unlock guard)
        in
        let waker =
          Engine.spawn ~name:"waker" (fun () ->
              K.Slock.lock guard;
              condition := true;
              ignore (Ev.thread_wakeup ev);
              K.Slock.unlock guard)
        in
        Engine.join waker;
        Engine.join sleeper)
  in
  check_bool "no schedule loses the wakeup" true (Explore.all_completed v)

let test_naive_wait_does_lose_wakeups () =
  (* Anti-test: checking the condition and then blocking without the
     assert_wait declaration races with the waker (this is the race the
     split design eliminates). *)
  match
    Explore.find_first_deadlock ~cpus:2 ~max_seeds:100 (fun () ->
        let flag = Engine.Cell.make ~name:"flag" 0 in
        let sleeper =
          Engine.spawn ~name:"sleeper" (fun () ->
              if Engine.Cell.get flag = 0 then
                (* window: the waker can fire entirely in here *)
                Engine.park ())
        in
        let waker =
          Engine.spawn ~name:"waker" (fun () ->
              Engine.Cell.set flag 1;
              (* wake only a *currently parked* sleeper: the naive
                 condition-then-block idiom *)
              ignore (Ev.clear_wait sleeper Wait.Awakened))
        in
        Engine.join waker;
        Engine.join sleeper)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "naive wait should lose a wakeup on some schedule"

let test_wakeup_all_vs_one () =
  ignore
    (Engine.run (fun () ->
         let ev = Ev.fresh_event () in
         let woken = ref 0 in
         let sleepers =
           List.init 5 (fun i ->
               Engine.spawn ~name:(Printf.sprintf "s%d" i) (fun () ->
                   Ev.assert_wait ev;
                   ignore (Ev.thread_block ());
                   incr woken))
         in
         wait_until (fun () -> Ev.waiters_count ev = 5);
         check_bool "wake one" true (Ev.thread_wakeup_one ev);
         wait_until (fun () -> !woken = 1);
         check_int "four remain" 4 (Ev.waiters_count ev);
         check_int "wake rest" 4 (Ev.thread_wakeup ev);
         List.iter Engine.join sleepers;
         check_int "all woken" 5 !woken))

let test_wakeup_result_propagates () =
  let got = ref None in
  ignore
    (Engine.run (fun () ->
         let ev = Ev.fresh_event () in
         let s =
           Engine.spawn (fun () ->
               Ev.assert_wait ev;
               got := Some (Ev.thread_block ()))
         in
         wait_until (fun () -> Ev.waiters_count ev = 1);
         ignore (Ev.thread_wakeup ~result:Wait.Restart ev);
         Engine.join s));
  check_bool "restart result" true (!got = Some Wait.Restart)

let test_clear_wait_on_null_event () =
  (* Section 6: an implementation can block threads on the null event,
     from which only clear_wait can awaken them. *)
  let got = ref None in
  ignore
    (Engine.run (fun () ->
         let s =
           Engine.spawn ~name:"null-waiter" (fun () ->
               Ev.assert_wait Ev.null_event;
               got := Some (Ev.thread_block ()))
         in
         wait_until (fun () -> Ev.waiting_on s <> None);
         check_bool "cleared" true (Ev.clear_wait s Wait.Cleared);
         Engine.join s));
  check_bool "cleared result" true (!got = Some Wait.Cleared)

let test_interrupt_only_when_interruptible () =
  ignore
    (Engine.run (fun () ->
         let ev = Ev.fresh_event () in
         let s =
           Engine.spawn ~name:"uninterruptible" (fun () ->
               Ev.assert_wait ~interruptible:false ev;
               ignore (Ev.thread_block ()))
         in
         wait_until (fun () -> Ev.waiting_on s <> None);
         check_bool "interrupt refused" false (Ev.thread_interrupt s);
         ignore (Ev.thread_wakeup ev);
         Engine.join s;
         let s2 =
           Engine.spawn ~name:"interruptible" (fun () ->
               Ev.assert_wait ~interruptible:true ev;
               ignore (Ev.thread_block ()))
         in
         wait_until (fun () -> Ev.waiting_on s2 <> None);
         check_bool "interrupt honored" true (Ev.thread_interrupt s2);
         Engine.join s2))

let test_thread_sleep_releases_lock () =
  ignore
    (Engine.run (fun () ->
         let l = K.Slock.make ~name:"guard" () in
         let ev = Ev.fresh_event () in
         let s =
           Engine.spawn (fun () ->
               K.Slock.lock l;
               (* atomically release the lock and wait *)
               ignore (Ev.thread_sleep ev l))
         in
         wait_until (fun () -> Ev.waiting_on s <> None);
         (* The lock must come free while s is still waiting: thread_sleep
            released it before blocking.  (If it did not, s blocks holding
            the lock and the engine reports the deadlock.) *)
         wait_until (fun () -> not (K.Slock.is_locked l));
         check_bool "still waiting after releasing the lock" true
           (Ev.waiting_on s <> None);
         ignore (Ev.thread_wakeup ev);
         Engine.join s))

let test_double_assert_wait_panics () =
  match
    Engine.run_outcome (fun () ->
        let ev = Ev.fresh_event () in
        Ev.assert_wait ev;
        Ev.assert_wait ev)
  with
  | Engine.Panicked msg -> check_bool "fatal" true (contains msg "assert_wait")
  | _ -> Alcotest.fail "double assert_wait must panic"

let test_block_with_simple_lock_held_panics () =
  (* Appendix A: simple locks may not be held during blocking
     operations. *)
  match
    Engine.run_outcome (fun () ->
        let l = K.Slock.make ~name:"held-across-block" () in
        let ev = Ev.fresh_event () in
        K.Slock.lock l;
        Ev.assert_wait ev;
        ignore (Ev.thread_block ()))
  with
  | Engine.Panicked msg ->
      check_bool "names the rule" true (contains msg "simple lock");
      check_bool "names the lock held" true (contains msg "held-across-block")
  | _ -> Alcotest.fail "blocking while holding a simple lock must panic"

let test_cancel_assert () =
  ignore
    (Engine.run (fun () ->
         let ev = Ev.fresh_event () in
         Ev.assert_wait ev;
         (* re-check shows the wait is unnecessary *)
         Ev.cancel_assert ();
         check_int "queue empty" 0 (Ev.waiters_count ev);
         (* a later wait cycle still works *)
         let s =
           Engine.spawn (fun () ->
               Ev.assert_wait ev;
               ignore (Ev.thread_block ()))
         in
         wait_until (fun () -> Ev.waiters_count ev = 1);
         ignore (Ev.thread_wakeup ev);
         Engine.join s))

let test_herd_no_lost_wakeups_explored () =
  (* N consumers sleep, a driver broadcasts until all are served: no
     schedule may strand a consumer. *)
  let v =
    Explore.run ~cpus:4
      ~seeds:(List.init 30 (fun i -> i + 1))
      (fun () ->
        let ev = Ev.fresh_event () in
        let served = Engine.Cell.make 0 in
        let consumers =
          List.init 4 (fun i ->
              Engine.spawn ~name:(Printf.sprintf "c%d" i) (fun () ->
                  Ev.assert_wait ev;
                  ignore (Ev.thread_block ());
                  ignore (Engine.Cell.fetch_and_add served 1)))
        in
        let rec drive () =
          if Engine.Cell.get served < 4 then begin
            ignore (Ev.thread_wakeup ev);
            Engine.pause ();
            drive ()
          end
        in
        drive ();
        List.iter Engine.join consumers)
  in
  check_bool "herd drained on every schedule" true (Explore.all_completed v)

let () =
  Alcotest.run "event"
    [
      ( "mechanism",
        [
          Alcotest.test_case "sleep/wakeup" `Quick test_basic_sleep_wakeup;
          Alcotest.test_case "wakeup all vs one" `Quick
            test_wakeup_all_vs_one;
          Alcotest.test_case "result propagates" `Quick
            test_wakeup_result_propagates;
          Alcotest.test_case "null event + clear_wait" `Quick
            test_clear_wait_on_null_event;
          Alcotest.test_case "interruptibility" `Quick
            test_interrupt_only_when_interruptible;
          Alcotest.test_case "thread_sleep releases lock" `Quick
            test_thread_sleep_releases_lock;
          Alcotest.test_case "cancel_assert" `Quick test_cancel_assert;
        ] );
      ( "design rules",
        [
          Alcotest.test_case "double assert_wait" `Quick
            test_double_assert_wait_panics;
          Alcotest.test_case "block holding simple lock" `Quick
            test_block_with_simple_lock_held_panics;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "canonical pattern race-free" `Quick
            test_canonical_wait_pattern_explored;
          Alcotest.test_case "naive wait loses wakeups" `Quick
            test_naive_wait_does_lose_wakeups;
          Alcotest.test_case "herd drained" `Slow
            test_herd_no_lost_wakeups_explored;
        ] );
    ]
