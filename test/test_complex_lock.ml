(* Complex locks: Appendix B semantics — readers/writer with writers'
   priority, upgrades favored over writes, Sleep and Recursive options —
   and the invariants under schedule exploration. *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module CL = Mach_ksync.Ksync.Clock
open Test_support

(* ------------------------------------------------------------------ *)

let test_read_read_share () =
  in_sim (fun () ->
      let l = CL.make ~can_sleep:true () in
      CL.lock_read l;
      CL.lock_read l |> ignore;
      check_int "two readers" 2 (CL.read_count l);
      CL.lock_done l;
      CL.lock_done l;
      check_int "drained" 0 (CL.read_count l))

let test_write_excludes () =
  in_sim (fun () ->
      let l = CL.make ~can_sleep:true () in
      CL.lock_write l;
      check_bool "held for write" true (CL.held_for_write l);
      check_bool "try read fails" false (CL.lock_try_read l);
      check_bool "try write fails" false (CL.lock_try_write l);
      CL.lock_done l;
      check_bool "released" false (CL.held_for_write l))

let test_rw_invariant_explored () =
  let scenario ~can_sleep () =
    let l = CL.make ~can_sleep () in
    let readers_in = ref 0 and writers_in = ref 0 in
    let reader () =
      for _ = 1 to 3 do
        CL.lock_read l;
        incr readers_in;
        if !writers_in > 0 then Engine.fatal "reader overlaps writer";
        Engine.pause ();
        decr readers_in;
        CL.lock_done l
      done
    in
    let writer () =
      for _ = 1 to 3 do
        CL.lock_write l;
        incr writers_in;
        if !writers_in > 1 then Engine.fatal "two writers";
        if !readers_in > 0 then Engine.fatal "writer overlaps reader";
        Engine.pause ();
        decr writers_in;
        CL.lock_done l
      done
    in
    let ts =
      [
        Engine.spawn ~name:"r1" reader;
        Engine.spawn ~name:"r2" reader;
        Engine.spawn ~name:"w1" writer;
        Engine.spawn ~name:"w2" writer;
      ]
    in
    List.iter Engine.join ts
  in
  List.iter
    (fun can_sleep ->
      let v =
        Explore.run ~cpus:4
          ~seeds:(List.init 25 (fun i -> i + 1))
          (scenario ~can_sleep)
      in
      check_bool
        (Printf.sprintf "rw invariant (can_sleep=%b)" can_sleep)
        true (Explore.all_completed v))
    [ true; false ]

let test_writers_priority () =
  (* Section 4: readers may not be added while a write request is
     outstanding, so the lock drains to the writer. *)
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~name:"wp" ~can_sleep:true () in
         let late_reader_entered_before_writer = ref false in
         let writer_done = ref false in
         CL.lock_read l;
         let writer =
           Engine.spawn ~name:"writer" (fun () ->
               CL.lock_write l;
               writer_done := true;
               CL.lock_done l)
         in
         wait_until (fun () -> CL.pending_write_request l);
         let reader =
           Engine.spawn ~name:"late-reader" (fun () ->
               CL.lock_read l;
               if not !writer_done then
                 late_reader_entered_before_writer := true;
               CL.lock_done l)
         in
         (* the late reader blocks on the pending write request *)
         wait_until (fun () -> K.Ev.waiting_on reader <> None);
         CL.lock_done l;
         Engine.join writer;
         Engine.join reader;
         check_bool "late reader waited for writer" false
           !late_reader_entered_before_writer))

let test_no_priority_ablation_starves () =
  (* Ablation for E4: with writers' priority disabled, readers keep being
     admitted past the waiting writer as long as any reader holds the
     lock. *)
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~name:"nowp" ~can_sleep:true () in
         CL.set_writers_priority l false;
         let writer_done = ref false in
         (* main holds a read lock throughout *)
         CL.lock_read l;
         let writer =
           Engine.spawn ~name:"writer" (fun () ->
               CL.lock_write l;
               writer_done := true;
               CL.lock_done l)
         in
         wait_until (fun () -> CL.pending_write_request l);
         (* new readers are still admitted: no priority *)
         let rounds = ref 0 in
         let r1 =
           Engine.spawn ~name:"r1" (fun () ->
               for _ = 1 to 20 do
                 CL.lock_read l;
                 incr rounds;
                 Engine.pause ();
                 CL.lock_done l
               done)
         in
         Engine.join r1;
         check_int "readers sailed past the waiting writer" 20 !rounds;
         check_bool "writer still starved" false !writer_done;
         CL.lock_done l;
         Engine.join writer;
         check_bool "writer ran once readers drained" true !writer_done))

let test_priority_admits_no_reader_past_request () =
  (* The mirrored positive test: with priority on, the late reader is NOT
     admitted even though the lock is only read-held. *)
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~can_sleep:true () in
         CL.lock_read l;
         let writer =
           Engine.spawn ~name:"writer" (fun () ->
               CL.lock_write l;
               CL.lock_done l)
         in
         wait_until (fun () -> CL.pending_write_request l);
         check_bool "try_read refused during write request" false
           (CL.lock_try_read l);
         CL.lock_done l;
         Engine.join writer))

let test_upgrade_success_and_failure () =
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~name:"up" ~can_sleep:true () in
         (* single reader upgrades successfully *)
         CL.lock_read l;
         check_bool "upgrade succeeds" false (CL.lock_read_to_write l);
         check_bool "now writer" true (CL.held_for_write_by_self l);
         CL.lock_done l;
         (* two readers race to upgrade: exactly one must fail, and the
            failed one loses its read lock *)
         CL.lock_read l;
         let other_failed = ref None in
         let other_reading = ref false in
         let other =
           Engine.spawn ~name:"other-upgrader" (fun () ->
               CL.lock_read l;
               other_reading := true;
               let f = CL.lock_read_to_write l in
               other_failed := Some f;
               if not f then CL.lock_done l)
         in
         wait_until (fun () -> !other_reading);
         let mine = CL.lock_read_to_write l in
         if not mine then CL.lock_done l;
         Engine.join other;
         (match !other_failed with
         | Some f -> check_bool "exactly one upgrade failed" true (f <> mine)
         | None -> Alcotest.fail "other upgrader never decided");
         check_bool "lock free at end" false (CL.held_for_write l);
         check_int "no readers left" 0 (CL.read_count l)))

let test_downgrade () =
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~can_sleep:true () in
         CL.lock_write l;
         CL.lock_write_to_read l;
         check_int "one reader after downgrade" 1 (CL.read_count l);
         check_bool "no writer" false (CL.held_for_write l);
         check_bool "try read ok" true (CL.lock_try_read l);
         CL.lock_done l;
         CL.lock_done l))

let test_try_read_to_write_refuses_without_dropping () =
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~can_sleep:true () in
         CL.lock_read l;
         let other =
           Engine.spawn (fun () ->
               CL.lock_read l;
               (* a real upgrade: waits for main's read to drain *)
               check_bool "other upgrade ok" false (CL.lock_read_to_write l);
               CL.lock_done l)
         in
         wait_until (fun () -> CL.pending_upgrade l);
         (* an upgrade would deadlock now: try refuses, read lock kept *)
         check_bool "try upgrade refused" false (CL.lock_try_read_to_write l);
         check_bool "read lock retained" true (CL.read_count l >= 1);
         CL.lock_done l;
         Engine.join other))

let test_recursive_write_and_read () =
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~name:"rec" ~can_sleep:true () in
         CL.lock_write l;
         CL.lock_set_recursive l;
         CL.lock_write l;
         CL.lock_done l;
         CL.lock_read l;
         CL.lock_done l;
         CL.lock_clear_recursive l;
         CL.lock_done l;
         check_bool "fully released" false (CL.held_for_write l)));
  (* A try_read by the recursive holder is a recursive read too: its
     release must leave the non-sleep spin-held count (Appendix B's check
     against blocking) and the write's held entry alone. *)
  ignore
    (Engine.run (fun () ->
         let ctx = Engine.context (Engine.self ()) in
         let spin_held () = ctx.complex_spin_locks_held in
         let held () = List.map fst (Mach_core.Thread_ctx.held ctx) in
         let l = CL.make ~name:"rec-spin" ~can_sleep:false () in
         CL.lock_write l;
         CL.lock_set_recursive l;
         check_bool "recursive try_read" true (CL.lock_try_read l);
         check_int "write counted once" 1 (spin_held ());
         CL.lock_done l;
         check_int "still held after the read's lock_done" 1 (spin_held ());
         Alcotest.(check (list string)) "write entry still open" [ "rec-spin" ]
           (held ());
         CL.lock_clear_recursive l;
         CL.lock_done l;
         check_int "balanced after the write's lock_done" 0 (spin_held ());
         Alcotest.(check (list string)) "nothing held" [] (held ())))

let test_recursive_read_bypasses_pending_writer () =
  (* Section 4: the recursive holder's requests are not blocked by a
     pending write request. *)
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~name:"rec2" ~can_sleep:true () in
         CL.lock_write l;
         CL.lock_set_recursive l;
         CL.lock_write_to_read l;
         let w =
           Engine.spawn ~name:"w" (fun () ->
               CL.lock_write l;
               CL.lock_done l)
         in
         wait_until (fun () -> CL.pending_write_request l);
         (* an ordinary reader is refused... *)
         let probe = ref true in
         let t = Engine.spawn (fun () -> probe := CL.lock_try_read l) in
         Engine.join t;
         check_bool "ordinary reader blocked" false !probe;
         (* ...but the recursive holder gets through *)
         CL.lock_read l;
         CL.lock_done l;
         CL.lock_clear_recursive l;
         CL.lock_done l;
         Engine.join w))

let test_recursion_without_option_panics () =
  match
    Engine.run_outcome (fun () ->
        let l = CL.make ~can_sleep:true () in
        CL.lock_write l;
        CL.lock_write l)
  with
  | Engine.Panicked msg ->
      check_bool "mentions recursion" true (contains msg "Recursive")
  | _ -> Alcotest.fail "double write without Recursive must panic"

let test_set_recursive_requires_write () =
  match
    Engine.run_outcome (fun () ->
        let l = CL.make ~can_sleep:true () in
        CL.lock_read l;
        CL.lock_set_recursive l)
  with
  | Engine.Panicked _ -> ()
  | _ -> Alcotest.fail "set_recursive without write hold must panic"

let test_clear_recursive_with_reads_panics () =
  (* Clearing recursion while a recursive read is outstanding would send
     that read's lock_done down the ordinary read path, releasing the
     write's spin-held count and held entry early: refused. *)
  match
    Engine.run_outcome (fun () ->
        let l = CL.make ~name:"rec-clear" ~can_sleep:false () in
        CL.lock_write l;
        CL.lock_set_recursive l;
        CL.lock_read l;
        CL.lock_clear_recursive l;
        CL.lock_done l;
        CL.lock_done l)
  with
  | Engine.Panicked msg ->
      check_bool "names the outstanding reads" true
        (contains msg "recursive read acquisition(s) outstanding")
  | _ -> Alcotest.fail "clear_recursive with recursive reads must panic"

let test_sleep_lock_holder_may_block () =
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~can_sleep:true () in
         let ev = K.Ev.fresh_event () in
         let holder =
           Engine.spawn ~name:"holder" (fun () ->
               CL.lock_write l;
               (* blocking while holding a Sleep lock is legal *)
               K.Ev.assert_wait ev;
               ignore (K.Ev.thread_block ());
               CL.lock_done l)
         in
         wait_until (fun () -> K.Ev.waiters_count ev = 1);
         ignore (K.Ev.thread_wakeup ev);
         Engine.join holder))

let test_spin_lock_holder_may_not_block () =
  match
    Engine.run_outcome (fun () ->
        let l = CL.make ~can_sleep:false () in
        let ev = K.Ev.fresh_event () in
        CL.lock_write l;
        K.Ev.assert_wait ev;
        ignore (K.Ev.thread_block ()))
  with
  | Engine.Panicked msg ->
      check_bool "names the rule" true (contains msg "Sleep")
  | _ -> Alcotest.fail "blocking with a non-sleep complex lock must panic"

let test_lock_sleepable_toggle () =
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~can_sleep:false () in
         check_bool "spin mode" false (CL.can_sleep l);
         CL.lock_sleepable l true;
         check_bool "sleep mode" true (CL.can_sleep l);
         CL.lock_write l;
         CL.lock_done l))

let test_upgrade_favored_over_write () =
  (* Section 4: upgrades are favored over writes — with both pending, the
     upgrader must win. *)
  ignore
    (Engine.run (fun () ->
         let l = CL.make ~name:"fav" ~can_sleep:true () in
         let order = ref [] in
         CL.lock_read l;
         let writer =
           Engine.spawn ~name:"writer" (fun () ->
               CL.lock_write l;
               order := `Writer :: !order;
               CL.lock_done l)
         in
         wait_until (fun () -> CL.pending_write_request l);
         check_bool "upgrade won" false (CL.lock_read_to_write l);
         order := `Upgrader :: !order;
         CL.lock_done l;
         Engine.join writer;
         match List.rev !order with
         | [ `Upgrader; `Writer ] -> ()
         | _ -> Alcotest.fail "writer got in before the pending upgrade"))

let test_with_read_write_wrappers () =
  in_sim (fun () ->
      let l = CL.make ~can_sleep:true () in
      let v = CL.with_read l (fun () -> 17) in
      check_int "with_read result" 17 v;
      let v = CL.with_write l (fun () -> 23) in
      check_int "with_write result" 23 v;
      check_bool "released on exception" true
        (match CL.with_write l (fun () -> failwith "boom") with
        | exception Failure _ -> not (CL.held_for_write l)
        | _ -> false))

let () =
  Alcotest.run "complex_lock"
    [
      ( "multiple protocol",
        [
          Alcotest.test_case "readers share" `Quick test_read_read_share;
          Alcotest.test_case "writer excludes" `Quick test_write_excludes;
          Alcotest.test_case "writers' priority" `Quick
            test_writers_priority;
          Alcotest.test_case "priority refuses late reader" `Quick
            test_priority_admits_no_reader_past_request;
          Alcotest.test_case "ablation: no priority starves" `Quick
            test_no_priority_ablation_starves;
          Alcotest.test_case "invariant explored" `Slow
            test_rw_invariant_explored;
          Alcotest.test_case "wrappers" `Quick test_with_read_write_wrappers;
        ] );
      ( "upgrades",
        [
          Alcotest.test_case "upgrade success/failure" `Quick
            test_upgrade_success_and_failure;
          Alcotest.test_case "downgrade" `Quick test_downgrade;
          Alcotest.test_case "try upgrade keeps read lock" `Quick
            test_try_read_to_write_refuses_without_dropping;
          Alcotest.test_case "upgrade favored over write" `Quick
            test_upgrade_favored_over_write;
        ] );
      ( "recursive option",
        [
          Alcotest.test_case "recursive write+read" `Quick
            test_recursive_write_and_read;
          Alcotest.test_case "bypasses pending writer" `Quick
            test_recursive_read_bypasses_pending_writer;
          Alcotest.test_case "recursion w/o option panics" `Quick
            test_recursion_without_option_panics;
          Alcotest.test_case "set_recursive needs write" `Quick
            test_set_recursive_requires_write;
          Alcotest.test_case "clear_recursive with reads panics" `Quick
            test_clear_recursive_with_reads_panics;
        ] );
      ( "sleep option",
        [
          Alcotest.test_case "sleep holder may block" `Quick
            test_sleep_lock_holder_may_block;
          Alcotest.test_case "spin holder may not block" `Quick
            test_spin_lock_holder_may_not_block;
          Alcotest.test_case "sleepable toggle" `Quick
            test_lock_sleepable_toggle;
        ] );
    ]
