(* The native machine: the same machine-independent synchronization layer
   running on real OCaml 5 domains.  These tests exercise true parallelism
   (no simulator): mutual exclusion, readers/writer invariants, event
   wakeups and refcount exactness under real contention. *)

module HM = Mach_hw.Hw_machine
module HS = Mach_hw.Hw_sync
module Run = Mach_hw.Hw_run

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let domains = min 4 (Domain.recommended_domain_count ())

let test_cell_semantics () =
  let c = HM.Cell.make 5 in
  check_int "get" 5 (HM.Cell.get c);
  HM.Cell.set c 0;
  check_int "tas acquires" 0 (HM.Cell.test_and_set c);
  check_int "tas held" 1 (HM.Cell.test_and_set c);
  check_bool "cas" true (HM.Cell.compare_and_swap c ~expected:1 ~desired:9);
  check_int "faa" 9 (HM.Cell.fetch_and_add c 2);
  check_int "final" 11 (HM.Cell.get c)

let test_parallel_helper () =
  let results = Run.parallel 4 (fun i -> i * i) in
  Alcotest.(check (list int)) "results in order" [ 0; 1; 4; 9 ] results

(* Iterations per domain for the protocols past the section 2 family.
   Each of their releases hands the lock to one named successor, which
   the host may have descheduled, so an iteration costs more wall time
   than a test-and-set's; fewer of them keep the test near its time with
   the section 2 family alone. *)
let queue_iters = 1_000

let test_mutual_exclusion_native () =
  (* A non-atomic counter protected by the simple lock: any exclusion
     failure loses increments.  Every protocol of the native suite runs.
     The lock's class record in the profiler is updated by every domain
     under the profiler's mutex, so it counts every acquisition too
     (the lock is taken once before the domains start, which resolves
     its class). *)
  let module Profile = Mach_obs.Obs_profile in
  List.iter
    (fun proto ->
      let name = "native-" ^ Mach_core.Lock_proto.name proto in
      let l = HS.Slock.make ~name ~proto () in
      let counter = ref 0 in
      let iters =
        if List.memq proto HS.Locks.spin then 10_000 else queue_iters
      in
      Profile.reset ();
      HS.Slock.lock l;
      HS.Slock.unlock l;
      ignore
        (Run.parallel_with_barrier domains (fun _ () ->
             for _ = 1 to iters do
               HS.Slock.lock l;
               counter := !counter + 1;
               HS.Slock.unlock l
             done));
      check_int (name ^ " exclusion") (domains * iters) !counter;
      let cls = Profile.class_of_name name in
      check_int (name ^ " acquisitions profiled")
        ((domains * iters) + 1)
        (match
           List.find_opt
             (fun (c : Profile.class_stats) -> c.cls = cls)
             (Profile.classes ())
         with
        | Some c -> c.acquisitions
        | None -> 0))
    HS.Locks.all

let test_try_lock_native () =
  let l = HS.Slock.make () in
  check_bool "try free" true (HS.Slock.try_lock l);
  (* another domain cannot take it *)
  let stolen = Run.parallel 1 (fun _ -> HS.Slock.try_lock l) in
  check_bool "held against another domain" false (List.hd stolen);
  HS.Slock.unlock l

let test_rw_invariant_native () =
  let l = HS.Clock.make ~can_sleep:true () in
  let readers = Atomic.make 0 in
  let writers = Atomic.make 0 in
  let violations = Atomic.make 0 in
  ignore
    (Run.parallel_with_barrier domains (fun d () ->
         for op = 1 to 2_000 do
           if (op + d) mod 10 = 0 then begin
             HS.Clock.lock_write l;
             let w = Atomic.fetch_and_add writers 1 in
             if w <> 0 || Atomic.get readers > 0 then
               ignore (Atomic.fetch_and_add violations 1);
             ignore (Atomic.fetch_and_add writers (-1));
             HS.Clock.lock_done l
           end
           else begin
             HS.Clock.lock_read l;
             ignore (Atomic.fetch_and_add readers 1);
             if Atomic.get writers > 0 then
               ignore (Atomic.fetch_and_add violations 1);
             ignore (Atomic.fetch_and_add readers (-1));
             HS.Clock.lock_done l
           end
         done));
  check_int "no reader/writer overlap" 0 (Atomic.get violations)

let test_event_wakeup_native () =
  (* N domains sleep on an event; the main domain wakes them all. *)
  let ev = HS.Ev.fresh_event () in
  let woken = Atomic.make 0 in
  let asleep = Atomic.make 0 in
  let sleepers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            HS.Ev.assert_wait ev;
            ignore (Atomic.fetch_and_add asleep 1);
            ignore (HS.Ev.thread_block ());
            ignore (Atomic.fetch_and_add woken 1)))
  in
  (* wait until all have *declared* their wait (being asleep is not
     required: a wakeup after assert_wait is never lost) *)
  while Atomic.get asleep < domains do
    Domain.cpu_relax ()
  done;
  let rec drain () =
    if Atomic.get woken < domains then begin
      ignore (HS.Ev.thread_wakeup ev);
      Domain.cpu_relax ();
      drain ()
    end
  in
  drain ();
  List.iter Domain.join sleepers;
  check_int "all woken" domains (Atomic.get woken)

(* Event ids are drawn from one counter by every domain: no two draws
   return the same id. *)
let test_event_ids_unique_native () =
  let n = 50_000 in
  let drawn =
    Run.parallel_with_barrier domains (fun _ () ->
        Array.init n (fun _ -> HS.Ev.fresh_event ()))
  in
  let seen = Hashtbl.create (domains * n) in
  List.iter (Array.iter (fun ev -> Hashtbl.replace seen ev ())) drawn;
  check_int "distinct ids" (domains * n) (Hashtbl.length seen)

let test_refcount_native () =
  let r = HS.Ref.make () in
  let iters = 20_000 in
  ignore
    (Run.parallel_with_barrier domains (fun _ () ->
         for _ = 1 to iters do
           HS.Ref.clone r;
           ignore (HS.Ref.release r)
         done));
  check_int "exact count" 1 (HS.Ref.count r)

let test_spl_tracking_native () =
  let old = HM.set_spl Mach_core.Spl.Splvm in
  check_bool "previous level returned" true
    (Mach_core.Spl.equal old Mach_core.Spl.Spl0
    || Mach_core.Spl.equal old (HM.get_spl ()) = false);
  check_bool "level recorded" true
    (Mach_core.Spl.equal (HM.get_spl ()) Mach_core.Spl.Splvm);
  ignore (HM.set_spl old)

(* Wait edges feed the simulator's deadlock detector only: a simulated
   run stops recording them when it ends, and native domains never
   start. *)
let test_no_wait_edges_native () =
  ignore (Mach_sim.Sim_engine.run (fun () -> ()));
  check_bool "off after a simulated run" false
    (Mach_core.Waits_for.tracking ());
  let l = HS.Slock.make () in
  let seen =
    Run.parallel_with_barrier domains (fun _ () ->
        HS.Slock.lock l;
        let on = Mach_core.Waits_for.tracking () in
        HS.Slock.unlock l;
        on)
  in
  check_bool "off on every native domain" false (List.mem true seen)

(* The native machine's event layer is process-wide, built once, and a
   simulated run's per-run resets do not touch it: a native sleeper is
   still woken after a simulation has run.  A sleeper whose wait was
   lost would stay parked for good, so it is joined only once woken,
   and the test fails rather than hangs. *)
let test_sim_run_keeps_native_events () =
  let ev = HS.Ev.fresh_event () in
  let asleep = Atomic.make false and woken = Atomic.make false in
  let sleeper =
    Domain.spawn (fun () ->
        HS.Ev.assert_wait ev;
        Atomic.set asleep true;
        ignore (HS.Ev.thread_block ());
        Atomic.set woken true)
  in
  while not (Atomic.get asleep) do
    Domain.cpu_relax ()
  done;
  ignore (Mach_sim.Sim_engine.run (fun () -> ()));
  let deadline = Sys.time () +. 1.0 in
  while (not (Atomic.get woken)) && Sys.time () < deadline do
    ignore (HS.Ev.thread_wakeup ev);
    Domain.cpu_relax ()
  done;
  if Atomic.get woken then Domain.join sleeper;
  check_bool "sleeper woken after a simulated run" true (Atomic.get woken)

let () =
  Alcotest.run "hw"
    [
      ( "machine",
        [
          Alcotest.test_case "cell semantics" `Quick test_cell_semantics;
          Alcotest.test_case "parallel helper" `Quick test_parallel_helper;
          Alcotest.test_case "spl tracking" `Quick test_spl_tracking_native;
          Alcotest.test_case "no wait edges" `Quick test_no_wait_edges_native;
        ] );
      ( "locks",
        [
          Alcotest.test_case "mutual exclusion (all protocols)" `Slow
            test_mutual_exclusion_native;
          Alcotest.test_case "try_lock across domains" `Quick
            test_try_lock_native;
          Alcotest.test_case "rw invariant" `Slow test_rw_invariant_native;
        ] );
      ( "events + refs",
        [
          Alcotest.test_case "event wakeup" `Quick test_event_wakeup_native;
          Alcotest.test_case "refcount exact" `Slow test_refcount_native;
          Alcotest.test_case "a simulated run keeps native waits" `Quick
            test_sim_run_keeps_native_events;
          Alcotest.test_case "event ids unique across domains" `Quick
            test_event_ids_unique_native;
        ] );
    ]
