(* The scalable queue-lock suite (lib/locks): lockstep conformance
   against the flat simple-lock model, mutual-exclusion and FIFO-order
   properties, big-reader semantics, complex-lock-over-queue-lock
   composition, an exhaustive model-checking pass over the MCS handoff,
   and the drop-handoff chaos class with its "lost handoff" diagnosis. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module K = Mach_ksync.Ksync
module Lock_proto = Mach_core.Lock_proto
module Mc = Mach_mc.Mc
module Scenarios = Mach_kernel.Scenarios
open Test_support

(* Every protocol past the section 2 family: the queue locks and the
   writer sides of the two readers/writer locks. *)
let mutexes = K.Locks.(queue @ [ brlock_writer; scache_writer ])

(* ------------------------------------------------------------------ *)
(* Lockstep conformance (qcheck): a queue-lock Slock and a flat Slock    *)
(* driven by the same op script must agree on every observable.          *)
(* ------------------------------------------------------------------ *)

let conformance_script proto script =
  in_sim (fun () ->
      let queued = K.Slock.make ~name:"queued" ~proto () in
      let flat = K.Slock.make ~name:"flat" () in
      let held = ref false in
      List.iter
        (fun op ->
          (* Map the raw int to an op legal in the current state, as the
             model-based tests do: shrinking stays structure-free. *)
          match (!held, op mod 4) with
          | false, (0 | 1) ->
              K.Slock.lock queued;
              K.Slock.lock flat;
              held := true
          | false, 2 ->
              let a = K.Slock.try_lock queued in
              let b = K.Slock.try_lock flat in
              if a <> b then
                Alcotest.failf "try_lock disagreement (free): %b vs %b" a b;
              held := a
          | true, (0 | 1) ->
              K.Slock.unlock queued;
              K.Slock.unlock flat;
              held := false
          | true, 2 ->
              (* Both are held by us; a try must fail on both. *)
              let a = K.Slock.try_lock queued in
              let b = K.Slock.try_lock flat in
              if a || b then
                Alcotest.failf "try_lock disagreement (held): %b vs %b" a b
          | _, _ ->
              let a = K.Slock.is_locked queued in
              let b = K.Slock.is_locked flat in
              if a <> b then
                Alcotest.failf "is_locked disagreement: %b vs %b" a b)
        script;
      if !held then begin
        K.Slock.unlock queued;
        K.Slock.unlock flat
      end;
      true)

let conformance_tests =
  List.map
    (fun proto ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:120
           ~name:
             (Printf.sprintf "lockstep: %s == flat" (Lock_proto.name proto))
           QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 11))
           (conformance_script proto)))
    mutexes

(* ------------------------------------------------------------------ *)
(* Mutual exclusion under contention                                     *)
(* ------------------------------------------------------------------ *)

(* The critical section reads, pauses and writes through shared cells
   (every access a preemption point), plus an occupancy flag: any
   exclusion failure shows up as a lost update or a double entry. *)
let exclusion_scenario ~proto ~workers ~iters () =
  let l = K.Slock.make ~name:"excl" ~proto () in
  let count = Engine.Cell.make ~name:"count" 0 in
  let inside = Engine.Cell.make ~name:"inside" 0 in
  let ts =
    List.init workers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
            for _ = 1 to iters do
              K.Slock.lock l;
              if Engine.Cell.get inside <> 0 then
                Engine.fatal "two threads inside the critical section";
              Engine.Cell.set inside 1;
              let v = Engine.Cell.get count in
              Engine.cycles 5;
              Engine.Cell.set count (v + 1);
              Engine.Cell.set inside 0;
              K.Slock.unlock l
            done))
  in
  List.iter Engine.join ts;
  check_int "no lost update" (workers * iters) (Engine.Cell.get count)

let test_mutual_exclusion () =
  List.iter
    (fun proto ->
      List.iter
        (fun seed ->
          let cfg = Config.exploration ~cpus:4 ~seed () in
          in_sim ~cfg (exclusion_scenario ~proto ~workers:4 ~iters:6))
        [ 1; 2; 3 ])
    mutexes

(* ------------------------------------------------------------------ *)
(* FIFO grant order (ticket, MCS, Anderson are all FIFO by construction) *)
(* ------------------------------------------------------------------ *)

let test_fifo_order () =
  List.iter
    (fun proto ->
      let arrivals, grants =
        in_sim
          ~cfg:{ Config.default with Config.cpus = 6 }
          (fun () ->
            let l = K.Slock.make ~name:"fifo" ~proto () in
            let arrivals = ref [] and grants = ref [] in
            K.Slock.lock l;
            let ts =
              List.init 4 (fun i ->
                  (* Each waiter bound to its own cpu: dispatches happen
                     at the same clock, so the 200-cycle stagger alone
                     fixes the arrival order, and under the Timed policy
                     the gaps dwarf the few cycles between the arrival
                     note and the enqueue instruction — the noted order
                     IS the enqueue order. *)
                  Engine.spawn ~bound:(i + 1)
                    ~name:(Printf.sprintf "w%d" i)
                    (fun () ->
                      Engine.cycles (200 * (i + 1));
                      (* End the slice so the arrival note below runs in
                         clock order, not spawn-tie order: Engine.cycles
                         is not a preemption point. *)
                      Engine.pause ();
                      arrivals := i :: !arrivals;
                      K.Slock.lock l;
                      grants := i :: !grants;
                      Engine.cycles 20;
                      K.Slock.unlock l))
            in
            (* Hold until every waiter is provably enqueued. *)
            Engine.cycles 5_000;
            K.Slock.unlock l;
            List.iter Engine.join ts;
            (List.rev !arrivals, List.rev !grants))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: all four waiters arrived" (Lock_proto.name proto))
        [ 0; 1; 2; 3 ]
        (List.sort compare arrivals);
      Alcotest.(check (list int))
        (Printf.sprintf "%s grants in arrival order" (Lock_proto.name proto))
        arrivals grants)
    K.Locks.queue

(* ------------------------------------------------------------------ *)
(* Big-reader lock semantics                                             *)
(* ------------------------------------------------------------------ *)

(* Writers keep two cells equal; readers snapshot both under the read
   lock.  Any reader observing a torn pair proves a writer ran inside a
   read-side section. *)
let brlock_scenario ~readers ~writers ~iters () =
  let module B = K.Locks.Brlock in
  let l = B.make ~name:"br" in
  let a = Engine.Cell.make ~name:"a" 0 in
  let b = Engine.Cell.make ~name:"b" 0 in
  let rs =
    List.init readers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "r%d" i) (fun () ->
            for _ = 1 to iters do
              B.with_read l (fun () ->
                  let x = Engine.Cell.get a in
                  Engine.cycles 3;
                  let y = Engine.Cell.get b in
                  if x <> y then Engine.fatal "torn read under read lock")
            done))
  in
  let ws =
    List.init writers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "wr%d" i) (fun () ->
            for _ = 1 to iters do
              B.with_write l (fun () ->
                  let v = Engine.Cell.get a + 1 in
                  Engine.Cell.set a v;
                  Engine.cycles 3;
                  Engine.Cell.set b v)
            done))
  in
  List.iter Engine.join rs;
  List.iter Engine.join ws;
  check_int "every write landed" (writers * iters) (Engine.Cell.get a);
  check_bool "drained" false (B.is_locked l)

let test_brlock_exclusion () =
  List.iter
    (fun seed ->
      let cfg = Config.exploration ~cpus:4 ~seed () in
      in_sim ~cfg (brlock_scenario ~readers:3 ~writers:2 ~iters:5))
    [ 1; 2; 3; 4 ]

(* The read-mostly win: concurrent readers on their own per-cpu slots
   never disturb each other, while readers serializing on one ttas lock
   invalidate every other reader's cached copy on each release — so the
   distributed lock must cost markedly fewer bus transactions for the
   same all-reader workload. *)
let test_brlock_read_local () =
  let runs reads =
    let cfg = { Config.default with Config.cpus = 4 } in
    let stats =
      Engine.run ~cfg (fun () ->
          let ts =
            List.init 4 (fun i ->
                Engine.spawn ~name:(Printf.sprintf "r%d" i) reads)
          in
          List.iter Engine.join ts)
    in
    stats.Engine.bus_transactions
  in
  let module B = K.Locks.Brlock in
  let br = B.make ~name:"br" in
  let brlock_bus =
    runs (fun () ->
        for _ = 1 to 30 do
          B.with_read br (fun () -> Engine.cycles 5)
        done)
  in
  let tt = K.Slock.make ~name:"tt" ~proto:K.Locks.ttas () in
  let ttas_bus =
    runs (fun () ->
        for _ = 1 to 30 do
          K.Slock.with_lock tt (fun () -> Engine.cycles 5)
        done)
  in
  if brlock_bus >= ttas_bus then
    Alcotest.failf "brlock reads not bus-quiet: %d >= %d bus txns" brlock_bus
      ttas_bus

(* ------------------------------------------------------------------ *)
(* Complex lock over a queue-lock interlock                              *)
(* ------------------------------------------------------------------ *)

let test_complex_over_mcs () =
  let cfg = Config.exploration ~cpus:4 ~seed:7 () in
  in_sim ~cfg (fun () ->
      let cl = K.Clock.make ~name:"cl" ~proto:K.Locks.mcs ~can_sleep:false () in
      let c = Engine.Cell.make ~name:"c" 0 in
      let ts =
        List.init 3 (fun i ->
            Engine.spawn ~name:(Printf.sprintf "t%d" i) (fun () ->
                for _ = 1 to 4 do
                  K.Clock.lock_write cl;
                  let v = Engine.Cell.get c in
                  Engine.cycles 2;
                  Engine.Cell.set c (v + 1);
                  K.Clock.lock_done cl;
                  K.Clock.lock_read cl;
                  ignore (Engine.Cell.get c);
                  K.Clock.lock_done cl
                done))
      in
      List.iter Engine.join ts;
      check_int "writes serialized" 12 (Engine.Cell.get c))

(* ------------------------------------------------------------------ *)
(* Exhaustive model checking: MCS handoff at 2 cpus                      *)
(* ------------------------------------------------------------------ *)

let mcs_mc_scenario () =
  let l = K.Slock.make ~name:"m" ~proto:K.Locks.mcs () in
  let c = Engine.Cell.make ~name:"c" 0 in
  let ts =
    List.init 2 (fun i ->
        Engine.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
            K.Slock.lock l;
            ignore (Engine.Cell.fetch_and_add c 1);
            K.Slock.unlock l))
  in
  List.iter Engine.join ts;
  if Engine.Cell.get c <> 2 then Engine.fatal "lost increment"

let test_mc_mcs_handoff () =
  let r = Mc.check ~cpus:2 ~mode:Mc.Dpor mcs_mc_scenario in
  check_bool "complete" true r.Mc.complete;
  check_bool "verified" true r.Mc.verified;
  check_bool "explored more than one schedule" true
    (r.Mc.stats.Mc.executions > 1)

(* ------------------------------------------------------------------ *)
(* Chaos: dropped handoff -> spin deadlock diagnosed as a lost handoff   *)
(* ------------------------------------------------------------------ *)

let test_drop_handoff_detected () =
  let faults =
    { Config.no_faults with Config.drop_handoff = 1 (* every handoff *) }
  in
  let cfg = { (Config.exploration ~cpus:3 ~seed:5 ()) with Config.faults } in
  match
    Engine.run_outcome ~cfg (Scenarios.get "mcs-handoff").run
  with
  | Engine.Deadlocked (Engine.Spin_deadlock, report) ->
      check_bool "report names the lost handoff" true
        (contains report "lost handoff");
      let chaos = Option.get (Engine.last_chaos ()) in
      check_bool "handoff drops counted" true
        (chaos.Engine.dropped_handoffs > 0)
  | Engine.Deadlocked (Engine.Sleep_deadlock, _) ->
      Alcotest.fail "expected a spin deadlock, got a sleep deadlock"
  | Engine.Completed _ -> Alcotest.fail "expected a deadlock, ran clean"
  | Engine.Panicked msg -> Alcotest.failf "panic: %s" msg
  | Engine.Hit_step_limit -> Alcotest.fail "hit step limit"

(* With the class disabled the chaos RNG must not be consumed: stats are
   byte-identical to a run with no faults record at all. *)
let test_drop_handoff_zero_draw () =
  let scenario = (Scenarios.get "mcs-handoff").run in
  let base = Config.exploration ~cpus:3 ~seed:11 () in
  let off =
    { base with Config.faults = { Config.no_faults with Config.drop_wakeup = 0 } }
  in
  let a = Format.asprintf "%a" Engine.pp_stats (Engine.run ~cfg:base scenario) in
  let b = Format.asprintf "%a" Engine.pp_stats (Engine.run ~cfg:off scenario) in
  Alcotest.(check string) "byte-identical stats" a b

(* ------------------------------------------------------------------ *)
(* scache RW lock (lib/locks/scache_rwlock)                              *)
(* ------------------------------------------------------------------ *)

(* Writers keep two cells equal; readers snapshot both under the read
   side.  Any torn pair proves a writer ran inside a read-side section
   (the sweep failed to drain a counted reader). *)
let scache_scenario ~readers ~writers ~iters () =
  let module S = K.Locks.Scache in
  let l = S.make ~name:"sc" in
  let a = Engine.Cell.make ~name:"a" 0 in
  let b = Engine.Cell.make ~name:"b" 0 in
  let rs =
    List.init readers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "r%d" i) (fun () ->
            for _ = 1 to iters do
              S.with_read l (fun () ->
                  let x = Engine.Cell.get a in
                  Engine.cycles 3;
                  let y = Engine.Cell.get b in
                  if x <> y then Engine.fatal "torn read under scache read side")
            done))
  in
  let ws =
    List.init writers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "wr%d" i) (fun () ->
            for _ = 1 to iters do
              S.with_write l (fun () ->
                  let v = Engine.Cell.get a + 1 in
                  Engine.Cell.set a v;
                  Engine.cycles 3;
                  Engine.Cell.set b v)
            done))
  in
  List.iter Engine.join rs;
  List.iter Engine.join ws;
  check_int "every write landed" (writers * iters) (Engine.Cell.get a);
  check_bool "drained" false (S.is_locked l)

let test_scache_exclusion () =
  List.iter
    (fun seed ->
      let cfg = Config.exploration ~cpus:4 ~seed () in
      in_sim ~cfg (scache_scenario ~readers:3 ~writers:2 ~iters:5))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Exhaustive model checking: the scache handoff matrix at 2 cpus        *)
(* ------------------------------------------------------------------ *)

(* Reader vs writer: the ReadCounted->back-out transition and the
   ExcLockPending sweep must never admit both sides at once, on ANY
   schedule (the occupancy cell makes a violation fatal). *)
let test_mc_scache_rw () =
  let r = Mc.check ~cpus:2 ~mode:Mc.Dpor Scenarios.scache_rw in
  check_bool "complete" true r.Mc.complete;
  check_bool "verified" true r.Mc.verified;
  check_bool "explored more than one schedule" true
    (r.Mc.stats.Mc.executions > 1)

(* Writer vs writer: the FIFO ticket gate plus the Free->ExcLockPending
   CAS must serialize every schedule (the CAS invariant fataling is part
   of what is being checked). *)
let test_mc_scache_ww () =
  let r = Mc.check ~cpus:2 ~mode:Mc.Dpor Scenarios.scache_ww in
  check_bool "complete" true r.Mc.complete;
  check_bool "verified" true r.Mc.verified;
  check_bool "explored more than one schedule" true
    (r.Mc.stats.Mc.executions > 1)

(* Reader vs reader: no schedule may fail, and at least one schedule
   must witness both readers inside simultaneously — per-cpu refcount
   slots do not serialize the read side.  The witness accumulates across
   executions (any one execution may happen to serialize). *)
let test_mc_scache_rr () =
  let witnessed = ref false in
  let r =
    Mc.check ~cpus:2 ~mode:Mc.Dpor (fun () ->
        if Scenarios.scache_pair ~m1:`Read ~m2:`Read ~expect_parallel:true ()
        then witnessed := true)
  in
  check_bool "complete" true r.Mc.complete;
  check_bool "verified" true r.Mc.verified;
  check_bool "some schedule interleaved the two readers" true !witnessed

(* ------------------------------------------------------------------ *)
(* Brlock writer starvation: the FIFO writer-pending gate                *)
(* ------------------------------------------------------------------ *)

(* A greedy writer in a tight re-acquire loop plus a herd of readers,
   against one victim writer that wants the lock exactly once.  Without
   the pending gate the victim must win an unfair test-and-set race
   against the greedy writer while fresh readers slip in at every
   release; its overtake count (acquisitions completed while it waits)
   grows with the workload.  With the gate the victim enqueues, readers
   hold off, and the greedy writer falls in line behind it: only
   operations already in flight (plus at most one fast-path barge) can
   finish first. *)
let starvation_overtakes ~seed =
  let cfg = Config.exploration ~cpus:6 ~seed () in
  in_sim ~cfg (fun () ->
      let module B = K.Locks.Brlock in
      let l = B.make ~name:"starve" in
      let ops = Engine.Cell.make ~name:"ops" 0 in
      let victim_done = Engine.Cell.make ~name:"vdone" 0 in
      let greedy =
        Engine.spawn ~name:"greedy" (fun () ->
            while Engine.Cell.get victim_done = 0 do
              B.with_write l (fun () ->
                  ignore (Engine.Cell.fetch_and_add ops 1);
                  Engine.cycles 5)
            done)
      in
      let readers =
        List.init 4 (fun i ->
            Engine.spawn ~name:(Printf.sprintf "r%d" i) (fun () ->
                while Engine.Cell.get victim_done = 0 do
                  B.with_read l (fun () ->
                      ignore (Engine.Cell.fetch_and_add ops 1);
                      Engine.cycles 2)
                done))
      in
      let overtakes = ref 0 in
      let victim =
        Engine.spawn ~name:"victim" (fun () ->
            (* Let the loop establish itself first. *)
            Engine.cycles 400;
            let before = Engine.Cell.get ops in
            ignore (B.write_lock l);
            overtakes := Engine.Cell.get ops - before;
            B.write_unlock l;
            Engine.Cell.set victim_done 1)
      in
      Engine.join victim;
      Engine.join greedy;
      List.iter Engine.join readers;
      !overtakes)

(* In-flight bound: greedy writer + 4 readers + one barge.  The old
   tas-race brlock blows far past this on these seeds (dozens of
   overtakes); the FIFO gate keeps every seed under it. *)
let test_brlock_writer_no_starvation () =
  List.iter
    (fun seed ->
      let n = starvation_overtakes ~seed in
      if n > 6 then
        Alcotest.failf "seed %d: %d acquisitions overtook the waiting writer"
          seed n)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Brlock deadlocks are attributable                                     *)
(* ------------------------------------------------------------------ *)

(* ABBA between a brlock writer and a simple lock.  The raw brlock
   reports its waits and holds like every other lock, so the detector
   closes the cycle through it, and the cpu spinning on it says so
   (rather than naming the last lock it spun on). *)
let test_brlock_abba_attributed () =
  let cfg = Config.exploration ~cpus:2 ~seed:1 () in
  match
    Engine.run_outcome ~cfg (fun () ->
        let br = K.Locks.Brlock.make ~name:"abba.br" in
        let s = K.Slock.make ~name:"abba.s" () in
        let ready = Engine.Cell.make ~name:"ready" 0 in
        let worker name first second =
          Engine.spawn ~name (fun () ->
              let release_first = first () in
              ignore (Engine.Cell.fetch_and_add ready 1);
              while Engine.Cell.get ready < 2 do
                Engine.pause ()
              done;
              let release_second = second () in
              release_second ();
              release_first ())
        in
        let write_br () =
          ignore (K.Locks.Brlock.write_lock br);
          fun () -> K.Locks.Brlock.write_unlock br
        in
        let lock_s () =
          K.Slock.lock s;
          fun () -> K.Slock.unlock s
        in
        let a = worker "A" write_br lock_s in
        let b = worker "B" lock_s write_br in
        Engine.join a;
        Engine.join b)
  with
  | Engine.Deadlocked (Engine.Spin_deadlock, report) ->
      check_bool "report closes a waits-for cycle" true
        (contains report "waits-for cycle");
      check_bool "the cycle names the brlock" true
        (contains report "simple lock abba.br ->");
      check_bool "B's cpu names the brlock it spins on" true
        (contains report "B (spinning on abba.br.write)");
      check_bool "A's cpu names the simple lock" true
        (contains report "A (spinning on abba.s)")
  | Engine.Deadlocked (Engine.Sleep_deadlock, _) ->
      Alcotest.fail "expected a spin deadlock, got a sleep deadlock"
  | Engine.Completed _ -> Alcotest.fail "expected a deadlock, ran clean"
  | Engine.Panicked msg -> Alcotest.failf "panic: %s" msg
  | Engine.Hit_step_limit -> Alcotest.fail "hit step limit"

(* ------------------------------------------------------------------ *)
(* Chaos: dropped scache grant -> lost handoff on the writer gate        *)
(* ------------------------------------------------------------------ *)

let test_scache_drop_handoff_detected () =
  let faults =
    { Config.no_faults with Config.drop_handoff = 1 (* every handoff *) }
  in
  let cfg = { (Config.exploration ~cpus:3 ~seed:5 ()) with Config.faults } in
  match
    Engine.run_outcome ~cfg (Scenarios.get "scache-handoff").run
  with
  | Engine.Deadlocked (Engine.Spin_deadlock, report) ->
      check_bool "report names the lost handoff" true
        (contains report "lost handoff");
      let chaos = Option.get (Engine.last_chaos ()) in
      check_bool "handoff drops counted" true
        (chaos.Engine.dropped_handoffs > 0)
  | Engine.Deadlocked (Engine.Sleep_deadlock, _) ->
      Alcotest.fail "expected a spin deadlock, got a sleep deadlock"
  | Engine.Completed _ -> Alcotest.fail "expected a deadlock, ran clean"
  | Engine.Panicked msg -> Alcotest.failf "panic: %s" msg
  | Engine.Hit_step_limit -> Alcotest.fail "hit step limit"

(* Zero-draw identity for the scache handoff site: with the class
   disabled, the release-path hook must not consume chaos RNG. *)
let test_scache_drop_handoff_zero_draw () =
  let scenario = (Scenarios.get "scache-handoff").run in
  let base = Config.exploration ~cpus:3 ~seed:11 () in
  let off =
    { base with Config.faults = { Config.no_faults with Config.drop_wakeup = 0 } }
  in
  let a = Format.asprintf "%a" Engine.pp_stats (Engine.run ~cfg:base scenario) in
  let b = Format.asprintf "%a" Engine.pp_stats (Engine.run ~cfg:off scenario) in
  Alcotest.(check string) "byte-identical stats" a b

(* ------------------------------------------------------------------ *)
(* Range locks (lib/locks/range_lock)                                    *)
(* ------------------------------------------------------------------ *)

module RL = Mach_locks.Range_lock

(* Disjoint ranges never conflict: a single thread can hold both (a
   blocking acquire would deadlock the simulation), and try_acquire distinguishes overlap from disjointness. *)
let test_range_disjoint_nonblocking () =
  in_sim (fun () ->
      let l = K.Rlock.make ~name:"rdis" () in
      let a = K.Rlock.acquire l ~lo:0 ~hi:4 RL.Write in
      let b = K.Rlock.acquire l ~lo:8 ~hi:12 RL.Write in
      check_int "two holders" 2 (List.length (K.Rlock.holders l));
      check_bool "overlap refused" true
        (K.Rlock.try_acquire l ~lo:2 ~hi:10 RL.Write = None);
      (match K.Rlock.try_acquire l ~lo:4 ~hi:8 RL.Write with
      | Some c -> K.Rlock.release l c
      | None -> Alcotest.fail "disjoint try_acquire refused");
      K.Rlock.release l a;
      K.Rlock.release l b;
      check_int "drained" 0 (List.length (K.Rlock.holders l)))

(* Readers share an overlapping range; a writer waits for both. *)
let test_range_read_sharing () =
  in_sim (fun () ->
      let l = K.Rlock.make ~name:"rshare" () in
      let r1 = K.Rlock.acquire l ~lo:0 ~hi:8 RL.Read in
      let r2 = K.Rlock.acquire l ~lo:4 ~hi:12 RL.Read in
      let got = Engine.Cell.make ~name:"got" 0 in
      let w =
        Engine.spawn ~name:"writer" (fun () ->
            let h = K.Rlock.acquire l ~lo:6 ~hi:7 RL.Write in
            Engine.Cell.set got 1;
            K.Rlock.release l h)
      in
      wait_until (fun () -> K.Rlock.waiting_requests l = 1);
      check_int "writer still waiting behind two readers" 0
        (Engine.Cell.get got);
      K.Rlock.release l r1;
      Engine.cycles 50;
      check_int "writer still waiting behind one reader" 0
        (Engine.Cell.get got);
      K.Rlock.release l r2;
      Engine.join w;
      check_int "writer ran after both readers left" 1 (Engine.Cell.get got))

(* An overlapping writer blocks until the holder releases. *)
let test_range_overlap_blocks () =
  in_sim (fun () ->
      let l = K.Rlock.make ~name:"rblk" () in
      let h = K.Rlock.acquire l ~lo:0 ~hi:4 RL.Write in
      let got = Engine.Cell.make ~name:"got" 0 in
      let t =
        Engine.spawn ~name:"waiter" (fun () ->
            let h2 = K.Rlock.acquire l ~lo:2 ~hi:6 RL.Write in
            Engine.Cell.set got 1;
            K.Rlock.release l h2)
      in
      wait_until (fun () -> K.Rlock.waiting_requests l = 1);
      check_int "waiter blocked on overlap" 0 (Engine.Cell.get got);
      K.Rlock.release l h;
      Engine.join t;
      check_int "waiter ran after release" 1 (Engine.Cell.get got))

(* FIFO fairness: a later request must not overtake an earlier waiter it
   conflicts with, even when the later request's range is free right
   now.  Main holds [0,8); A wants [4,12) (blocked on main); B wants
   [8,16) — disjoint from main's hold but overlapping A — so B must wait
   for A, and try_acquire must refuse to barge past A too. *)
let test_range_fifo_no_overtake () =
  in_sim (fun () ->
      let l = K.Rlock.make ~name:"rfifo" () in
      let h = K.Rlock.acquire l ~lo:0 ~hi:8 RL.Write in
      let grants = ref [] in
      let a =
        Engine.spawn ~name:"a" (fun () ->
            let ha = K.Rlock.acquire l ~lo:4 ~hi:12 RL.Write in
            grants := "a" :: !grants;
            Engine.cycles 10;
            K.Rlock.release l ha)
      in
      wait_until (fun () -> K.Rlock.waiting_requests l = 1);
      let b =
        Engine.spawn ~name:"b" (fun () ->
            let hb = K.Rlock.acquire l ~lo:8 ~hi:16 RL.Write in
            grants := "b" :: !grants;
            K.Rlock.release l hb)
      in
      wait_until (fun () -> K.Rlock.waiting_requests l = 2);
      (* [8,10) is held by nobody, but it overlaps waiter A's request:
         granting it would let a newcomer overtake A. *)
      check_bool "try_acquire does not barge past a waiter" true
        (K.Rlock.try_acquire l ~lo:8 ~hi:10 RL.Write = None);
      check_int "no waiter overtook the holder" 0 (List.length !grants);
      K.Rlock.release l h;
      Engine.join a;
      Engine.join b;
      Alcotest.(check (list string))
        "grants in arrival order" [ "a"; "b" ] (List.rev !grants))

(* Mutual exclusion under contention across seeds: overlapping writers
   are serialized (occupancy flag), disjoint writers may interleave, and
   no update is lost either way. *)
let range_exclusion_scenario ~workers ~iters () =
  let l = K.Rlock.make ~name:"rexcl" () in
  let count = Engine.Cell.make ~name:"rcount" 0 in
  let inside = Engine.Cell.make ~name:"rinside" 0 in
  let ts =
    List.init workers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "rw%d" i) (fun () ->
            for it = 1 to iters do
              (* Odd iterations fight over [0,4); even ones take a
                 per-worker disjoint slice. *)
              let lo = if it mod 2 = 1 then 0 else 16 + (4 * i) in
              let h = K.Rlock.acquire l ~lo ~hi:(lo + 4) RL.Write in
              if lo = 0 then begin
                if Engine.Cell.get inside <> 0 then
                  Engine.fatal "two writers inside an overlapping range";
                Engine.Cell.set inside 1;
                (* A plain read-modify-write: safe only because the
                   overlapping range serializes us. *)
                let v = Engine.Cell.get count in
                Engine.cycles 5;
                Engine.Cell.set count (v + 1);
                Engine.Cell.set inside 0
              end
              else Engine.cycles 5;
              K.Rlock.release l h
            done))
  in
  List.iter Engine.join ts;
  check_int "no lost update in the serialized range"
    (workers * ((iters + 1) / 2))
    (Engine.Cell.get count)

let test_range_exclusion () =
  List.iter
    (fun seed ->
      let cfg = Config.exploration ~cpus:4 ~seed () in
      in_sim ~cfg (range_exclusion_scenario ~workers:4 ~iters:4))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "locks"
    [
      ("conformance", conformance_tests);
      ( "properties",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutual_exclusion;
          Alcotest.test_case "FIFO grant order" `Quick test_fifo_order;
          Alcotest.test_case "brlock exclusion" `Quick test_brlock_exclusion;
          Alcotest.test_case "brlock reads are bus-quiet" `Quick
            test_brlock_read_local;
          Alcotest.test_case "brlock writer never starves" `Quick
            test_brlock_writer_no_starvation;
          Alcotest.test_case "scache exclusion" `Quick test_scache_exclusion;
          Alcotest.test_case "brlock ABBA deadlock is attributed" `Quick
            test_brlock_abba_attributed;
          Alcotest.test_case "complex lock over mcs" `Quick
            test_complex_over_mcs;
        ] );
      ( "range",
        [
          Alcotest.test_case "disjoint ranges do not block" `Quick
            test_range_disjoint_nonblocking;
          Alcotest.test_case "readers share, writer waits" `Quick
            test_range_read_sharing;
          Alcotest.test_case "overlap blocks until release" `Quick
            test_range_overlap_blocks;
          Alcotest.test_case "FIFO: no overtaking a waiter" `Quick
            test_range_fifo_no_overtake;
          Alcotest.test_case "exclusion under contention" `Quick
            test_range_exclusion;
        ] );
      ( "mc",
        [
          Alcotest.test_case "mcs handoff exhaustive at 2 cpus" `Quick
            test_mc_mcs_handoff;
          Alcotest.test_case "scache reader/writer serializes (all schedules)"
            `Quick test_mc_scache_rw;
          Alcotest.test_case "scache writer/writer serializes (all schedules)"
            `Quick test_mc_scache_ww;
          Alcotest.test_case "scache readers interleave (some schedule)"
            `Quick test_mc_scache_rr;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "dropped handoff diagnosed" `Quick
            test_drop_handoff_detected;
          Alcotest.test_case "disabled class draws nothing" `Quick
            test_drop_handoff_zero_draw;
          Alcotest.test_case "dropped scache grant diagnosed" `Quick
            test_scache_drop_handoff_detected;
          Alcotest.test_case "scache drop disabled draws nothing" `Quick
            test_scache_drop_handoff_zero_draw;
        ] );
    ]
