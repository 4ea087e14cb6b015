(* The experiment harness.

   "Locking and Reference Counting in the Mach Kernel" (ICPP 1991) is an
   experience paper with no numbered tables or figures; experiments E1-E14
   below (defined in DESIGN.md, results recorded in EXPERIMENTS.md) each
   operationalize one of its qualitative claims.  Every invocation
   regenerates every table; pass experiment ids (e.g. `E1 E4`) to run a
   subset.

   The simulated multiprocessor's cycle model plays the role of the
   paper's shared-bus testbeds (VAX 6000 / Encore Multimax / Sequent
   Symmetry); the N0 section measures native per-operation costs with
   Bechamel on real hardware for calibration. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Explore = Mach_sim.Sim_explore
module Spin = Mach_core.Spin
module Stats = Mach_core.Lock_stats
module K = Mach_ksync.Ksync
module Vm = Mach_vm
module Scenarios = Mach_kernel.Scenarios
module Kernel = Mach_kernel.Kernel
open Bench_util

let cpu_sweep = [ 1; 2; 4; 8; 16 ]

let protocols =
  List.map (fun p -> (Spin.protocol_name p, p)) Spin.all_protocols

(* ================================================================== *)
(* N0: native per-operation costs (Bechamel, real multicore hardware)  *)
(* ================================================================== *)

module N0 = struct
  let run () =
    section ~id:"N0" ~title:"native per-operation costs (Bechamel)"
      ~claim:
        "calibration only: uncontended primitive costs on the host machine";
    let open Bechamel in
    let module HS = Mach_hw.Hw_sync in
    let slock = HS.Slock.make ~name:"bench" () in
    let clock = HS.Clock.make ~name:"bench" ~can_sleep:false () in
    let refc = HS.Ref.make () in
    let cell = Mach_hw.Hw_machine.Cell.make 0 in
    let tests =
      [
        Test.make_grouped ~name:"native" ~fmt:"%s %s"
          [
            Test.make ~name:"atomic test-and-set"
              (Staged.stage (fun () ->
                   ignore (Mach_hw.Hw_machine.Cell.test_and_set cell);
                   Mach_hw.Hw_machine.Cell.set cell 0));
            Test.make ~name:"simple lock/unlock"
              (Staged.stage (fun () ->
                   HS.Slock.lock slock;
                   HS.Slock.unlock slock));
            Test.make ~name:"complex read/done"
              (Staged.stage (fun () ->
                   HS.Clock.lock_read clock;
                   HS.Clock.lock_done clock));
            Test.make ~name:"complex write/done"
              (Staged.stage (fun () ->
                   HS.Clock.lock_write clock;
                   HS.Clock.lock_done clock));
            Test.make ~name:"refcount clone/release"
              (Staged.stage (fun () ->
                   HS.Ref.clone refc;
                   ignore (HS.Ref.release refc)));
          ];
      ]
    in
    let results = bechamel_run tests in
    let rows =
      List.concat_map
        (fun (_, elts) ->
          List.map (fun (name, ns) -> [ name; f1 ns ]) elts)
        results
    in
    table ~header:[ "operation"; "ns/op" ] rows
end

(* ================================================================== *)
(* E1: spin protocols under contention (section 2)                     *)
(* ================================================================== *)

module E1 = struct
  (* Workers contend for one lock; the critical section updates shared
     kernel data (so spin bus traffic delays useful work).  [cap]
    overrides the ttas-backoff delay ceiling (default 1024 cycles). *)
  let workload ?cap protocol cpus =
    let tweak cfg =
      match cap with
      | Some c -> { cfg with Config.spin_max_backoff = c }
      | None -> cfg
    in
    sim_run ~cpus ~tweak (fun () ->
        Scenarios.contention ~lock:(K.Slock.make ~name:"l" ~protocol ())
          ~iters:30 ())

  let tuned_cap = 128

  (* The protocol sweep's table, shared with E15. *)
  let cols = point_cols "protocol" @ stats_cols @ [ misses_col ]

  let run () =
    section ~id:"E1" ~title:"spin protocols under contention (sim cycles)"
      ~claim:
        "test-and-test-and-set avoids cache misses while spinning; plain \
         test-and-set wastes bus bandwidth and slows everyone down (s.2)";
    let configs =
      List.map (fun (name, p) -> (name, (None, p))) protocols
      @ [
          (* Backoff cap tuned to the workload: at 128 cycles — a
             fraction of the ~500-cycle lock hold — waiters re-probe a
             few times per hold instead of sleeping through whole release
             windows as the generic 1024-cycle cap does. *)
          ( Printf.sprintf "ttas-backoff(cap=%d)" tuned_cap,
            (Some tuned_cap, Spin.Ttas_backoff) );
        ]
    in
    ignore
      (tabulate cols
         (grid ~sweep:cpu_sweep configs (fun (cap, p) cpus ->
              Some (workload ?cap p cpus))))
end

(* ================================================================== *)
(* E2: low contention and the first-attempt observation (section 2)    *)
(* ================================================================== *)

module E2 = struct
  let workload protocol cpus =
    let stats = ref None in
    let s =
      sim_run ~cpus (fun () ->
          let lock = K.Slock.make ~name:"l" ~protocol () in
          let worker () =
            for _ = 1 to 30 do
              K.Slock.lock lock;
              Engine.cycles 10;
              K.Slock.unlock lock;
              (* think time >> hold time: contention is rare *)
              Engine.cycles 2000;
              Engine.pause ()
            done
          in
          let ts = List.init cpus (fun _ -> Engine.spawn worker) in
          List.iter Engine.join ts;
          stats := Some (K.Slock.stats lock))
    in
    (s, Option.get !stats)

  let run () =
    section ~id:"E2" ~title:"low contention: the first-attempt observation"
      ~claim:
        "most locks in a well designed system are acquired on the first \
         attempt, so try the atomic instruction first (tas+ttas) (s.2)";
    ignore
      (tabulate
         (point_cols "protocol"
         @ [
             col "makespan" int (fun p -> (fst p.res).Engine.makespan);
             col "first-attempt" (real f2) (fun p ->
                 Stats.first_attempt_rate (snd p.res));
             col "spins" int (fun p -> Stats.total_spins (snd p.res));
           ])
         (grid ~sweep:[ 2; 8 ] protocols (fun p cpus ->
              Some (workload p cpus))))
end

(* ================================================================== *)
(* E3: locking granularity (sections 2, 5)                             *)
(* ================================================================== *)

module E3 = struct
  let run () =
    section ~id:"E3" ~title:"coarse vs fine-grained locking"
      ~claim:
        "locking data (one lock per object) lets code run in parallel with \
         itself; locking code (one big lock / master processor) restricts \
         the kernel to one processor and bottlenecks (s.2, s.5)";
    let granularities =
      List.map
        (fun g -> (Scenarios.granularity_name g, g))
        [ Scenarios.Coarse; Scenarios.Fine; Scenarios.Master_funnel ]
    in
    let ops p = p.cpus * 30 in
    ignore
      (tabulate
         (point_cols "granularity"
         @ [
             col "total-ops" int ops;
             col "makespan" int (fun p -> p.res.Engine.makespan);
             col "ops/kcycle" (real f2) (fun p ->
                 float_of_int (ops p) *. 1000.
                 /. float_of_int p.res.Engine.makespan);
           ])
         (grid ~sweep:cpu_sweep granularities (fun g cpus ->
              Some
                (sim_run ~cpus (fun () ->
                     Scenarios.object_ops_workload g ~objects:16 ~workers:cpus
                       ~ops_per_worker:30)))))
end

(* ================================================================== *)
(* E4: readers/writer lock and writers' priority (section 4)           *)
(* ================================================================== *)

module E4 = struct
  let workload ~priority ~write_pct cpus =
    let max_writer_wait = ref 0 in
    let s =
      sim_run ~cpus (fun () ->
          let l = K.Clock.make ~name:"rw" ~can_sleep:true () in
          K.Clock.set_writers_priority l priority;
          let worker w () =
            for op = 1 to 30 do
              if (op + w) mod 100 < write_pct then begin
                let t0 = Engine.now_cycles () in
                K.Clock.lock_write l;
                let waited = Engine.now_cycles () - t0 in
                if waited > !max_writer_wait then max_writer_wait := waited;
                Engine.cycles 30;
                K.Clock.lock_done l
              end
              else begin
                K.Clock.lock_read l;
                Engine.cycles 30;
                K.Clock.lock_done l
              end
            done
          in
          let ts = List.init cpus (fun w -> Engine.spawn (worker w)) in
          List.iter Engine.join ts)
    in
    (s, !max_writer_wait)

  let run () =
    section ~id:"E4" ~title:"readers/writer lock: writers' priority"
      ~claim:
        "readers may not be added past an outstanding write request, \
         guaranteeing the lock drains to the writer (no starvation) (s.4); \
         ablation: without priority, writer waits explode under read load";
    let rows =
      List.concat_map
        (fun write_pct ->
          List.map
            (fun priority ->
              let s, wmax = workload ~priority ~write_pct 8 in
              [
                i write_pct;
                (if priority then "yes" else "no (ablation)");
                i s.Engine.makespan;
                i wmax;
              ])
            [ true; false ])
        [ 2; 10; 30 ]
    in
    table
      ~header:[ "write%"; "writers-priority"; "makespan"; "max-writer-wait" ]
      rows
end

(* ================================================================== *)
(* E5: upgrade vs write-then-downgrade (section 7.1)                   *)
(* ================================================================== *)

module E5 = struct
  (* Each operation reads a shared structure and must then modify it.
     Variant A: take a read lock, upgrade; a failed upgrade loses the
     read lock and must restart (the recovery logic section 7.1 complains
     about).  Variant B: take the write lock up front and downgrade after
     the modification. *)
  let workload ~use_upgrade cpus =
    let failed = ref 0 in
    let s =
      sim_run ~cpus (fun () ->
          let l = K.Clock.make ~name:"m" ~can_sleep:true () in
          let worker () =
            for _ = 1 to 20 do
              if use_upgrade then begin
                let rec attempt () =
                  K.Clock.lock_read l;
                  Engine.cycles 20 (* read/validate *);
                  if K.Clock.lock_read_to_write l then begin
                    (* failed: read lock already released; retry *)
                    incr failed;
                    Engine.pause ();
                    attempt ()
                  end
                  else begin
                    Engine.cycles 30 (* modify *);
                    K.Clock.lock_done l
                  end
                in
                attempt ()
              end
              else begin
                K.Clock.lock_write l;
                Engine.cycles 30 (* modify *);
                K.Clock.lock_write_to_read l;
                Engine.cycles 20 (* read under the downgraded lock *);
                K.Clock.lock_done l
              end
            done
          in
          let ts = List.init cpus (fun _ -> Engine.spawn worker) in
          List.iter Engine.join ts)
    in
    (s, !failed)

  let run () =
    section ~id:"E5" ~title:"read-to-write upgrade vs write-then-downgrade"
      ~claim:
        "upgrades fail under contention (releasing the read lock and \
         forcing recovery); locking for write and downgrading cannot fail \
         and is the simpler, preferred alternative (s.7.1)";
    ignore
      (tabulate
         (point_cols "strategy"
         @ [
             col "makespan" int (fun p -> (fst p.res).Engine.makespan);
             col "failed-upgrades" int (fun p -> snd p.res);
           ])
         (grid ~sweep:[ 2; 4; 8 ]
            [ ("upgrade", true); ("write+downgrade", false) ]
            (fun use_upgrade cpus -> Some (workload ~use_upgrade cpus))))
end

(* ================================================================== *)
(* E6: recursive locking: overhead and the vm_map_pageable deadlock    *)
(* ================================================================== *)

module E6 = struct
  let overhead () =
    let acquisition ~recursive =
      let s =
        sim_run ~cpus:1 (fun () ->
            let l = K.Clock.make ~can_sleep:true () in
            if recursive then begin
              K.Clock.lock_write l;
              K.Clock.lock_set_recursive l;
              for _ = 1 to 200 do
                K.Clock.lock_write l;
                K.Clock.lock_done l
              done;
              K.Clock.lock_clear_recursive l;
              K.Clock.lock_done l
            end
            else
              for _ = 1 to 200 do
                K.Clock.lock_write l;
                K.Clock.lock_done l
              done)
      in
      s.Engine.makespan / 200
    in
    [
      [ "plain write acquire/release"; i (acquisition ~recursive:false) ];
      [ "recursive re-acquire/release"; i (acquisition ~recursive:true) ];
    ]

  let run () =
    section ~id:"E6" ~title:"recursive locking: cost and the 7.1 deadlock"
      ~claim:
        "recursive locks are less than fully general and caused the \
         vm_map_pageable deadlock against pageout; the Mach 3.0 rewrite \
         removes them (s.4, s.7.1)";
    table ~header:[ "operation"; "cycles/op" ] (overhead ());
    printf "\nvm_map_pageable under memory pressure, 30 schedules each:\n";
    let verdict ~use_recursive =
      Explore.run ~cpus:3
        ~seeds:(List.init 30 (fun s -> s + 1))
        (Scenarios.pageable ~use_recursive)
    in
    let vr = verdict ~use_recursive:true in
    let vw = verdict ~use_recursive:false in
    table
      ~header:[ "implementation"; "schedules"; "completed"; "deadlocked" ]
      [
        verdict_row "recursive (paper's original)" vr;
        verdict_row "rewritten (Mach 3.0, s.7.1)" vw;
      ]
end

(* ================================================================== *)
(* E7: event-wait latency and throughput (section 6)                   *)
(* ================================================================== *)

module E7 = struct
  let ping_pong () =
    let rounds = 50 in
    let s =
      sim_run ~cpus:2 (fun () ->
          let ping = K.Ev.fresh_event () and pong = K.Ev.fresh_event () in
          let guard = K.Slock.make ~name:"pp" () in
          let turn = ref 0 in
          let player my_turn my_ev other_ev () =
            for _ = 1 to rounds do
              K.Slock.lock guard;
              if !turn <> my_turn then begin
                K.Ev.assert_wait my_ev;
                K.Slock.unlock guard;
                ignore (K.Ev.thread_block ())
              end
              else K.Slock.unlock guard;
              K.Slock.lock guard;
              turn := 1 - my_turn;
              ignore (K.Ev.thread_wakeup other_ev);
              K.Slock.unlock guard
            done
          in
          let a = Engine.spawn ~name:"ping" (player 0 ping pong) in
          let b = Engine.spawn ~name:"pong" (player 1 pong ping) in
          Engine.join a;
          Engine.join b)
    in
    s.Engine.makespan / rounds

  let herd n =
    let s =
      sim_run ~cpus:8 (fun () ->
          let ev = K.Ev.fresh_event () in
          let served = Engine.Cell.make 0 in
          let sleepers =
            List.init n (fun _ ->
                Engine.spawn (fun () ->
                    K.Ev.assert_wait ev;
                    ignore (K.Ev.thread_block ());
                    ignore (Engine.Cell.fetch_and_add served 1)))
          in
          let rec drive () =
            if Engine.Cell.get served < n then begin
              ignore (K.Ev.thread_wakeup ev);
              Engine.pause ();
              drive ()
            end
          in
          drive ();
          List.iter Engine.join sleepers)
    in
    s.Engine.makespan

  let run () =
    section ~id:"E7" ~title:"event-wait mechanism costs"
      ~claim:
        "the split assert_wait/thread_block design makes release-locks-and-\
         wait atomic w.r.t. wakeup at the cost of one extra declaration \
         step; wakeup is broadcast (s.6)";
    table
      ~header:[ "benchmark"; "cycles" ]
      ([ [ "sleep/wakeup round trip (per round)"; i (ping_pong ()) ] ]
      @ List.map
          (fun n ->
            [ Printf.sprintf "broadcast wakeup herd of %d" n; i (herd n) ])
          [ 2; 8; 32 ])
end

(* ================================================================== *)
(* E8: reference counting costs (section 8)                            *)
(* ================================================================== *)

module E8 = struct
  let contended cpus =
    let ops = 100 in
    let s =
      sim_run ~cpus (fun () ->
          let r = K.Ref.make () in
          let ts =
            List.init cpus (fun _ ->
                Engine.spawn (fun () ->
                    for _ = 1 to ops do
                      K.Ref.clone r;
                      ignore (K.Ref.release r)
                    done))
          in
          List.iter Engine.join ts)
    in
    s.Engine.makespan / ops

  let run () =
    section ~id:"E8" ~title:"reference counting costs"
      ~claim:
        "acquiring a reference never blocks (legal under locks); the count \
         cell is a shared hot spot that scales with contention, which is \
         why counts live with per-object locks rather than globally (s.8)";
    let rows = List.map (fun cpus -> [ i cpus; i (contended cpus) ]) cpu_sweep in
    table
      ~header:[ "cpus"; "cycles per clone+release (one shared object)" ]
      rows
end

(* ================================================================== *)
(* E9: the kernel operation path (section 10)                          *)
(* ================================================================== *)

module E9 = struct
  let rpc_sweep clients =
    let calls = 20 in
    let s =
      sim_run ~cpus:8 (fun () ->
          let kernel = Kernel.start ~pages:32 () in
          Scenarios.null_rpc_workload kernel ~clients ~calls_each:calls;
          Kernel.shutdown kernel)
    in
    (s.Engine.makespan, s.Engine.makespan / (clients * calls))

  let run () =
    section ~id:"E9" ~title:"kernel operation path: null RPC round trip"
      ~claim:
        "every kernel operation pays the section 10 sequence: message, \
         port translation + object reference, operation, reference \
         release, reply (s.10)";
    let rows =
      List.map
        (fun clients ->
          let makespan, per = rpc_sweep clients in
          [ i clients; i makespan; i per ])
        [ 1; 2; 4; 8 ]
    in
    table ~header:[ "clients"; "makespan"; "cycles/rpc" ] rows
end

(* ================================================================== *)
(* E10: TLB shootdown cost (section 7)                                 *)
(* ================================================================== *)

module E10 = struct
  (* Every cpu but the initiator's is a participant. *)
  let cost participants =
    let removals = 10 in
    let s =
      sim_run ~cpus:(participants + 1) (Scenarios.shootdown ~removals)
    in
    (s.Engine.makespan / removals, s.Engine.interrupts_delivered)

  let run () =
    section ~id:"E10" ~title:"TLB shootdown: barrier sync at interrupt level"
      ~claim:
        "barrier synchronization at interrupt level is a costly operation \
         and is actively discouraged; cost grows with the number of \
         processors that must rendezvous (s.7)";
    let rows =
      List.map
        (fun p ->
          let per, intrs = cost p in
          [ i p; i per; i intrs ])
        [ 0; 1; 2; 4; 8; 15 ]
    in
    table
      ~header:[ "remote participants"; "cycles/shootdown"; "interrupts" ]
      rows
end

(* ================================================================== *)
(* E11: the interrupt-deadlock scenario (section 7)                    *)
(* ================================================================== *)

module E11 = struct
  let run () =
    section ~id:"E11" ~title:"inconsistent spl vs the same-spl rule"
      ~claim:
        "if a lock is held with interrupts enabled on one cpu and awaited \
         with interrupts disabled on another while a third starts barrier \
         synchronization, the system deadlocks; acquiring every lock at \
         the same interrupt priority prevents it (s.7)";
    let verdict disciplined =
      Explore.run ~cpus:3
        ~seeds:(List.init 50 (fun s -> s + 1))
        (Scenarios.interrupt_barrier_scenario ~disciplined)
    in
    let vb = verdict false and vd = verdict true in
    table
      ~header:[ "variant"; "schedules"; "completed"; "deadlocked" ]
      [
        verdict_row "inconsistent spl (buggy)" vb;
        verdict_row "same-spl rule (disciplined)" vd;
      ]
end

(* ================================================================== *)
(* E12: pmap/pv lock orders: arbiter lock vs backout (section 5)       *)
(* ================================================================== *)

module E12 = struct
  (* The reduced form of the section 5 conflict: forward workers need
     pmap-then-pv; reverse workers need pv-then-pmap.  The arbiter
     strategy runs forward under a read lock and reverse under a write
     lock on a third lock; the backout strategy has reverse workers lock
     pv, then make a single attempt on pmap, releasing and retrying on
     failure. *)
  let workload strategy cpus =
    let retries = ref 0 in
    let s =
      sim_run ~cpus (fun () ->
          let pmap_lock = K.Slock.make ~name:"pmap" () in
          let pv_lock = K.Slock.make ~name:"pv" () in
          let psys = K.Clock.make ~name:"psys" ~can_sleep:false () in
          let ops = 30 in
          let forward () =
            for _ = 1 to ops do
              (match strategy with
              | `Arbiter ->
                  K.Clock.lock_read psys;
                  K.Slock.lock pmap_lock;
                  K.Slock.lock pv_lock;
                  Engine.cycles 30;
                  K.Slock.unlock pv_lock;
                  K.Slock.unlock pmap_lock;
                  K.Clock.lock_done psys
              | `Backout ->
                  (* forward is the canonical order: no arbiter needed *)
                  K.Slock.lock pmap_lock;
                  K.Slock.lock pv_lock;
                  Engine.cycles 30;
                  K.Slock.unlock pv_lock;
                  K.Slock.unlock pmap_lock);
              Engine.cycles 100
            done
          in
          let reverse () =
            for _ = 1 to ops do
              (match strategy with
              | `Arbiter ->
                  K.Clock.lock_write psys;
                  K.Slock.lock pv_lock;
                  K.Slock.lock pmap_lock;
                  Engine.cycles 30;
                  K.Slock.unlock pmap_lock;
                  K.Slock.unlock pv_lock;
                  K.Clock.lock_done psys
              | `Backout ->
                  let rec attempt () =
                    K.Slock.lock pv_lock;
                    if K.Slock.try_lock pmap_lock then begin
                      Engine.cycles 30;
                      K.Slock.unlock pmap_lock;
                      K.Slock.unlock pv_lock
                    end
                    else begin
                      incr retries;
                      K.Slock.unlock pv_lock;
                      Engine.pause ();
                      attempt ()
                    end
                  in
                  attempt ());
              Engine.cycles 100
            done
          in
          let ts =
            List.init cpus (fun k ->
                Engine.spawn (if k mod 4 = 0 then reverse else forward))
          in
          List.iter Engine.join ts)
    in
    (s, !retries)

  let run () =
    section ~id:"E12" ~title:"two lock orders: arbiter lock vs backout"
      ~claim:
        "a third (pmap system) lock arbitrates between the pmap-then-pv \
         and pv-then-pmap orders; the backout protocol is the lighter \
         alternative that pays retries instead of a global read lock (s.5)";
    ignore
      (tabulate
         (point_cols "strategy"
         @ [
             col "makespan" int (fun p -> (fst p.res).Engine.makespan);
             col "backout-retries" int (fun p -> snd p.res);
           ])
         (grid ~sweep:[ 4; 8; 16 ]
            [ ("arbiter (pmap system lock)", `Arbiter); ("backout", `Backout) ]
            (fun strategy cpus -> Some (workload strategy cpus))))
end

(* ================================================================== *)
(* X1: the lock-free timing facility (section 2's exception)           *)
(* ================================================================== *)

module X1 = struct
  module Timer = Mach_kern.Timer

  (* Ticks happen on every context switch and interrupt: compare the
     lock-free single-writer timer against a lock-protected one. *)
  let tick_cost ~locked =
    let ticks = 200 in
    let s =
      sim_run ~cpus:2 (fun () ->
          if locked then begin
            let l = K.Slock.make ~name:"timer-lock" () in
            let total = ref 0 in
            let owner =
              Engine.spawn ~bound:0 (fun () ->
                  for _ = 1 to ticks do
                    K.Slock.lock l;
                    total := !total + 700;
                    K.Slock.unlock l
                  done)
            in
            Engine.join owner
          end
          else begin
            let t = Timer.create ~owner_cpu:0 () in
            let owner =
              Engine.spawn ~bound:0 (fun () ->
                  for _ = 1 to ticks do
                    Timer.tick t ~cycles:700
                  done)
            in
            Engine.join owner
          end)
    in
    s.Engine.makespan / ticks

  let read_contention readers =
    let s =
      sim_run ~cpus:(readers + 1) (fun () ->
          let t = Timer.create ~owner_cpu:0 () in
          let stop = Engine.Cell.make 0 in
          let rs =
            List.init readers (fun k ->
                Engine.spawn ~bound:(k + 1) (fun () ->
                    while Engine.Cell.get stop = 0 do
                      ignore (Timer.read t);
                      Engine.pause ()
                    done))
          in
          let owner =
            Engine.spawn ~bound:0 (fun () ->
                for _ = 1 to 100 do
                  Timer.tick t ~cycles:700;
                  Engine.pause ()
                done;
                Engine.Cell.set stop 1)
          in
          Engine.join owner;
          List.iter Engine.join rs)
    in
    (s.Engine.makespan / 100, s.Engine.bus_transactions)

  let run () =
    section ~id:"X1" ~title:"lock-free usage timers (extension experiment)"
      ~claim:
        "Mach's one exception to multiprocessor locking: timer data \
         structures use single-writer discipline + checked reads instead \
         of a lock, because ticks happen on every context switch (s.2)";
    table
      ~header:[ "variant"; "cycles/tick" ]
      [
        [ "lock-free (checked read protocol)"; i (tick_cost ~locked:false) ];
        [ "simple-lock protected"; i (tick_cost ~locked:true) ];
      ];
    printf "\nwriter ticking under concurrent checked readers:\n";
    let rows =
      List.map
        (fun readers ->
          let per, bus = read_contention readers in
          [ i readers; i per; i bus ])
        [ 0; 1; 3; 7 ]
    in
    table ~header:[ "readers"; "cycles/tick (writer)"; "bus-txns" ] rows
end

(* ================================================================== *)
(* E13: chaos fault injection: detection rate per fault class          *)
(* ================================================================== *)

module E13 = struct
  module Chaos = Mach_chaos.Chaos
  module Fault = Mach_chaos.Chaos_fault

  let seeds = 15

  let detected_by (s : Chaos.sweep) =
    match
      List.filter_map
        (fun (d, n) ->
          if n > 0 && Chaos.detected d then Some (Chaos.detection_name d)
          else None)
        s.Chaos.counts
    with
    | [] -> "-"
    | ds -> String.concat "+" ds

  let first_seed (s : Chaos.sweep) =
    match s.Chaos.first_failure with Some r -> r.Chaos.seed | None -> 0

  let cols =
    [
      col "scenario" str (fun (name, _, _) -> name);
      col "fault class" ~key:"fault" str (fun (_, cls, _) -> Fault.name cls);
      col "runs" int (fun (_, _, s) -> s.Chaos.runs);
      col "detection rate" ~key:"detection_rate" (real f2) (fun (_, _, s) ->
          Chaos.detection_rate s);
      col "detected by" ~key:"detected_by" str (fun (_, _, s) -> detected_by s);
      (* No detection prints "-" and writes 0. *)
      col "first seed" ~key:"seeds_to_first_detection"
        { int with show = (fun n -> if n = 0 then "-" else i n) }
        (fun (_, _, s) -> first_seed s);
    ]

  let run () =
    section ~id:"E13"
      ~title:"chaos fault injection: detection rate per fault class"
      ~claim:
        "seeded fault injection (lost/late/spurious wakeups, deferred \
         interrupts, schedule perturbation, forced preemption) drives the \
         hazards of sections 6-7 out of hiding, and the waits-for \
         detector names the cycle or the orphaned waiter";
    let rows =
      List.concat_map
        (fun (e : Scenarios.entry) ->
          List.map
            (fun cls ->
              ( e.name,
                cls,
                Chaos.sweep ~cpus:4 ~seeds
                  ~faults:(Fault.mix ~intensity:2 [ cls ])
                  e.run ))
            Fault.all)
        Chaos.scenarios
    in
    write_bench ~what:"detection table" "BENCH_chaos.json" "E13"
      (tabulate cols rows)
end

(* ================================================================== *)
(* E14: systematic schedule exploration (bounded DPOR model checking)  *)
(* ================================================================== *)

module E14 = struct
  module Mc = Mach_mc.Mc

  (* Each row is one (scenario, mode, bound) exploration.  Scenarios and
     budgets are sized so the whole experiment stays in CI smoke-test
     range on one core: the wakeup herd is explored under a preemption
     bound (its unbounded DPOR run — 38k schedules, VERIFIED — is
     recorded in EXPERIMENTS.md), and the naive baselines that would be
     intractable are capped and reported as incomplete. *)
  let cases =
    [
      (* scenario, cpus, mode, bound, max executions *)
      ("same-spl", 2, Mc.Naive, None, None);
      ("same-spl", 2, Mc.Dpor, None, None);
      ("same-spl-buggy", 2, Mc.Dpor, None, None);
      ("handoff", 2, Mc.Naive, None, Some 20_000);
      ("handoff", 2, Mc.Dpor, None, None);
      ("herd", 2, Mc.Dpor, Some 2, None);
      ("interrupt-deadlock", 3, Mc.Dpor, None, None);
      ("interrupt-disciplined", 3, Mc.Dpor, Some 1, None);
      ("interrupt-disciplined", 3, Mc.Dpor, Some 2, None);
    ]

  let verdict_of (r : Mc.result) =
    if r.Mc.verified then "verified"
    else
      match r.Mc.failure with
      | Some f ->
          Printf.sprintf "failure(%d transitions, %d preemptions)"
            (Array.length f.Mc.f_trace) f.Mc.f_preemptions
      | None -> "incomplete"

  type row = {
    sname : string;
    cpus : int;
    mode : Mc.mode;
    bound : int option;
    r : Mc.result;
    ms : float;
    ratio : float option;  (* executions over the naive baseline's *)
  }

  let cols =
    [
      col "scenario" str (fun x -> x.sname);
      col "cpus" int (fun x -> x.cpus);
      col "mode" str (fun x -> Mc.mode_name x.mode);
      col "bound"
        {
          show = Option.fold ~none:"-" ~some:i;
          json =
            Option.fold ~none:(Obs_json.String "unbounded") ~some:int.json;
        }
        (fun x -> x.bound);
      col "schedules" ~key:"executions" int (fun x ->
          x.r.Mc.stats.Mc.executions);
      col "pruned" int (fun x -> x.r.Mc.stats.Mc.pruned);
      json_only
        (col "transitions" int (fun x -> x.r.Mc.stats.Mc.transitions));
      json_only
        (col "complete"
           { show = string_of_bool; json = (fun b -> Obs_json.Bool b) }
           (fun x -> x.r.Mc.complete));
      (* Only a DPOR row after a complete naive one has a ratio; the
         others print "-" and leave the key out. *)
      {
        header = Some "vs naive";
        key = Some "reduction_vs_naive";
        text =
          (fun x ->
            Option.fold ~none:"-" ~some:(Printf.sprintf "%.4f") x.ratio);
        cell = (fun x -> Option.map (fun v -> Obs_json.Float v) x.ratio);
      };
      col "verdict" str (fun x -> verdict_of x.r);
      col "ms" ~key:"wall_ms" (real f1) (fun x -> x.ms);
      col "trans/s" ~key:"transitions_per_sec" (real f0) (fun x ->
          float_of_int x.r.Mc.stats.Mc.transitions
          /. Float.max 1e-6 (x.ms /. 1000.));
    ]

  let run () =
    section ~id:"E14"
      ~title:"systematic schedule exploration (bounded DPOR model checking)"
      ~claim:
        "the section 6 event-wait protocol and the section 7 same-spl \
         rule hold over EVERY schedule of small scenarios, the section 7 \
         deadlocks are found without fault injection with minimal \
         replayable counterexamples, and DPOR makes exhaustive search \
         tractable where naive enumeration is not";
    (* naive execution counts per (scenario, cpus), for reduction ratios *)
    let naive_execs = ref [] in
    let rows =
      List.map
        (fun (sname, cpus, mode, bound, max_executions) ->
          let t0 = Unix.gettimeofday () in
          let r =
            Mc.check ~cpus ~mode ?bound ?max_executions
              (Scenarios.get sname).run
          in
          let ms = (Unix.gettimeofday () -. t0) *. 1000. in
          let execs = r.Mc.stats.Mc.executions in
          if mode = Mc.Naive && r.Mc.complete then
            naive_execs := ((sname, cpus), execs) :: !naive_execs;
          let ratio =
            match List.assoc_opt (sname, cpus) !naive_execs with
            | Some n when mode = Mc.Dpor && n > 0 ->
                Some (float_of_int execs /. float_of_int n)
            | _ -> None
          in
          { sname; cpus; mode; bound; r; ms; ratio })
        cases
    in
    write_bench ~what:"exploration table" "BENCH_mc.json" "E14"
      (tabulate cols rows)
end

(* ================================================================== *)
(* E15: queue locks at scale: ttas -> ticket/MCS crossover              *)
(* ================================================================== *)

module E15 = struct
  module Lock_proto = Mach_core.Lock_proto

  (* E1's contention workload pushed to 64 cpus and extended with the
     lib/locks queue protocols.  Fewer iterations than E1 so the 64-cpu
     rows stay in smoke-test range; the contention level per acquire is
     what matters, not the total operation count. *)
  let sweep = [ 2; 8; 16; 32; 64 ]
  let iters = 12

  let protos =
    List.map
      (fun (name, p) -> (name, fun () -> K.Slock.make ~name:"l" ~protocol:p ()))
      protocols
    @ List.map
        (fun f ->
          (Lock_proto.name f, fun () -> K.Slock.make ~name:"l" ~proto:f ()))
        K.Locks.all

  (* Read-mostly workload (~5% writes): big-reader lock vs the complex
     readers/writer lock vs a plain ttas mutex. *)
  let rw_ops = 20

  let read_mostly impl cpus =
    sim_run ~cpus (fun () ->
        let d = Engine.Cell.make 0 in
        let read () =
          ignore (Engine.Cell.get d);
          Engine.cycles 10
        in
        let write () = ignore (Engine.Cell.fetch_and_add d 1) in
        let run_ops do_read do_write w () =
          for op = 1 to rw_ops do
            if (op + w) mod rw_ops = 0 then do_write () else do_read ()
          done
        in
        let worker =
          match impl with
          | `Brlock ->
              let l = K.Locks.Brlock.make ~name:"br" in
              run_ops
                (fun () -> K.Locks.Brlock.with_read l read)
                (fun () -> K.Locks.Brlock.with_write l write)
          | `Clock ->
              let l = K.Clock.make ~name:"rw" ~can_sleep:false () in
              run_ops
                (fun () ->
                  K.Clock.lock_read l;
                  read ();
                  K.Clock.lock_done l)
                (fun () ->
                  K.Clock.lock_write l;
                  write ();
                  K.Clock.lock_done l)
          | `Ttas ->
              let l = K.Slock.make ~name:"m" ~protocol:Spin.Ttas () in
              run_ops
                (fun () ->
                  K.Slock.lock l;
                  read ();
                  K.Slock.unlock l)
                (fun () ->
                  K.Slock.lock l;
                  write ();
                  K.Slock.unlock l)
        in
        let ts = List.init cpus (fun w -> Engine.spawn (worker w)) in
        List.iter Engine.join ts)

  let run () =
    section ~id:"E15" ~title:"queue locks at scale: the ttas crossover"
      ~claim:
        "spinning on a remote flag costs bus bandwidth proportional to \
         waiters; queue locks (ticket with proportional backoff, MCS, \
         Anderson) spin locally and hand off explicitly, so past a \
         crossover cpu count they beat ttas on both bus traffic and \
         makespan; a big-reader lock makes read-mostly data near-free to \
         read (s.2)";
    let mutex =
      grid ~sweep protos (fun mk cpus ->
          Some
            (sim_run ~cpus (fun () ->
                 Scenarios.contention ~lock:(mk ()) ~iters ())))
    in
    let mutex_json = tabulate E1.cols mutex in
    (* Crossover: smallest cpu count at which a queue protocol beats ttas
       on makespan AND bus traffic, and stays ahead for the rest of the
       sweep. *)
    let beats name cpus =
      let s = Option.get (find mutex name cpus) in
      let t = Option.get (find mutex "ttas" cpus) in
      s.Engine.makespan < t.Engine.makespan
      && s.Engine.bus_transactions < t.Engine.bus_transactions
    in
    printf "\ncrossover vs ttas (beats on makespan AND bus-txns from here up):\n";
    let crossover_json =
      tabulate
        [
          col "protocol" str Fun.id;
          json_only (col "vs" str (fun _ -> "ttas"));
          col "crossover-cpus" ~key:"crossover_cpus" (opt int) (fun n ->
              crossover ~beats:(beats n) sweep);
        ]
        (List.map Lock_proto.name K.Locks.all)
    in
    printf "\nread-mostly (%d%% writes):\n" (100 / rw_ops);
    let rw =
      grid ~sweep
        [ ("brlock", `Brlock); ("complex-rw", `Clock); ("ttas-mutex", `Ttas) ]
        (fun impl cpus -> Some (read_mostly impl cpus))
    in
    let rw_json =
      tabulate (point_cols "impl" @ stats_cols @ [ json_only misses_col ]) rw
    in
    write_bench ~what:"lock-suite tables" "BENCH_locks.json" "E15"
      (Obs_json.Obj
         [
           ("mutex", mutex_json);
           ("read_mostly", rw_json);
           ("crossover", crossover_json);
         ])
end

(* ================================================================== *)
(* E16 and E19: one storm swept over its lock disciplines              *)
(* ================================================================== *)

(* The storm's table, each discipline's speedup over [base] (as
   (discipline, header, key)), and the smallest cpu count from which
   [lead] beats [base] and stays ahead for the rest of the sweep
   ([rival] names [base] in that verdict), all written to [file]. *)
let storm_sweep ~id ~file ~what ~speedup_title ~base ~speedups ~lead ~rival
    disciplines run =
  let sweep = [ 2; 8; 16; 32; 64 ] and makespan s = s.Engine.makespan in
  let storm = grid ~sweep disciplines (fun l cpus -> Some (run l cpus)) in
  let storm_json = tabulate (point_cols "locking" @ stats_cols) storm in
  printf "\n%s (makespan ratio):\n" speedup_title;
  let speedup_json = speedup_table ~makespan storm ~sweep ~base speedups in
  let beats c = speedup ~makespan storm ~base lead c > Some 1.0 in
  let crossover = crossover ~beats sweep in
  (match crossover with
  | Some c -> printf "%s beats %s from %d cpus up\n" lead rival c
  | None -> printf "%s never beats %s in this sweep\n" lead rival);
  write_bench ~what file id
    (Obs_json.Obj
       [
         ("storm", storm_json);
         ("speedup", speedup_json);
         ("crossover_cpus", (opt int).json crossover);
       ])

(* ================================================================== *)
(* E16: range locks over the VM map: fault storms at scale              *)
(* ================================================================== *)

module E16 = struct
  (* Each thread owns a disjoint slice of one map and repeatedly
     allocates, faults and deallocates it (Bench_util.vm_storm).  Under
     the coarse discipline every operation takes the one map lock, so the
     storm serializes no matter how disjoint the addresses; under range
     locking only overlapping requests conflict. *)
  let run () =
    section ~id:"E16" ~title:"range locks over the VM map: fault storms"
      ~claim:
        "a map-wide lock serializes every allocation, fault and \
         deallocation no matter how disjoint their addresses; a \
         list-based range lock admits all non-overlapping operations at \
         once, so a many-thread fault storm across a large address space \
         scales with cpus instead of collapsing onto the one lock (s.4)";
    storm_sweep ~id:"E16" ~file:"BENCH_vm.json" ~what:"vm-map tables"
      ~speedup_title:"range-lock speedup over the coarse map lock"
      ~base:"coarse"
      ~speedups:[ ("range", "coarse/range", "range_speedup") ]
      ~lead:"range" ~rival:"coarse"
      (List.map
         (fun l -> (Vm.Vm_map.locking_name l, l))
         [ Vm.Vm_map.Coarse; Vm.Vm_map.Range ])
      vm_storm
end

(* ================================================================== *)
(* E18: causal observability: blockers, critical path, flight recorder *)
(* ================================================================== *)

module E18 = struct
  module Obs_span = Mach_obs.Obs_span
  module Obs_cp = Mach_obs.Obs_critical_path

  (* Three workload shapes with different causal structure: E1's
     single-lock hammer (lock spans dominate), E13's event handoff
     (event-wait spans), and E15's 64-cpu ttas point (the scale the
     acceptance run uses). *)
  let contention ~iters () =
    Scenarios.contention
      ~lock:(K.Slock.make ~name:"contended" ~protocol:Spin.Ttas ())
      ~iters ()

  (* The handoff row runs under the random policy (as E13's chaos sweeps
     do): under Timed the consumer is dispatched after the producer's
     wakeup and never sleeps, so there would be no event span to
     attribute.  The rpc row exercises the ipc and event span kinds. *)
  let timed = Fun.id
  let random cfg = { cfg with Config.policy = Config.Random_policy; seed = 1 }

  let rpc () =
    let kernel = Kernel.start ~pages:64 () in
    Scenarios.null_rpc_workload kernel ~clients:4 ~calls_each:10;
    Kernel.shutdown kernel

  let workloads =
    [
      ("e1-ttas-16cpu", 16, timed, contention ~iters:30);
      ("e13-handoff-4cpu", 4, random, Scenarios.lost_wakeup_handoff);
      ("e15-ttas-64cpu", 64, timed, contention ~iters:12);
      ("rpc-4cpu", 4, timed, rpc);
    ]

  type row = {
    wname : string;
    cpus : int;
    makespan : int;
    view : Obs_span.view;
    cp : Obs_cp.t;
  }

  let total f l = List.fold_left (fun acc x -> acc + f x) 0 l

  let dominant r =
    match Obs_cp.dominant r.cp with
    | Some a -> (a.Obs_cp.cls, a.Obs_cp.fraction)
    | None -> ("-", 0.)

  (* The table sums up each workload; its JSON object (an entry of the
     E18 section of BENCH_observability.json) holds the whole span view
     and critical path. *)
  let cols =
    let whole = { show = Obs_json.to_string; json = Fun.id } in
    let sites r = r.view.Obs_span.v_sites in
    [
      table_only (col "workload" str (fun r -> r.wname));
      col "cpus" int (fun r -> r.cpus);
      json_only (col "makespan" int (fun r -> r.makespan));
      table_only
        (col "spans" int (fun r ->
             total (fun s -> s.Obs_span.s_spans) (sites r)));
      json_only (col "spans" whole (fun r -> Obs_span.to_json r.view));
      table_only
        (col "blocked" int (fun r ->
             total (fun s -> s.Obs_span.s_blocked) (sites r)));
      table_only (col "dominant class" str (fun r -> fst (dominant r)));
      table_only (col "cp-fraction" (real f2) (fun r -> snd (dominant r)));
      table_only (col "residual" (real f2) (fun r -> r.cp.Obs_cp.residual));
      table_only
        (col "flight" int (fun r ->
             total (fun (_, l) -> List.length l) r.view.Obs_span.v_flight));
      json_only (col "critical_path" whole (fun r -> Obs_cp.to_json r.cp));
    ]

  let run () =
    section ~id:"E18" ~title:"causal observability: who blocks whom, and why"
      ~claim:
        "span-level blocked-by attribution and offline critical-path \
         analysis explain the measured slowdowns of E1/E15 (lock waits \
         on the makespan's path) and E13's handoff latency (event waits) \
         without perturbing the schedule — spans on is byte-identical to \
         spans off";
    let rows =
      List.map
        (fun (wname, cpus, policy_tweak, workload) ->
          let stats =
            sim_run ~cpus
              ~tweak:(fun cfg ->
                policy_tweak
                  { cfg with Config.trace = true; track_waits = true })
              workload
          in
          let view =
            match Obs_span.last () with
            | Some v -> v
            | None -> Obs_span.empty_view
          in
          let evs =
            List.map
              (fun (e : Mach_sim.Sim_trace.event) ->
                {
                  Obs_cp.cp_clock = e.Mach_sim.Sim_trace.clock;
                  cp_ev = e.Mach_sim.Sim_trace.ev;
                })
              (Engine.trace_events ())
          in
          let makespan = stats.Engine.makespan in
          { wname; cpus; makespan; view; cp = Obs_cp.compute ~makespan evs })
        workloads
    in
    ignore (tabulate cols rows);
    List.iter (fun r -> obs_add_json r.wname (json_obj cols r)) rows
end

(* ================================================================== *)

(* ================================================================== *)
(* E19: scache page cache: read-mostly lookup storm                     *)
(* ================================================================== *)

module E19 = struct
  (* Read-mostly page lookups against one vm_cache (Bench_util.cache_storm)
     under three index locks: the scache per-cpu refcount RW lock, the
     brlock, and a flat mutex (every lookup takes the one simple lock —
     the baseline the scache protocol exists to beat).  Writes (evict +
     refill) are rare and staggered so the workload matches the cache's
     design point: under the RW disciplines readers share the lock,
     under the mutex they convoy. *)
  let run () =
    section ~id:"E19" ~title:"scache page cache: read-mostly lookup storm"
      ~claim:
        "a page-cache index behind one mutex convoys every lookup; the \
         scache protocol counts readers in per-cpu refcount slots so \
         read-mostly lookups proceed in parallel, and the write-side \
         sweep only charges the rare evict/fill (s.5)";
    storm_sweep ~id:"E19" ~file:"BENCH_cache.json" ~what:"page-cache tables"
      ~speedup_title:"read-throughput speedup over the mutex cache"
      ~base:"mutex"
      ~speedups:
        [
          ("scache", "mutex/scache", "scache_speedup");
          ("brlock", "mutex/brlock", "brlock_speedup");
        ]
      ~lead:"scache" ~rival:"the mutex cache"
      [
        ("scache", Vm.Vm_cache.Scache);
        ("brlock", Vm.Vm_cache.Brlock_rw);
        ("mutex", Vm.Vm_cache.Mutex);
      ]
      cache_storm
end

(* ================================================================== *)
(* E20: RPC serving over ports: batching + a sharded name space        *)
(* ================================================================== *)

module E20 = struct
  (* The first end-to-end workload number (ROADMAP item 3): client cpus
     hammer port-based echo servers through the MiG stubs and the full
     section 10 reference protocol — per-request name lookup, port-right
     translation, refcount take/drop, dispatch, reply, and (in the drain
     leg) clean shutdown under load.  Two throughput mechanisms are
     swept against the flat baseline: batching (the server dequeues up
     to k requests per port-lock acquisition) and a sharded port name
     space (names hashed over S translation tables, each under its own
     lock, in place of the single global table).  Bench_util.rpc_serve
     runs one point. *)

  let sweep = [ 2; 8; 16; 32; 64 ]

  (* (label, (shards, batch)) *)
  let configs =
    [
      ("flat", (1, 1));
      ("sharded", (8, 1));
      ("batched", (1, 8));
      ("sh+batch", (8, 8));
    ]

  let calls_each = 16
  let cpus_col : rpc point column = col "cpus" int (fun p -> p.cpus)

  (* The columns of one run; a sweep row adds its config. *)
  let res_cols =
    [
      col "rpcs" ~key:"served" int (fun p -> p.res.served);
      json_only (col "drained" int (fun p -> p.res.drained));
      col "makespan" int (fun p -> p.res.makespan);
      col "RPCs/sec" ~key:"rpcs_per_sec" (real f0) (fun p -> p.res.rps);
      col "p50-cyc" ~key:"p50_cycles" int (fun p -> p.res.p50);
      col "p99-cyc" ~key:"p99_cycles" int (fun p -> p.res.p99);
    ]

  let sweep_cols =
    cpus_col
    :: col "config" str (fun p -> p.name)
    :: json_only (col "shards" int (fun p -> fst (List.assoc p.name configs)))
    :: json_only (col "batch" int (fun p -> snd (List.assoc p.name configs)))
    :: res_cols

  let run () =
    rpc_failures := 0;
    section ~id:"E20" ~title:"RPC serving: batching + sharded port name space"
      ~claim:
        "the section 10 reference protocol (translate, take/drop, \
         dispatch, reply) serves sustained RPC traffic; batched dequeue \
         amortizes the port-lock hold and a sharded name space removes \
         the global translation-table lock from the hot path, so \
         throughput scales with client cpus instead of convoying \
         (Elphinstone et al.: IPC throughput is where lock granularity \
         pays off or collapses)";
    let runs =
      grid ~sweep configs (fun (shards, batch) cpus ->
          rpc_serve ~cpus ~shards ~batch ~calls_each ())
    in
    let sweep_json = tabulate sweep_cols runs in
    printf "\nthroughput speedup over flat batch=1 (makespan ratio):\n";
    let speedup_json =
      speedup_table ~makespan:(fun r -> r.makespan) runs ~sweep ~base:"flat"
        [
          ("sharded", "sharded", "sharded_speedup");
          ("batched", "batched", "batched_speedup");
          ("sh+batch", "sh+batch", "sharded_batched_speedup");
        ]
    in
    (* The headline sustained leg: a longer sharded+batched run at the
       top of the sweep. *)
    let sus_cpus = 64 and drain_cpus = 16 in
    let sustained =
      rpc_serve ~cpus:sus_cpus ~shards:8 ~batch:8 ~calls_each:256 ()
    in
    (match sustained with
    | Some r ->
        printf
          "\nsustained: %d RPCs in %d cycles = %s RPCs/sec at a nominal 1 \
           GHz (sharded+batched, %d cpus)\n"
          r.served r.makespan (f0 r.rps) sus_cpus;
        printf "sustained p99 latency: %d cycles (p50 %d)\n" r.p99 r.p50
    | None -> printf "\nsustained leg FAILED\n");
    (* Shutdown under load: servers terminated mid-traffic must answer
       every in-flight request (err_deactivated) and leak nothing — the
       scenario panics on a §4 double-free or a leaked reference, so a
       Completed outcome IS the clean-drain verdict. *)
    let drain =
      rpc_serve ~drain:true ~cpus:drain_cpus ~shards:4 ~batch:4 ~calls_each ()
    in
    (match drain with
    | Some r ->
        printf
          "shutdown drain: clean (%d cpus: %d served, %d in-flight answered \
           err_deactivated, all references balanced)\n"
          drain_cpus r.served r.drained
    | None -> printf "shutdown drain: FAILED\n");
    printf "refcount panics: %d\n" !rpc_failures;
    let leg name cpus =
      Option.fold ~none:Obs_json.Null ~some:(fun res ->
          json_obj (cpus_col :: res_cols) { name; cpus; res })
    in
    write_bench ~what:"rpc tables" "BENCH_rpc.json" "E20"
      (Obs_json.Obj
         [
           ("sweep", sweep_json);
           ("speedup", speedup_json);
           ("sustained", leg "sh+batch" sus_cpus sustained);
           ("drain", leg "drain" drain_cpus drain);
           ("refcount_panics", Obs_json.Int !rpc_failures);
         ])
end

let experiments =
  [
    ("N0", N0.run);
    ("E1", E1.run);
    ("E2", E2.run);
    ("E3", E3.run);
    ("E4", E4.run);
    ("E5", E5.run);
    ("E6", E6.run);
    ("E7", E7.run);
    ("E8", E8.run);
    ("E9", E9.run);
    ("E10", E10.run);
    ("E11", E11.run);
    ("E12", E12.run);
    ("E13", E13.run);
    ("E14", E14.run);
    ("E15", E15.run);
    ("E16", E16.run);
    ("E18", E18.run);
    ("E19", E19.run);
    ("E20", E20.run);
    ("X1", X1.run);
  ]

(* A run replaces the sections of the experiments it ran and keeps the
   others, in the order of [experiments]. *)
let obs_path = "BENCH_observability.json"

(* A section as it reads back from the file: a kept section is printed
   from its parsed form, so a fresh one is too, and a section prints byte
   for byte alike whichever run wrote it. *)
let reread j = Result.get_ok (Obs_json.of_string (Obs_json.to_string j))

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst experiments
  in
  let sections =
    let refuse why =
      Printf.eprintf "%s: %s (fix or delete the file)\n" obs_path why;
      exit 1
    in
    if not (Sys.file_exists obs_path) then ref []
    else
      match
        Obs_json.of_string
          (In_channel.with_open_text obs_path In_channel.input_all)
      with
      | Ok (Obs_json.Obj kept) -> ref kept
      | Ok _ -> refuse "not a JSON object"
      | Error e -> refuse e
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some run ->
          obs_reset ();
          run ();
          obs_section ~id ();
          sections :=
            (id, reread (obs_json ())) :: List.remove_assoc id !sections
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" id
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested;
  write_json ~what:"per-experiment observability" obs_path
    (Obs_json.Obj
       (List.filter_map
          (fun (id, _) ->
            Option.map (fun j -> (id, j)) (List.assoc_opt id !sections))
          experiments));
  Printf.printf "All requested experiments completed.\n"
