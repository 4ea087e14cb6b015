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
        let lock = K.Slock.make ~name:"l" ~protocol () in
        let data = Array.init 4 (fun _ -> Engine.Cell.make 0) in
        let worker () =
          for _ = 1 to 30 do
            K.Slock.lock lock;
            Array.iter (fun d -> ignore (Engine.Cell.fetch_and_add d 1)) data;
            Engine.cycles 20;
            K.Slock.unlock lock
          done
        in
        let ts = List.init cpus (fun _ -> Engine.spawn worker) in
        List.iter Engine.join ts)

  let tuned_cap = 128

  let run () =
    section ~id:"E1" ~title:"spin protocols under contention (sim cycles)"
      ~claim:
        "test-and-test-and-set avoids cache misses while spinning; plain \
         test-and-set wastes bus bandwidth and slows everyone down (s.2)";
    let row ?cap name p cpus =
      let s = workload ?cap p cpus in
      [
        i cpus;
        name;
        i s.Engine.makespan;
        i s.Engine.bus_transactions;
        i s.Engine.atomic_ops;
        i s.Engine.cache_misses;
      ]
    in
    let rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun p -> row (Spin.protocol_name p) p cpus)
            Spin.all_protocols
          @ [
              (* Backoff cap tuned to the workload: at 128 cycles — a
                 fraction of the ~500-cycle lock hold — waiters re-probe
                 a few times per hold instead of sleeping through whole
                 release windows as the generic 1024-cycle cap does. *)
              row ~cap:tuned_cap
                (Printf.sprintf "ttas-backoff(cap=%d)" tuned_cap)
                Spin.Ttas_backoff cpus;
            ])
        cpu_sweep
    in
    table
      ~header:
        [ "cpus"; "protocol"; "makespan"; "bus-txns"; "atomics"; "misses" ]
      rows
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
    let rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun p ->
              let s, st = workload p cpus in
              [
                i cpus;
                Spin.protocol_name p;
                i s.Engine.makespan;
                f2 (Stats.first_attempt_rate st);
                i (Stats.total_spins st);
              ])
            Spin.all_protocols)
        [ 2; 8 ]
    in
    table
      ~header:[ "cpus"; "protocol"; "makespan"; "first-attempt"; "spins" ]
      rows
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
    let rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun g ->
              let ops = cpus * 30 in
              let s =
                sim_run ~cpus (fun () ->
                    Scenarios.object_ops_workload g ~objects:16 ~workers:cpus
                      ~ops_per_worker:30)
              in
              let throughput =
                float_of_int ops *. 1000. /. float_of_int s.Engine.makespan
              in
              [
                i cpus;
                Scenarios.granularity_name g;
                i ops;
                i s.Engine.makespan;
                f2 throughput;
              ])
            [ Scenarios.Coarse; Scenarios.Fine; Scenarios.Master_funnel ])
        cpu_sweep
    in
    table
      ~header:[ "cpus"; "granularity"; "total-ops"; "makespan"; "ops/kcycle" ]
      rows
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
    let rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun use_upgrade ->
              let s, failed = workload ~use_upgrade cpus in
              [
                i cpus;
                (if use_upgrade then "upgrade" else "write+downgrade");
                i s.Engine.makespan;
                i failed;
              ])
            [ true; false ])
        [ 2; 4; 8 ]
    in
    table ~header:[ "cpus"; "strategy"; "makespan"; "failed-upgrades" ] rows
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

  let pageable_scenario ~use_recursive () =
    let ctx = Vm.Vm_map.make_context ~pages:4 () in
    let map = Vm.Vm_map.create ctx in
    let reclaimable = Vm.Vm_map.vm_allocate map ~size:3 in
    for idx = 0 to 2 do
      match Vm.Vm_fault.fault map ~va:(reclaimable + idx) with
      | Ok _ -> ()
      | Error _ -> Engine.fatal "populate failed"
    done;
    let wired_va = Vm.Vm_map.vm_allocate map ~size:3 in
    let daemon = Vm.Vm_pageout.start_daemon ~victims:[ map ] in
    let wire =
      if use_recursive then Vm.Vm_pageable.wire_recursive
      else Vm.Vm_pageable.wire_rewritten
    in
    (match wire map ~va:wired_va ~pages:3 with
    | Ok () -> ()
    | Error _ -> Engine.fatal "wire failed");
    Vm.Vm_pageout.stop_daemon daemon;
    Vm.Vm_map.release map

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
        (pageable_scenario ~use_recursive)
    in
    let vr = verdict ~use_recursive:true in
    let vw = verdict ~use_recursive:false in
    table
      ~header:[ "implementation"; "schedules"; "completed"; "deadlocked" ]
      [
        [
          "recursive (paper's original)";
          i vr.Explore.seeds_run;
          i vr.Explore.completed;
          i (vr.Explore.sleep_deadlocks + vr.Explore.spin_deadlocks);
        ];
        [
          "rewritten (Mach 3.0, s.7.1)";
          i vw.Explore.seeds_run;
          i vw.Explore.completed;
          i (vw.Explore.sleep_deadlocks + vw.Explore.spin_deadlocks);
        ];
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
  let shootdown_cost participants =
    let removals = 10 in
    let s =
      sim_run ~cpus:(participants + 1) (fun () ->
          let pm = Vm.Pmap.create () in
          (* victims: threads on other cpus spinning at spl0, pmap active *)
          let stop = Engine.Cell.make 0 in
          let victims =
            List.init participants (fun k ->
                let cpu = k + 1 in
                Engine.spawn ~name:(Printf.sprintf "victim%d" cpu) ~bound:cpu
                  (fun () ->
                    Vm.Pmap.activate pm ~cpu;
                    Engine.spin_hint "stop";
                    while Engine.Cell.get stop = 0 do
                      Engine.pause ()
                    done))
          in
          (* the initiator is pinned to cpu0 so it cannot occupy (and
             starve) a victim's cpu while busy-waiting *)
          let initiator =
            Engine.spawn ~name:"initiator" ~bound:0 (fun () ->
                for j = 0 to removals - 1 do
                  Vm.Pmap.enter pm ~va:(0x1000 + j) ~ppn:j
                    ~prot:Vm.Tlb.Read_write
                done;
                Engine.spin_hint "activation";
                while List.length (Vm.Pmap.active_cpus pm) < participants do
                  Engine.pause ()
                done;
                for j = 0 to removals - 1 do
                  ignore (Vm.Pmap.remove pm ~va:(0x1000 + j))
                done;
                Engine.Cell.set stop 1)
          in
          Engine.join initiator;
          List.iter Engine.join victims)
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
          let per, intrs = shootdown_cost p in
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
        [
          "inconsistent spl (buggy)";
          i vb.Explore.seeds_run;
          i vb.Explore.completed;
          i (vb.Explore.sleep_deadlocks + vb.Explore.spin_deadlocks);
        ];
        [
          "same-spl rule (disciplined)";
          i vd.Explore.seeds_run;
          i vd.Explore.completed;
          i (vd.Explore.sleep_deadlocks + vd.Explore.spin_deadlocks);
        ];
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
    let rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun (name, strategy) ->
              let s, retries = workload strategy cpus in
              [ i cpus; name; i s.Engine.makespan; i retries ])
            [ ("arbiter (pmap system lock)", `Arbiter); ("backout", `Backout) ])
        [ 4; 8; 16 ]
    in
    table ~header:[ "cpus"; "strategy"; "makespan"; "backout-retries" ] rows
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
  module Cs = Mach_chaos.Chaos_scenarios

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

  let run () =
    section ~id:"E13"
      ~title:"chaos fault injection: detection rate per fault class"
      ~claim:
        "seeded fault injection (lost/late/spurious wakeups, deferred \
         interrupts, schedule perturbation, forced preemption) drives the \
         hazards of sections 6-7 out of hiding, and the waits-for \
         detector names the cycle or the orphaned waiter";
    let rows = ref [] and json = ref [] in
    List.iter
      (fun (sname, scenario) ->
        List.iter
          (fun cls ->
            let s =
              Chaos.sweep ~cpus:4 ~seeds
                ~faults:(Fault.mix ~intensity:2 [ cls ])
                scenario
            in
            let first =
              match s.Chaos.first_failure with
              | Some r -> r.Chaos.seed
              | None -> 0
            in
            rows :=
              [
                sname;
                Fault.name cls;
                i s.Chaos.runs;
                f2 (Chaos.detection_rate s);
                detected_by s;
                (if first = 0 then "-" else i first);
              ]
              :: !rows;
            json :=
              Obs_json.Obj
                [
                  ("scenario", Obs_json.String sname);
                  ("fault", Obs_json.String (Fault.name cls));
                  ("runs", Obs_json.Int s.Chaos.runs);
                  ("detection_rate", Obs_json.Float (Chaos.detection_rate s));
                  ("detected_by", Obs_json.String (detected_by s));
                  ("seeds_to_first_detection", Obs_json.Int first);
                ]
              :: !json)
          Fault.all)
      Cs.all;
    table
      ~header:
        [
          "scenario";
          "fault class";
          "runs";
          "detection rate";
          "detected by";
          "first seed";
        ]
      (List.rev !rows);
    let out = "BENCH_chaos.json" in
    let oc = open_out out in
    output_string oc
      (Obs_json.to_string (Obs_json.Obj [ ("E13", Obs_json.List (List.rev !json)) ]));
    output_char oc '\n';
    close_out oc;
    printf "\ndetection table written to %s\n" out
end

(* ================================================================== *)
(* E14: systematic schedule exploration (bounded DPOR model checking)  *)
(* ================================================================== *)

module E14 = struct
  module Mc = Mach_mc.Mc
  module Cs = Mach_chaos.Chaos_scenarios

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

  let scenario_fn = function
    | "same-spl" -> Scenarios.same_spl_holder ~disciplined:true
    | "same-spl-buggy" -> Scenarios.same_spl_holder ~disciplined:false
    | "handoff" -> Cs.lost_wakeup_handoff
    | "herd" -> fun () -> Cs.wakeup_herd ~sleepers:2 ()
    | "interrupt-deadlock" ->
        Scenarios.interrupt_barrier_scenario ~disciplined:false
    | "interrupt-disciplined" ->
        Scenarios.interrupt_barrier_scenario ~disciplined:true
    | s -> failwith ("unknown mc scenario " ^ s)

  let verdict_of (r : Mc.result) =
    if r.Mc.verified then "verified"
    else
      match r.Mc.failure with
      | Some f ->
          Printf.sprintf "failure(%d transitions, %d preemptions)"
            (Array.length f.Mc.f_trace) f.Mc.f_preemptions
      | None -> "incomplete"

  let run () =
    section ~id:"E14"
      ~title:"systematic schedule exploration (bounded DPOR model checking)"
      ~claim:
        "the section 6 event-wait protocol and the section 7 same-spl \
         rule hold over EVERY schedule of small scenarios, the section 7 \
         deadlocks are found without fault injection with minimal \
         replayable counterexamples, and DPOR makes exhaustive search \
         tractable where naive enumeration is not";
    let rows = ref [] and json = ref [] in
    (* naive execution counts per (scenario, cpus), for reduction ratios *)
    let naive_execs = Hashtbl.create 8 in
    List.iter
      (fun (sname, cpus, mode, bound, max_executions) ->
        let t0 = Unix.gettimeofday () in
        let r =
          Mc.check ~cpus ~mode ?bound ?max_executions (scenario_fn sname)
        in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        let execs = r.Mc.stats.Mc.executions in
        let transitions = r.Mc.stats.Mc.transitions in
        let per_sec = float_of_int transitions /. Float.max 1e-6 (ms /. 1000.) in
        if mode = Mc.Naive && r.Mc.complete then
          Hashtbl.replace naive_execs (sname, cpus) execs;
        let ratio =
          if mode = Mc.Dpor then
            match Hashtbl.find_opt naive_execs (sname, cpus) with
            | Some n when n > 0 -> Some (float_of_int execs /. float_of_int n)
            | _ -> None
          else None
        in
        let bound_s =
          match bound with None -> "-" | Some b -> string_of_int b
        in
        rows :=
          [
            sname;
            i cpus;
            Mc.mode_name mode;
            bound_s;
            i execs;
            i r.Mc.stats.Mc.pruned;
            (match ratio with None -> "-" | Some x -> Printf.sprintf "%.4f" x);
            verdict_of r;
            f1 ms;
            Printf.sprintf "%.0f" per_sec;
          ]
          :: !rows;
        json :=
          Obs_json.Obj
            ([
               ("scenario", Obs_json.String sname);
               ("cpus", Obs_json.Int cpus);
               ("mode", Obs_json.String (Mc.mode_name mode));
               ( "bound",
                 match bound with
                 | None -> Obs_json.String "unbounded"
                 | Some b -> Obs_json.Int b );
               ("executions", Obs_json.Int execs);
               ("pruned", Obs_json.Int r.Mc.stats.Mc.pruned);
               ("transitions", Obs_json.Int transitions);
               ("complete", Obs_json.Bool r.Mc.complete);
               ("verdict", Obs_json.String (verdict_of r));
               ("wall_ms", Obs_json.Float ms);
               ("transitions_per_sec", Obs_json.Float per_sec);
             ]
            @ (match ratio with
              | None -> []
              | Some x -> [ ("reduction_vs_naive", Obs_json.Float x) ]))
          :: !json)
      cases;
    table
      ~header:
        [
          "scenario";
          "cpus";
          "mode";
          "bound";
          "schedules";
          "pruned";
          "vs naive";
          "verdict";
          "ms";
          "trans/s";
        ]
      (List.rev !rows);
    let out = "BENCH_mc.json" in
    let oc = open_out out in
    output_string oc
      (Obs_json.to_string
         (Obs_json.Obj [ ("E14", Obs_json.List (List.rev !json)) ]));
    output_char oc '\n';
    close_out oc;
    printf "\nexploration table written to %s\n" out
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

  let mutex_workload mk cpus =
    sim_run ~cpus (fun () ->
        let lock = mk () in
        let data = Array.init 4 (fun _ -> Engine.Cell.make 0) in
        let worker () =
          for _ = 1 to iters do
            K.Slock.lock lock;
            Array.iter (fun d -> ignore (Engine.Cell.fetch_and_add d 1)) data;
            Engine.cycles 20;
            K.Slock.unlock lock
          done
        in
        let ts = List.init cpus (fun _ -> Engine.spawn worker) in
        List.iter Engine.join ts)

  let protos =
    List.map
      (fun p ->
        ( Spin.protocol_name p,
          fun () -> K.Slock.make ~name:"l" ~protocol:p () ))
      Spin.all_protocols
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
    let tbl = Hashtbl.create 64 in
    let mutex_rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun (name, mk) ->
              let s = mutex_workload mk cpus in
              Hashtbl.replace tbl (name, cpus) s;
              [
                i cpus;
                name;
                i s.Engine.makespan;
                i s.Engine.bus_transactions;
                i s.Engine.atomic_ops;
                i s.Engine.cache_misses;
              ])
            protos)
        sweep
    in
    table
      ~header:
        [ "cpus"; "protocol"; "makespan"; "bus-txns"; "atomics"; "misses" ]
      mutex_rows;
    (* Crossover: smallest cpu count at which a queue protocol beats ttas
       on makespan AND bus traffic, and stays ahead for the rest of the
       sweep. *)
    let beats name cpus =
      let s = Hashtbl.find tbl (name, cpus) in
      let t = Hashtbl.find tbl ("ttas", cpus) in
      s.Engine.makespan < t.Engine.makespan
      && s.Engine.bus_transactions < t.Engine.bus_transactions
    in
    let crossover name =
      let rec scan = function
        | [] -> None
        | c :: rest ->
            if beats name c && List.for_all (beats name) rest then Some c
            else scan rest
      in
      scan sweep
    in
    let queue_names = List.map Lock_proto.name K.Locks.all in
    printf "\ncrossover vs ttas (beats on makespan AND bus-txns from here up):\n";
    table
      ~header:[ "protocol"; "crossover-cpus" ]
      (List.map
         (fun n ->
           [ n; (match crossover n with None -> "-" | Some c -> i c) ])
         queue_names);
    printf "\nread-mostly (%d%% writes):\n" (100 / rw_ops);
    let rw_rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun (name, impl) ->
              let s = read_mostly impl cpus in
              Hashtbl.replace tbl ("rw:" ^ name, cpus) s;
              [
                i cpus;
                name;
                i s.Engine.makespan;
                i s.Engine.bus_transactions;
                i s.Engine.atomic_ops;
              ])
            [
              ("brlock", `Brlock);
              ("complex-rw", `Clock);
              ("ttas-mutex", `Ttas);
            ])
        sweep
    in
    table
      ~header:[ "cpus"; "impl"; "makespan"; "bus-txns"; "atomics" ]
      rw_rows;
    (* JSON export mirroring the printed tables, for the CI artifact. *)
    let stats_fields (s : Engine.stats) =
      [
        ("makespan", Obs_json.Int s.Engine.makespan);
        ("bus_txns", Obs_json.Int s.Engine.bus_transactions);
        ("atomics", Obs_json.Int s.Engine.atomic_ops);
        ("misses", Obs_json.Int s.Engine.cache_misses);
      ]
    in
    let mutex_json =
      List.concat_map
        (fun cpus ->
          List.map
            (fun (name, _) ->
              Obs_json.Obj
                (( "protocol", Obs_json.String name )
                 :: ("cpus", Obs_json.Int cpus)
                 :: stats_fields (Hashtbl.find tbl (name, cpus))))
            protos)
        sweep
    in
    let rw_json =
      List.concat_map
        (fun cpus ->
          List.map
            (fun name ->
              Obs_json.Obj
                (( "impl", Obs_json.String name )
                 :: ("cpus", Obs_json.Int cpus)
                 :: stats_fields (Hashtbl.find tbl ("rw:" ^ name, cpus))))
            [ "brlock"; "complex-rw"; "ttas-mutex" ])
        sweep
    in
    let crossover_json =
      List.map
        (fun n ->
          Obs_json.Obj
            [
              ("protocol", Obs_json.String n);
              ("vs", Obs_json.String "ttas");
              ( "crossover_cpus",
                match crossover n with
                | None -> Obs_json.Null
                | Some c -> Obs_json.Int c );
            ])
        queue_names
    in
    let out = "BENCH_locks.json" in
    let oc = open_out out in
    output_string oc
      (Obs_json.to_string
         (Obs_json.Obj
            [
              ( "E15",
                Obs_json.Obj
                  [
                    ("mutex", Obs_json.List mutex_json);
                    ("read_mostly", Obs_json.List rw_json);
                    ("crossover", Obs_json.List crossover_json);
                  ] );
            ]));
    output_char oc '\n';
    close_out oc;
    printf "\nlock-suite tables written to %s\n" out
end

(* ================================================================== *)
(* E16: range locks over the VM map: fault storms at scale              *)
(* ================================================================== *)

module E16 = struct
  (* Each thread owns a disjoint slice of one map and repeatedly
     allocates, faults and deallocates it (Scenarios.vm_fault_storm).
     Under the coarse discipline every operation takes the one map lock,
     so the storm serializes no matter how disjoint the addresses; under
     range locking only overlapping requests conflict.  The workload is
     deliberately light per thread (the 64-cpu coarse row is quadratic
     in waiters) so the sweep stays in smoke-test range. *)
  let sweep = [ 2; 8; 16; 32; 64 ]
  let pages_per_thread = 2
  let rounds = 1

  let storm locking cpus =
    sim_run ~cpus (fun () ->
        Scenarios.vm_fault_storm ~locking ~threads:cpus ~pages_per_thread
          ~rounds ())

  let run () =
    section ~id:"E16" ~title:"range locks over the VM map: fault storms"
      ~claim:
        "a map-wide lock serializes every allocation, fault and \
         deallocation no matter how disjoint their addresses; a \
         list-based range lock admits all non-overlapping operations at \
         once, so a many-thread fault storm across a large address space \
         scales with cpus instead of collapsing onto the one lock (s.4)";
    let tbl = Hashtbl.create 16 in
    let disciplines = [ Vm.Vm_map.Coarse; Vm.Vm_map.Range ] in
    let rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun locking ->
              let s = storm locking cpus in
              let name = Vm.Vm_map.locking_name locking in
              Hashtbl.replace tbl (name, cpus) s;
              [
                i cpus;
                name;
                i s.Engine.makespan;
                i s.Engine.bus_transactions;
                i s.Engine.atomic_ops;
              ])
            disciplines)
        sweep
    in
    table
      ~header:[ "cpus"; "locking"; "makespan"; "bus-txns"; "atomics" ]
      rows;
    let speedup cpus =
      let c = Hashtbl.find tbl ("coarse", cpus) in
      let r = Hashtbl.find tbl ("range", cpus) in
      float_of_int c.Engine.makespan /. float_of_int r.Engine.makespan
    in
    printf "\nrange-lock speedup over the coarse map lock (makespan ratio):\n";
    table
      ~header:[ "cpus"; "coarse/range" ]
      (List.map (fun c -> [ i c; f2 (speedup c) ]) sweep);
    (* Crossover: smallest cpu count at which the range-locked map beats
       the coarse one and stays ahead for the rest of the sweep. *)
    let beats c = speedup c > 1.0 in
    let crossover =
      let rec scan = function
        | [] -> None
        | c :: rest ->
            if beats c && List.for_all beats rest then Some c else scan rest
      in
      scan sweep
    in
    (match crossover with
    | Some c -> printf "range beats coarse from %d cpus up\n" c
    | None -> printf "range never beats coarse in this sweep\n");
    let storm_json =
      List.concat_map
        (fun cpus ->
          List.map
            (fun locking ->
              let name = Vm.Vm_map.locking_name locking in
              let s = Hashtbl.find tbl (name, cpus) in
              Obs_json.Obj
                [
                  ("locking", Obs_json.String name);
                  ("cpus", Obs_json.Int cpus);
                  ("makespan", Obs_json.Int s.Engine.makespan);
                  ("bus_txns", Obs_json.Int s.Engine.bus_transactions);
                  ("atomics", Obs_json.Int s.Engine.atomic_ops);
                ])
            disciplines)
        sweep
    in
    let speedup_json =
      List.map
        (fun c ->
          Obs_json.Obj
            [
              ("cpus", Obs_json.Int c);
              ("range_speedup", Obs_json.Float (speedup c));
            ])
        sweep
    in
    let out = "BENCH_vm.json" in
    let oc = open_out out in
    output_string oc
      (Obs_json.to_string
         (Obs_json.Obj
            [
              ( "E16",
                Obs_json.Obj
                  [
                    ("storm", Obs_json.List storm_json);
                    ("speedup", Obs_json.List speedup_json);
                    ( "crossover_cpus",
                      match crossover with
                      | None -> Obs_json.Null
                      | Some c -> Obs_json.Int c );
                  ] );
            ]));
    output_char oc '\n';
    close_out oc;
    printf "\nvm-map tables written to %s\n" out
end

(* ================================================================== *)
(* E18: causal observability: blockers, critical path, flight recorder *)
(* ================================================================== *)

module E18 = struct
  module Obs_span = Mach_obs.Obs_span
  module Obs_cp = Mach_obs.Obs_critical_path
  module Cs = Mach_chaos.Chaos_scenarios

  (* Three workload shapes with different causal structure: E1's
     single-lock hammer (lock spans dominate), E13's event handoff
     (event-wait spans), and E15's 64-cpu ttas point (the scale the
     acceptance run uses). *)
  let ttas_hammer ~iters () =
    let lock = K.Slock.make ~name:"contended" ~protocol:Spin.Ttas () in
    let data = Array.init 4 (fun _ -> Engine.Cell.make 0) in
    let ts =
      List.init
        (Engine.cpu_count ())
        (fun _ ->
          Engine.spawn (fun () ->
              for _ = 1 to iters do
                K.Slock.lock lock;
                Array.iter
                  (fun d -> ignore (Engine.Cell.fetch_and_add d 1))
                  data;
                Engine.cycles 20;
                K.Slock.unlock lock
              done))
    in
    List.iter Engine.join ts

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
      ("e1-ttas-16cpu", 16, timed, ttas_hammer ~iters:30);
      ("e13-handoff-4cpu", 4, random, Cs.lost_wakeup_handoff);
      ("e15-ttas-64cpu", 64, timed, ttas_hammer ~iters:12);
      ("rpc-4cpu", 4, timed, rpc);
    ]

  let run () =
    section ~id:"E18" ~title:"causal observability: who blocks whom, and why"
      ~claim:
        "span-level blocked-by attribution and offline critical-path \
         analysis explain the measured slowdowns of E1/E15 (lock waits \
         on the makespan's path) and E13's handoff latency (event waits) \
         without perturbing the schedule — spans on is byte-identical to \
         spans off";
    let rows = ref [] in
    List.iter
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
        let cp = Obs_cp.compute ~makespan:stats.Engine.makespan evs in
        let dom_cls, dom_frac =
          match Obs_cp.dominant cp with
          | Some a -> (a.Obs_cp.cls, a.Obs_cp.fraction)
          | None -> ("-", 0.)
        in
        let spans_closed =
          List.fold_left
            (fun acc (s : Obs_span.site) -> acc + s.Obs_span.s_spans)
            0 view.Obs_span.v_sites
        in
        let blocked =
          List.fold_left
            (fun acc (s : Obs_span.site) -> acc + s.Obs_span.s_blocked)
            0 view.Obs_span.v_sites
        in
        let flight_spans =
          List.fold_left
            (fun acc (_, l) -> acc + List.length l)
            0 view.Obs_span.v_flight
        in
        rows :=
          [
            wname;
            i cpus;
            i spans_closed;
            i blocked;
            dom_cls;
            f2 dom_frac;
            f2 cp.Obs_cp.residual;
            i flight_spans;
          ]
          :: !rows;
        obs_add_json wname
          (Obs_json.Obj
             [
               ("cpus", Obs_json.Int cpus);
               ("makespan", Obs_json.Int stats.Engine.makespan);
               ("spans", Obs_span.to_json view);
               ("critical_path", Obs_cp.to_json cp);
             ]))
      workloads;
    table
      ~header:
        [
          "workload";
          "cpus";
          "spans";
          "blocked";
          "dominant class";
          "cp-fraction";
          "residual";
          "flight";
        ]
      (List.rev !rows)
end

(* ================================================================== *)

(* ================================================================== *)
(* E19: scache page cache: read-mostly lookup storm                     *)
(* ================================================================== *)

module E19 = struct
  (* Read-mostly page lookups against one vm_cache under three index
     locks: the scache per-cpu refcount RW lock, the brlock, and a flat
     mutex (every lookup takes the one simple lock — the baseline the
     scache protocol exists to beat).  Writes (evict + refill) are rare
     and staggered so the workload matches the cache's design point:
     under the RW disciplines readers share the lock, under the mutex
     they convoy. *)
  let sweep = [ 2; 8; 16; 32; 64 ]

  let locking_name = function
    | Vm.Vm_cache.Scache -> "scache"
    | Vm.Vm_cache.Brlock_rw -> "brlock"
    | Vm.Vm_cache.Mutex -> "mutex"

  let storm locking cpus =
    sim_run ~cpus (fun () ->
        Scenarios.vm_cache_ops ~locking ~threads:cpus ())

  let run () =
    section ~id:"E19" ~title:"scache page cache: read-mostly lookup storm"
      ~claim:
        "a page-cache index behind one mutex convoys every lookup; the \
         scache protocol counts readers in per-cpu refcount slots so \
         read-mostly lookups proceed in parallel, and the write-side \
         sweep only charges the rare evict/fill (s.5)";
    let tbl = Hashtbl.create 16 in
    let disciplines =
      [ Vm.Vm_cache.Scache; Vm.Vm_cache.Brlock_rw; Vm.Vm_cache.Mutex ]
    in
    let rows =
      List.concat_map
        (fun cpus ->
          List.map
            (fun locking ->
              let s = storm locking cpus in
              let name = locking_name locking in
              Hashtbl.replace tbl (name, cpus) s;
              [
                i cpus;
                name;
                i s.Engine.makespan;
                i s.Engine.bus_transactions;
                i s.Engine.atomic_ops;
              ])
            disciplines)
        sweep
    in
    table
      ~header:[ "cpus"; "locking"; "makespan"; "bus-txns"; "atomics" ]
      rows;
    let speedup name cpus =
      let m = Hashtbl.find tbl ("mutex", cpus) in
      let s = Hashtbl.find tbl (name, cpus) in
      float_of_int m.Engine.makespan /. float_of_int s.Engine.makespan
    in
    printf "\nread-throughput speedup over the mutex cache (makespan ratio):\n";
    table
      ~header:[ "cpus"; "mutex/scache"; "mutex/brlock" ]
      (List.map
         (fun c -> [ i c; f2 (speedup "scache" c); f2 (speedup "brlock" c) ])
         sweep);
    (* Crossover: smallest cpu count from which scache stays ahead. *)
    let beats c = speedup "scache" c > 1.0 in
    let crossover =
      let rec scan = function
        | [] -> None
        | c :: rest ->
            if beats c && List.for_all beats rest then Some c else scan rest
      in
      scan sweep
    in
    (match crossover with
    | Some c -> printf "scache beats the mutex cache from %d cpus up\n" c
    | None -> printf "scache never beats the mutex cache in this sweep\n");
    let storm_json =
      List.concat_map
        (fun cpus ->
          List.map
            (fun locking ->
              let name = locking_name locking in
              let s = Hashtbl.find tbl (name, cpus) in
              Obs_json.Obj
                [
                  ("locking", Obs_json.String name);
                  ("cpus", Obs_json.Int cpus);
                  ("makespan", Obs_json.Int s.Engine.makespan);
                  ("bus_txns", Obs_json.Int s.Engine.bus_transactions);
                  ("atomics", Obs_json.Int s.Engine.atomic_ops);
                ])
            disciplines)
        sweep
    in
    let speedup_json =
      List.map
        (fun c ->
          Obs_json.Obj
            [
              ("cpus", Obs_json.Int c);
              ("scache_speedup", Obs_json.Float (speedup "scache" c));
              ("brlock_speedup", Obs_json.Float (speedup "brlock" c));
            ])
        sweep
    in
    let out = "BENCH_cache.json" in
    let oc = open_out out in
    output_string oc
      (Obs_json.to_string
         (Obs_json.Obj
            [
              ( "E19",
                Obs_json.Obj
                  [
                    ("storm", Obs_json.List storm_json);
                    ("speedup", Obs_json.List speedup_json);
                    ( "crossover_cpus",
                      match crossover with
                      | None -> Obs_json.Null
                      | Some c -> Obs_json.Int c );
                  ] );
            ]));
    output_char oc '\n';
    close_out oc;
    printf "\npage-cache tables written to %s\n" out
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
     lock, in place of the single global table).

     RPCs/sec is simulated time at a nominal 1 GHz (1 cycle = 1 ns):
     sustained = served x 1e9 / makespan-cycles.  The per-request
     latency percentiles come from the rpc.latency_cycles histogram the
     scenario feeds per call. *)

  let sweep = [ 2; 8; 16; 32; 64 ]

  (* (label, shards, batch) *)
  let configs =
    [ ("flat", 1, 1); ("sharded", 8, 1); ("batched", 1, 8); ("sh+batch", 8, 8) ]

  let panics = ref 0

  type res = {
    served : int;
    drained : int;
    makespan : int;
    rps : float;
    p50 : int;
    p99 : int;
  }

  let serve ?(drain = false) ~cpus ~shards ~batch ~calls_each () =
    (* Metrics are reset per run so the latency percentiles are this
       run's, not the sweep's aggregate. *)
    Obs_metrics.reset ();
    let cfg = { (Config.bench ~cpus ()) with Config.seed = 3 } in
    let counts = ref (0, 0) in
    match
      Engine.run_outcome ~cfg (fun () ->
          counts :=
            Scenarios.rpc_serve ~shards ~batch ~calls_each
              ~drain_under_load:drain ())
    with
    | Engine.Completed stats ->
        let served, drained = !counts in
        let h =
          Obs_metrics.merged (Obs_metrics.histogram "rpc.latency_cycles")
        in
        Some
          {
            served;
            drained;
            makespan = stats.Engine.makespan;
            rps =
              float_of_int served *. 1e9
              /. float_of_int (max 1 stats.Engine.makespan);
            p50 = Obs_histogram.percentile h 50.;
            p99 = Obs_histogram.percentile h 99.;
          }
    | Engine.Panicked msg ->
        incr panics;
        printf "PANIC (%d cpus, shards=%d batch=%d): %s\n" cpus shards batch msg;
        None
    | Engine.Deadlocked (_, msg) ->
        incr panics;
        printf "DEADLOCK (%d cpus, shards=%d batch=%d): %s\n" cpus shards batch
          msg;
        None
    | Engine.Hit_step_limit ->
        incr panics;
        printf "STEP LIMIT (%d cpus, shards=%d batch=%d)\n" cpus shards batch;
        None

  let f0 x = Printf.sprintf "%.0f" x

  let run ?(smoke = false) () =
    panics := 0;
    section ~id:"E20" ~title:"RPC serving: batching + sharded port name space"
      ~claim:
        "the section 10 reference protocol (translate, take/drop, \
         dispatch, reply) serves sustained RPC traffic; batched dequeue \
         amortizes the port-lock hold and a sharded name space removes \
         the global translation-table lock from the hot path, so \
         throughput scales with client cpus instead of convoying \
         (Elphinstone et al.: IPC throughput is where lock granularity \
         pays off or collapses)";
    let sweep = if smoke then [ 4 ] else sweep in
    let calls_each = 16 in
    let tbl = Hashtbl.create 32 in
    let rows =
      List.concat_map
        (fun cpus ->
          List.filter_map
            (fun (name, shards, batch) ->
              match serve ~cpus ~shards ~batch ~calls_each () with
              | None -> None
              | Some r ->
                  Hashtbl.replace tbl (name, cpus) r;
                  Some
                    [
                      i cpus;
                      name;
                      i r.served;
                      i r.makespan;
                      f0 r.rps;
                      i r.p50;
                      i r.p99;
                    ])
            configs)
        sweep
    in
    table
      ~header:
        [ "cpus"; "config"; "rpcs"; "makespan"; "RPCs/sec"; "p50-cyc"; "p99-cyc" ]
      rows;
    let ratio name cpus =
      match
        (Hashtbl.find_opt tbl ("flat", cpus), Hashtbl.find_opt tbl (name, cpus))
      with
      | Some flat, Some r ->
          Some (float_of_int flat.makespan /. float_of_int r.makespan)
      | _ -> None
    in
    let fr = function Some x -> f2 x | None -> "-" in
    printf "\nthroughput speedup over flat batch=1 (makespan ratio):\n";
    table
      ~header:[ "cpus"; "sharded"; "batched"; "sh+batch" ]
      (List.map
         (fun c ->
           [
             i c;
             fr (ratio "sharded" c);
             fr (ratio "batched" c);
             fr (ratio "sh+batch" c);
           ])
         sweep);
    (* The headline sustained leg: a longer sharded+batched run at the
       top of the sweep (the smoke variant reuses the small size so it
       stays inside the CI budget). *)
    let sus_cpus, sus_calls = if smoke then (4, 32) else (64, 256) in
    let sustained = serve ~cpus:sus_cpus ~shards:8 ~batch:8 ~calls_each:sus_calls () in
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
    let drain_cpus = if smoke then 4 else 16 in
    let drain_res = serve ~drain:true ~cpus:drain_cpus ~shards:4 ~batch:4 ~calls_each () in
    (match drain_res with
    | Some r ->
        printf
          "shutdown drain: clean (%d cpus: %d served, %d in-flight answered \
           err_deactivated, all references balanced)\n"
          drain_cpus r.served r.drained
    | None -> printf "shutdown drain: FAILED\n");
    printf "refcount panics: %d\n" !panics;
    let res_json r =
      [
        ("served", Obs_json.Int r.served);
        ("drained", Obs_json.Int r.drained);
        ("makespan", Obs_json.Int r.makespan);
        ("rpcs_per_sec", Obs_json.Float r.rps);
        ("p50_cycles", Obs_json.Int r.p50);
        ("p99_cycles", Obs_json.Int r.p99);
      ]
    in
    let sweep_json =
      List.concat_map
        (fun cpus ->
          List.filter_map
            (fun (name, shards, batch) ->
              Hashtbl.find_opt tbl (name, cpus)
              |> Option.map (fun r ->
                     Obs_json.Obj
                       ([
                          ("config", Obs_json.String name);
                          ("cpus", Obs_json.Int cpus);
                          ("shards", Obs_json.Int shards);
                          ("batch", Obs_json.Int batch);
                        ]
                       @ res_json r)))
            configs)
        sweep
    in
    let speedup_json =
      List.map
        (fun c ->
          let f name =
            match ratio name c with
            | Some x -> Obs_json.Float x
            | None -> Obs_json.Null
          in
          Obs_json.Obj
            [
              ("cpus", Obs_json.Int c);
              ("sharded_speedup", f "sharded");
              ("batched_speedup", f "batched");
              ("sharded_batched_speedup", f "sh+batch");
            ])
        sweep
    in
    let opt_obj extra = function
      | Some r -> Obs_json.Obj (extra @ res_json r)
      | None -> Obs_json.Null
    in
    let out = "BENCH_rpc.json" in
    let oc = open_out out in
    output_string oc
      (Obs_json.to_string
         (Obs_json.Obj
            [
              ( "E20",
                Obs_json.Obj
                  [
                    ("mode", Obs_json.String (if smoke then "smoke" else "full"));
                    ("sweep", Obs_json.List sweep_json);
                    ("speedup", Obs_json.List speedup_json);
                    ( "sustained",
                      opt_obj [ ("cpus", Obs_json.Int sus_cpus) ] sustained );
                    ( "drain",
                      opt_obj [ ("cpus", Obs_json.Int drain_cpus) ] drain_res );
                    ("refcount_panics", Obs_json.Int !panics);
                  ] );
            ]));
    output_char oc '\n';
    close_out oc;
    printf "\nrpc tables written to %s\n" out
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
    ("E20", (fun () -> E20.run ()));
    ("E20-smoke", (fun () -> E20.run ~smoke:true ()));
    ("X1", X1.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst experiments
  in
  let obs = ref [] in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some run ->
          obs_reset ();
          run ();
          obs_section ~id ();
          obs := (id, obs_json ()) :: !obs
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" id
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested;
  let out = "BENCH_observability.json" in
  let oc = open_out out in
  output_string oc (Obs_json.to_string (Obs_json.Obj (List.rev !obs)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nper-experiment observability written to %s\n" out;
  Printf.printf "All requested experiments completed.\n"
