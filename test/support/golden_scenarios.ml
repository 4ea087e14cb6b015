(* Golden determinism scenarios: three representative workloads (lock
   contention, TLB shootdown barrier, pageout vs wire) run under a fixed
   matrix of (cpus, seed, policy) configurations.  The formatted stats are
   compared byte-for-byte against test/golden/determinism.expected, so any
   change to the engine's schedule, RNG consumption or cost model is
   caught immediately.  Regenerate the expectation with
   `dune exec test/gen_golden.exe` ONLY when a schedule change is
   intentional. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module K = Mach_ksync.Ksync
module Vm = Mach_vm

(* E1-style contention: every cpu hammers one simple lock whose critical
   section updates shared cells (bus traffic delays useful work). *)
let contention () =
  let lock =
    K.Slock.make ~name:"golden" ~protocol:Mach_core.Spin.Tas_then_ttas ()
  in
  let data = Array.init 4 (fun _ -> Engine.Cell.make ~name:"d" 0) in
  let cpus = Engine.cpu_count () in
  let worker () =
    for _ = 1 to 20 do
      K.Slock.lock lock;
      Array.iter (fun d -> ignore (Engine.Cell.fetch_and_add d 1)) data;
      Engine.cycles 20;
      K.Slock.unlock lock
    done
  in
  let ts = List.init cpus (fun _ -> Engine.spawn worker) in
  List.iter Engine.join ts

(* TLB shootdown: victims on every other cpu activate the pmap and spin;
   the initiator's removals rendezvous with all of them at splvm. *)
let shootdown () =
  let pm = Vm.Pmap.create () in
  let participants = max 0 (Engine.cpu_count () - 1) in
  let removals = 8 in
  let stop = Engine.Cell.make ~name:"stop" 0 in
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
  let initiator =
    Engine.spawn ~name:"initiator" ~bound:0 (fun () ->
        for j = 0 to removals - 1 do
          Vm.Pmap.enter pm ~va:(0x1000 + j) ~ppn:j ~prot:Vm.Tlb.Read_write
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
  List.iter Engine.join victims

(* vm_map_pageable (Mach 3.0 rewrite) racing the pageout daemon. *)
let pageout () =
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
  (match Vm.Vm_pageable.wire_rewritten map ~va:wired_va ~pages:3 with
  | Ok () -> ()
  | Error _ -> Engine.fatal "wire failed");
  Vm.Vm_pageout.stop_daemon daemon;
  Vm.Vm_map.release map

(* The same contention workload over each lib/locks queue-lock protocol,
   plus a read-mostly workload over the big-reader lock: pins the exact
   cell-op sequence (and hence schedule and cost model) of every new
   protocol. *)
let queue_contention proto () =
  let lock = K.Slock.make ~name:"golden" ~proto () in
  let data = Array.init 4 (fun _ -> Engine.Cell.make ~name:"d" 0) in
  let cpus = Engine.cpu_count () in
  let worker () =
    for _ = 1 to 20 do
      K.Slock.lock lock;
      Array.iter (fun d -> ignore (Engine.Cell.fetch_and_add d 1)) data;
      Engine.cycles 20;
      K.Slock.unlock lock
    done
  in
  let ts = List.init cpus (fun _ -> Engine.spawn worker) in
  List.iter Engine.join ts

let brlock_readers () =
  let module B = K.Locks.Brlock in
  let l = B.make ~name:"golden-br" in
  let d = Engine.Cell.make ~name:"d" 0 in
  let cpus = Engine.cpu_count () in
  let worker i () =
    for j = 1 to 20 do
      (* One write per eight ops on one worker; everyone else reads. *)
      if i = 0 && j mod 8 = 0 then
        B.with_write l (fun () -> ignore (Engine.Cell.fetch_and_add d 1))
      else
        B.with_read l (fun () ->
            ignore (Engine.Cell.get d);
            Engine.cycles 10)
    done
  in
  let ts = List.init cpus (fun i -> Engine.spawn (worker i)) in
  List.iter Engine.join ts

(* The brlock read-mostly workload over the scache RW lock: pins the
   explicit ReadPending/ReadCounted acquisition loop and the FIFO
   writer-gate handoff cell ops. *)
let scache_readers () =
  let module S = K.Locks.Scache in
  let l = S.make ~name:"golden-sc" in
  let d = Engine.Cell.make ~name:"d" 0 in
  let cpus = Engine.cpu_count () in
  let worker i () =
    for j = 1 to 20 do
      if i = 0 && j mod 8 = 0 then
        S.with_write l (fun () -> ignore (Engine.Cell.fetch_and_add d 1))
      else
        S.with_read l (fun () ->
            ignore (Engine.Cell.get d);
            Engine.cycles 10)
    done
  in
  let ts = List.init cpus (fun i -> Engine.spawn (worker i)) in
  List.iter Engine.join ts

(* scache under the Complex_lock: the RW state machine rides the scache
   writer as its interlock protocol. *)
let cx_scache () =
  let l =
    K.Clock.make ~name:"golden-cx-sc" ~proto:K.Locks.scache_writer
      ~can_sleep:false ()
  in
  let d = Engine.Cell.make ~name:"d" 0 in
  let cpus = Engine.cpu_count () in
  let worker i () =
    for j = 1 to 12 do
      if i = 0 && j mod 6 = 0 then begin
        K.Clock.lock_write l;
        ignore (Engine.Cell.fetch_and_add d 1);
        K.Clock.lock_done l
      end
      else begin
        K.Clock.lock_read l;
        ignore (Engine.Cell.get d);
        Engine.cycles 10;
        K.Clock.lock_done l
      end
    done
  in
  let ts = List.init cpus (fun i -> Engine.spawn (worker i)) in
  List.iter Engine.join ts

let scenarios : (string * (unit -> unit)) list =
  [
    ("contention", contention);
    ("shootdown", shootdown);
    ("pageout", pageout);
    ("contention-ticket", queue_contention K.Locks.ticket);
    ("contention-mcs", queue_contention K.Locks.mcs);
    ("contention-anderson", queue_contention K.Locks.anderson);
    ("brlock-readers", brlock_readers);
    ("contention-scache", queue_contention K.Locks.scache_writer);
    ("scache-readers", scache_readers);
    ("cx-scache", cx_scache);
  ]

(* The configuration matrix exercises every scheduler policy (and thus
   every RNG-consuming code path in the candidate picker). *)
let matrix : (string * int * int * Config.policy) list =
  [
    ("contention", 8, 3, Config.Timed);
    ("contention", 4, 11, Config.Random_policy);
    ("contention", 4, 7, Config.Round_robin);
    ("contention", 16, 5, Config.Timed);
    ("shootdown", 4, 3, Config.Timed);
    ("shootdown", 4, 5, Config.Random_policy);
    ("pageout", 3, 2, Config.Random_policy);
    ("pageout", 3, 9, Config.Timed);
    (* New-protocol rows are appended so every pre-existing line of the
       golden file stays byte-identical. *)
    ("contention-ticket", 8, 3, Config.Timed);
    ("contention-ticket", 4, 11, Config.Random_policy);
    ("contention-mcs", 8, 3, Config.Timed);
    ("contention-mcs", 4, 11, Config.Random_policy);
    ("contention-anderson", 8, 3, Config.Timed);
    ("contention-anderson", 4, 7, Config.Round_robin);
    ("brlock-readers", 8, 3, Config.Timed);
    ("brlock-readers", 4, 5, Config.Random_policy);
    (* scache rows: under Simple_lock (contention-scache), raw RW
       (scache-readers) and Complex_lock (cx-scache). *)
    ("contention-scache", 8, 3, Config.Timed);
    ("contention-scache", 4, 11, Config.Random_policy);
    ("scache-readers", 8, 3, Config.Timed);
    ("scache-readers", 4, 5, Config.Random_policy);
    ("cx-scache", 4, 7, Config.Round_robin);
    ("cx-scache", 8, 3, Config.Timed);
    (* Above 16 cpus: the scheduler keeps its candidate and near sets as
       two-word cpu bitmasks, so these rows pin schedules whose masks
       cross cpu 31 -> 32 and reach cpu 63, under every policy, with
       bound threads and IPIs (shootdown). *)
    ("shootdown", 33, 5, Config.Random_policy);
    ("shootdown", 48, 7, Config.Timed);
    ("shootdown", 64, 5, Config.Random_policy);
    ("shootdown", 64, 9, Config.Round_robin);
    ("brlock-readers", 64, 7, Config.Round_robin);
    ("scache-readers", 64, 3, Config.Timed);
    ("contention", 33, 5, Config.Random_policy);
  ]

let line (name, cpus, seed, policy) =
  let f = List.assoc name scenarios in
  let cfg = { Config.default with Config.cpus; seed; policy } in
  let head =
    Printf.sprintf "%s cpus=%d seed=%d policy=%s -> " name cpus seed
      (Config.policy_name policy)
  in
  match Engine.run_outcome ~cfg f with
  | Engine.Completed stats ->
      head ^ Format.asprintf "%a" Engine.pp_stats stats
  | Engine.Deadlocked (Engine.Sleep_deadlock, _) -> head ^ "sleep-deadlock"
  | Engine.Deadlocked (Engine.Spin_deadlock, _) -> head ^ "spin-deadlock"
  | Engine.Panicked msg -> head ^ "panic: " ^ msg
  | Engine.Hit_step_limit -> head ^ "step-limit"

(* The expectation opens with the engine's schedule version: a golden
   file generated before an intentional schedule change then fails with
   a clear "stale golden" message instead of a wall of stats diffs. *)
let version_line () =
  Printf.sprintf "# engine schedule_version %d\n" Engine.schedule_version

let render () =
  version_line ()
  ^ String.concat "" (List.map (fun row -> line row ^ "\n") matrix)
