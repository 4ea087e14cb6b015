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
module Scenarios = Mach_kernel.Scenarios

(* E1-style contention: every cpu hammers one simple lock whose critical
   section updates shared cells (bus traffic delays useful work).  The
   golden rows run it over the default protocol and over each lib/locks
   queue-lock protocol, pinning the exact cell-op sequence (and hence
   schedule and cost model) of every protocol. *)
let contention ?protocol ?proto () =
  Scenarios.contention ~lock:(K.Slock.make ~name:"golden" ?protocol ?proto ())
    ~iters:20 ()

(* Read-mostly workers over a readers/writer lock: one write per eight
   ops on worker 0, everyone else reads.  Over the big-reader lock and
   the scache RW lock (pins the explicit ReadPending/ReadCounted
   acquisition loop and the FIFO writer-gate handoff cell ops). *)
let readers ~with_read ~with_write () =
  let d = Engine.Cell.make ~name:"d" 0 in
  let cpus = Engine.cpu_count () in
  let worker i () =
    for j = 1 to 20 do
      if i = 0 && j mod 8 = 0 then
        with_write (fun () -> ignore (Engine.Cell.fetch_and_add d 1))
      else
        with_read (fun () ->
            ignore (Engine.Cell.get d);
            Engine.cycles 10)
    done
  in
  let ts = List.init cpus (fun i -> Engine.spawn (worker i)) in
  List.iter Engine.join ts

let brlock_readers () =
  let module B = K.Locks.Brlock in
  let l = B.make ~name:"golden-br" in
  readers ~with_read:(B.with_read l) ~with_write:(B.with_write l) ()

let scache_readers () =
  let module S = K.Locks.Scache in
  let l = S.make ~name:"golden-sc" in
  readers ~with_read:(S.with_read l) ~with_write:(S.with_write l) ()

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

(* E20 serving path: Mig calls and batched receives whose spin-then-block
   probes ([Port.receive ~spin], [Mig.call ~poll]) run out of budget
   often enough at 16 probes that some waits park. *)
let rpc_serve () =
  ignore (Scenarios.rpc_serve ~shards:2 ~batch:4 ~calls_each:4 ~spin:16 ())

(* The golden's own labels: [contention] and [rpc-serve] are configured
   differently from the registry entries of the same name. *)
let scenarios : (string * (unit -> unit)) list =
  [
    ("contention", fun () -> contention ~protocol:Mach_core.Spin.Tas_then_ttas ());
    ("shootdown", (Scenarios.get "shootdown").run);
    ("pageout", (Scenarios.get "wire-rewritten").run);
    ("contention-ticket", fun () -> contention ~proto:K.Locks.ticket ());
    ("contention-mcs", fun () -> contention ~proto:K.Locks.mcs ());
    ("contention-anderson", fun () -> contention ~proto:K.Locks.anderson ());
    ("brlock-readers", brlock_readers);
    ("contention-scache", fun () -> contention ~proto:K.Locks.scache_writer ());
    ("scache-readers", scache_readers);
    ("cx-scache", cx_scache);
    ("rpc-serve", rpc_serve);
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
    (* The IPC probe path: Port.receive ~spin and Mig.call ~poll. *)
    ("rpc-serve", 8, 3, Config.Timed);
    ("rpc-serve", 4, 11, Config.Random_policy);
    ("rpc-serve", 4, 7, Config.Round_robin);
    ("rpc-serve", 64, 5, Config.Random_policy);
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
