(* Tasks, threads, the zone allocator, the kernel RPC path (section 10)
   and the section 7 interrupt-barrier scenarios (experiment E11). *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module Kobj = Mach_ksync.Kobj
module Port = Mach_ipc.Port
module Task = Mach_kern.Task
module Zalloc = Mach_kern.Zalloc
module Kernel = Mach_kernel.Kernel
module Scenarios = Mach_kernel.Scenarios
module Vm = Mach_vm
open Test_support

let mk_ctx ?(pages = 64) () = Vm.Vm_map.make_context ~pages ()

(* ------------------------------------------------------------------ *)
(* Zone allocator                                                       *)
(* ------------------------------------------------------------------ *)

let test_zalloc_basics () =
  in_sim (fun () ->
      let z = Zalloc.create ~name:"z" ~capacity:3 () in
      let a = Zalloc.alloc z in
      let b = Zalloc.alloc z in
      check_int "in use" 2 (Zalloc.in_use z);
      Zalloc.free z a;
      Zalloc.free z b;
      check_int "back to empty" 0 (Zalloc.in_use z))

let test_zalloc_blocks_when_exhausted () =
  ignore
    (Engine.run (fun () ->
         let z = Zalloc.create ~capacity:1 () in
         let e = Zalloc.alloc z in
         let got = ref None in
         let waiter =
           Engine.spawn ~name:"allocator" (fun () ->
               got := Some (Zalloc.alloc z))
         in
         wait_until (fun () -> K.Ev.waiting_on waiter <> None);
         check_bool "blocked" true (!got = None);
         Zalloc.free z e;
         Engine.join waiter;
         check_bool "served" true (!got <> None);
         check_int "one sleep recorded" 1 (Zalloc.exhausted_waits z)))

(* ------------------------------------------------------------------ *)
(* Tasks and threads                                                    *)
(* ------------------------------------------------------------------ *)

let test_task_create_basics () =
  in_sim (fun () ->
      let ctx = mk_ctx () in
      let task = Task.create ~name:"t1" ctx in
      check_bool "active" true (Task.is_active task);
      check_int "no threads" 0 (Task.thread_count task);
      check_bool "has self port" true (Task.self_port task <> None);
      (* the self port translates back to the task *)
      (match Port.translate (Option.get (Task.self_port task)) with
      | Some obj ->
          check_bool "translation is the task" true
            (Kobj.uid obj = Kobj.uid (Task.kobj task));
          Kobj.release obj
      | None -> Alcotest.fail "self port does not translate");
      ignore (Task.terminate task))

let test_task_two_locks_in_parallel () =
  (* Section 5: the two task locks let task operations and ipc
     translations proceed in parallel — holding the task lock must not
     block a port-name lookup. *)
  in_sim (fun () ->
      let ctx = mk_ctx () in
      let task = Task.create ~name:"t2" ctx in
      let extra = Port.create ~name:"extra" () in
      Task.register_port_name task "extra" extra;
      Kobj.lock (Task.kobj task);
      (* task lock held: the ipc path still works *)
      (match Task.lookup_port_name task "extra" with
      | Some p ->
          check_int "same port" (Port.uid extra) (Port.uid p);
          Kobj.unlock (Task.kobj task);
          Port.release p
      | None ->
          Kobj.unlock (Task.kobj task);
          Alcotest.fail "lookup failed under task lock");
      ignore (Task.terminate task);
      Port.release extra)

let test_thread_lifecycle () =
  ignore
    (Engine.run (fun () ->
         let ctx = mk_ctx () in
         let task = Task.create ~name:"t3" ctx in
         let ran = ref false in
         (match
            Task.thread_create task (fun _th ->
                ran := true)
          with
         | Ok th ->
             Task.thread_join th;
             check_bool "thread body ran" true !ran;
             check_int "listed" 1 (Task.thread_count task);
             (match Task.thread_terminate th with
             | Ok () -> ()
             | Error `Deactivated -> Alcotest.fail "already dead?");
             check_int "delisted" 0 (Task.thread_count task)
         | Error `Deactivated -> Alcotest.fail "task inactive");
         ignore (Task.terminate task)))

let test_task_terminate_shutdown_protocol () =
  ignore
    (Engine.run (fun () ->
         let ctx = mk_ctx () in
         let task = Task.create ~name:"t4" ctx in
         let port = Option.get (Task.self_port task) in
         Port.reference port;
         (* keep our own right to observe *)
         let stopped = ref false in
         (match
            Task.thread_create task (fun th ->
                (* a long-running thread: interruptible wait loop *)
                let ev = K.Ev.fresh_event () in
                let continue = ref true in
                while !continue do
                  K.Ev.assert_wait ~interruptible:true ev;
                  ignore (K.Ev.thread_block ());
                  if not (Task.thread_is_active th) then continue := false
                done;
                stopped := true)
          with
         | Ok _ -> ()
         | Error `Deactivated -> Alcotest.fail "task inactive");
         (match Task.terminate task with
         | Ok () -> ()
         | Error `Deactivated -> Alcotest.fail "double terminate");
         wait_until (fun () -> !stopped);
         (* step 2 disabled translation *)
         check_bool "translation disabled" true (Port.translate port = None);
         check_bool "port dead" false (Port.is_active port);
         (* second terminate reports the deactivation *)
         check_bool "idempotent" true (Task.terminate task = Error `Deactivated);
         Port.release port))

let test_concurrent_terminate_once_explored () =
  (* Termination races are resolved by whoever gets the task lock first
     (section 9): exactly one terminator wins on every schedule. *)
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 15 (fun i -> i + 1))
      (fun () ->
        let ctx = mk_ctx () in
        let task = Task.create ctx in
        let wins = Engine.Cell.make 0 in
        let ts =
          List.init 3 (fun _ ->
              Engine.spawn (fun () ->
                  match Task.terminate task with
                  | Ok () -> ignore (Engine.Cell.fetch_and_add wins 1)
                  | Error `Deactivated -> ()))
        in
        List.iter Engine.join ts;
        if Engine.Cell.get wins <> 1 then
          Engine.fatal "terminate won a wrong number of times")
  in
  check_bool "exactly one winner on all schedules" true
    (Explore.all_completed v)

(* ------------------------------------------------------------------ *)
(* The kernel RPC path                                                  *)
(* ------------------------------------------------------------------ *)

let test_kernel_boot_and_null_rpc () =
  ignore
    (Engine.run (fun () ->
         let kernel = Kernel.start ~pages:32 () in
         (match Kernel.rpc_null kernel with
         | Ok () -> ()
         | Error e -> Alcotest.fail ("null rpc: " ^ e));
         Kernel.shutdown kernel))

let test_kernel_task_lifecycle_via_rpc () =
  ignore
    (Engine.run (fun () ->
         let kernel = Kernel.start ~pages:32 () in
         (match Kernel.rpc_task_create kernel with
         | Error e -> Alcotest.fail ("task_create: " ^ e)
         | Ok task_port -> (
             (* allocate and wire memory in the new task, via RPC *)
             (match Kernel.rpc_vm_allocate task_port ~size:4 with
             | Error e -> Alcotest.fail ("vm_allocate: " ^ e)
             | Ok va -> (
                 match Kernel.rpc_vm_wire task_port ~va ~pages:2 with
                 | Ok () -> ()
                 | Error e -> Alcotest.fail ("vm_wire: " ^ e)));
             (* terminate through the port (consumes the kernel-side
                object reference, Mach 3.0 style) *)
             (match Kernel.rpc_task_terminate task_port with
             | Ok () -> ()
             | Error e -> Alcotest.fail ("task_terminate: " ^ e));
             (* the task port is now dead: further operations fail *)
             match Kernel.rpc_vm_allocate task_port ~size:1 with
             | Error _ -> Port.release task_port
             | Ok _ -> Alcotest.fail "operation on terminated task succeeded"));
         Kernel.shutdown kernel))

let test_null_rpc_workload () =
  ignore
    (Engine.run (fun () ->
         let kernel = Kernel.start ~pages:32 () in
         Scenarios.null_rpc_workload kernel ~clients:3 ~calls_each:5;
         Kernel.shutdown kernel))

(* ------------------------------------------------------------------ *)
(* Locking granularity scenarios (E3 building block)                    *)
(* ------------------------------------------------------------------ *)

let test_granularity_workloads_complete () =
  List.iter
    (fun g ->
      ignore
        (Engine.run
           ~cfg:
             {
               Mach_sim.Sim_config.default with
               Mach_sim.Sim_config.cpus = 4;
             }
           (fun () ->
             Scenarios.object_ops_workload g ~objects:8 ~workers:4
               ~ops_per_worker:10)))
    [ Scenarios.Coarse; Scenarios.Fine; Scenarios.Master_funnel ]

let test_fine_beats_coarse_in_makespan () =
  let makespan g =
    let stats =
      Engine.run
        ~cfg:
          { Mach_sim.Sim_config.default with Mach_sim.Sim_config.cpus = 8 }
        (fun () ->
          Scenarios.object_ops_workload g ~objects:16 ~workers:8
            ~ops_per_worker:20)
    in
    stats.Engine.makespan
  in
  let coarse = makespan Scenarios.Coarse in
  let fine = makespan Scenarios.Fine in
  check_bool
    (Printf.sprintf "fine (%d) beats coarse (%d)" fine coarse)
    true (fine < coarse)

(* ------------------------------------------------------------------ *)
(* The section 7 interrupt-barrier deadlock (E11)                       *)
(* ------------------------------------------------------------------ *)

let test_inconsistent_spl_deadlocks () =
  match
    Explore.find_first_deadlock ~cpus:3 ~max_seeds:60
      (Scenarios.interrupt_barrier_scenario ~disciplined:false)
  with
  | Some (_seed, report) ->
      check_bool "P2 or P3 named in the report" true
        (contains report "spinning")
  | None ->
      Alcotest.fail
        "inconsistent interrupt protection should deadlock on some schedule"

let test_same_spl_rule_prevents_deadlock () =
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 60 (fun i -> i + 1))
      (Scenarios.interrupt_barrier_scenario ~disciplined:true)
  in
  check_bool "no schedule deadlocks under the same-spl rule" true
    (Explore.all_completed v)

(* ------------------------------------------------------------------ *)
(* The scenario registry                                                *)
(* ------------------------------------------------------------------ *)

(* Every entry ends as it declares on seeds 1-5 at 4 cpus: [Completes]
   on all five, [Deadlocks] on all five and never by a panic.  The same
   runs feed the learned lock order, reset per entry: it finds a
   potential deadlock (an order cycle or a same-spl mismatch) in exactly
   the three order and spl deadlocks, and in no entry that completes.
   wire-recursive deadlocks on a recursive read, which is no order.
   Each of the three also shows its finding at its declared cpu
   minimum, so the minimum is a machine the entry's point is made on. *)
let test_registry_expectations () =
  let explore (e : Scenarios.entry) ~cpus =
    Mach_obs.Obs_profile.reset ();
    let v = Explore.run ~cpus ~seeds:[ 1; 2; 3; 4; 5 ] e.run in
    (v, Mach_obs.Obs_profile.order_findings () <> [])
  in
  let flagged =
    List.filter
      (fun (e : Scenarios.entry) ->
        let v, found = explore e ~cpus:4 in
        let deadlocks =
          v.Explore.sleep_deadlocks + v.Explore.spin_deadlocks
        in
        (match e.expect with
        | Scenarios.Completes ->
            check_int (e.name ^ " completed") 5 v.Explore.completed
        | Scenarios.Deadlocks ->
            check_int (e.name ^ " deadlocked") 5 deadlocks;
            check_int (e.name ^ " panics") 0 v.Explore.panics);
        found)
      Scenarios.all
  in
  Alcotest.(check (list string))
    "entries with order findings"
    [ "interrupt-deadlock"; "range-deadlock"; "same-spl-buggy" ]
    (List.sort compare
       (List.map (fun (e : Scenarios.entry) -> e.name) flagged));
  (* A declared minimum is a machine the finding shows on. *)
  List.iter
    (fun (e : Scenarios.entry) ->
      check_bool
        (Printf.sprintf "%s: order finding at its %d-cpu minimum" e.name
           e.min_cpus)
        true
        (snd (explore e ~cpus:e.min_cpus)))
    flagged

let test_registry_names_unique () =
  let names = List.map (fun (e : Scenarios.entry) -> e.name) Scenarios.all in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "kern"
    [
      ( "zalloc",
        [
          Alcotest.test_case "basics" `Quick test_zalloc_basics;
          Alcotest.test_case "blocks when exhausted" `Quick
            test_zalloc_blocks_when_exhausted;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "create" `Quick test_task_create_basics;
          Alcotest.test_case "two locks in parallel" `Quick
            test_task_two_locks_in_parallel;
          Alcotest.test_case "thread lifecycle" `Quick test_thread_lifecycle;
          Alcotest.test_case "shutdown protocol" `Quick
            test_task_terminate_shutdown_protocol;
          Alcotest.test_case "terminate exactly once" `Quick
            test_concurrent_terminate_once_explored;
        ] );
      ( "kernel rpc",
        [
          Alcotest.test_case "boot + null rpc" `Quick
            test_kernel_boot_and_null_rpc;
          Alcotest.test_case "task lifecycle via rpc" `Quick
            test_kernel_task_lifecycle_via_rpc;
          Alcotest.test_case "null rpc workload" `Quick
            test_null_rpc_workload;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "all variants complete" `Quick
            test_granularity_workloads_complete;
          Alcotest.test_case "fine beats coarse" `Quick
            test_fine_beats_coarse_in_makespan;
        ] );
      ( "interrupt barrier (section 7)",
        [
          Alcotest.test_case "inconsistent spl deadlocks" `Quick
            test_inconsistent_spl_deadlocks;
          Alcotest.test_case "same-spl rule prevents it" `Slow
            test_same_spl_rule_prevents_deadlock;
        ] );
      ( "registry",
        [
          Alcotest.test_case "every entry ends as declared" `Quick
            test_registry_expectations;
          Alcotest.test_case "names are unique" `Quick
            test_registry_names_unique;
        ] );
    ]
