(* machsim: command-line driver for the simulated Mach multiprocessor.

   Subcommands:
     run       -- run a named scenario once and print the run statistics
     explore   -- run a scenario across many schedule seeds, tally outcomes
     trace     -- run a scenario with event tracing and dump the trace
                  (or export it as Chrome trace-event JSON with --out)
     profile   -- run a scenario and print the lock contention profile
     report    -- run a scenario and print the causal report: top
                  blockers, critical-path attribution, flight recorder *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Explore = Mach_sim.Sim_explore
module Trace = Mach_sim.Sim_trace
module Obs_json = Mach_obs.Obs_json
module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_span = Mach_obs.Obs_span
module Obs_cp = Mach_obs.Obs_critical_path
module Scenarios = Mach_kernel.Scenarios
module Kernel = Mach_kernel.Kernel
module Ksync = Mach_ksync.Ksync
module Vm = Mach_vm
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Scenario registry                                                    *)
(* ------------------------------------------------------------------ *)

let pageable_scenario ~use_recursive () =
  let ctx = Vm.Vm_map.make_context ~pages:4 () in
  let map = Vm.Vm_map.create ctx in
  let reclaimable = Vm.Vm_map.vm_allocate map ~size:3 in
  for i = 0 to 2 do
    match Vm.Vm_fault.fault map ~va:(reclaimable + i) with
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

(* TLB shootdown barrier (adapted from bench E10): victims on every other
   cpu activate the pmap and spin at spl0; the initiator's removals must
   rendezvous with all of them at interrupt level. *)
let shootdown_scenario () =
  let pm = Vm.Pmap.create () in
  (* On a uniprocessor there is nobody to shoot down: the removals still
     run (local invalidates only) rather than waiting forever for a victim
     that can never be dispatched. *)
  let participants = max 0 (Engine.cpu_count () - 1) in
  let removals = 8 in
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

let scenarios : (string * (string * (unit -> unit))) list =
  [
    ( "rpc",
      ( "boot the kernel; 4 clients make null RPCs to the host port",
        fun () ->
          let kernel = Kernel.start ~pages:64 () in
          Scenarios.null_rpc_workload kernel ~clients:4 ~calls_each:25;
          Kernel.shutdown kernel ) );
    ( "task-lifecycle",
      ( "create tasks over RPC, allocate+wire memory, terminate them",
        fun () ->
          let kernel = Kernel.start ~pages:128 () in
          let ports =
            List.init 4 (fun _ ->
                match Kernel.rpc_task_create kernel with
                | Ok p -> p
                | Error e -> Engine.fatal e)
          in
          List.iter
            (fun p ->
              (match Kernel.rpc_vm_allocate p ~size:8 with
              | Ok va -> (
                  match Kernel.rpc_vm_wire p ~va ~pages:4 with
                  | Ok () -> ()
                  | Error e -> Engine.fatal e)
              | Error e -> Engine.fatal e);
              (match Kernel.rpc_task_terminate p with
              | Ok () -> ()
              | Error e -> Engine.fatal e);
              Mach_ipc.Port.release p)
            ports;
          Kernel.shutdown kernel ) );
    ( "coarse",
      ( "object operations under one global kernel lock",
        fun () ->
          Scenarios.object_ops_workload Scenarios.Coarse ~objects:16
            ~workers:(Engine.cpu_count ()) ~ops_per_worker:30 ) );
    ( "fine",
      ( "object operations under per-object locks (the Mach way)",
        fun () ->
          Scenarios.object_ops_workload Scenarios.Fine ~objects:16
            ~workers:(Engine.cpu_count ()) ~ops_per_worker:30 ) );
    ( "funnel",
      ( "object operations funnelled through a master processor",
        fun () ->
          Scenarios.object_ops_workload Scenarios.Master_funnel ~objects:16
            ~workers:(Engine.cpu_count ()) ~ops_per_worker:30 ) );
    ( "contention",
      ( "every cpu hammers one ttas lock (the E1/E15 workload shape)",
        fun () ->
          let lock =
            Ksync.Slock.make ~name:"contended" ~protocol:Mach_core.Spin.Ttas
              ()
          in
          let data = Array.init 4 (fun _ -> Engine.Cell.make ~name:"d" 0) in
          let ts =
            List.init
              (Engine.cpu_count ())
              (fun _ ->
                Engine.spawn (fun () ->
                    for _ = 1 to 10 do
                      Ksync.Slock.lock lock;
                      Array.iter
                        (fun d -> ignore (Engine.Cell.fetch_and_add d 1))
                        data;
                      Engine.cycles 20;
                      Ksync.Slock.unlock lock
                    done))
          in
          List.iter Engine.join ts ) );
    ( "interrupt-deadlock",
      ( "the section 7 three-processor barrier deadlock (buggy variant)",
        Scenarios.interrupt_barrier_scenario ~disciplined:false ) );
    ( "interrupt-disciplined",
      ( "the same scenario under the same-spl rule (never deadlocks)",
        Scenarios.interrupt_barrier_scenario ~disciplined:true ) );
    ( "wire-recursive",
      ( "vm_map_pageable with recursive locks vs pageout (section 7.1 bug)",
        pageable_scenario ~use_recursive:true ) );
    ( "wire-rewritten",
      ( "the Mach 3.0 vm_map_pageable rewrite vs pageout (deadlock-free)",
        pageable_scenario ~use_recursive:false ) );
    ( "vm-fault",
      ( "disjoint-slice allocate/fault/deallocate storm on a range-locked map",
        fun () -> Scenarios.vm_fault_storm ~locking:Vm.Vm_map.Range () ) );
    ( "vm-fault-coarse",
      ( "the same storm under the paper's single coarse map lock",
        fun () -> Scenarios.vm_fault_storm ~locking:Vm.Vm_map.Coarse () ) );
    ( "range-disjoint",
      ( "two threads hold disjoint ranges of one range lock concurrently",
        Scenarios.range_disjoint ) );
    ( "range-overlap",
      ( "two threads contend overlapping write ranges (must serialize)",
        Scenarios.range_overlap ) );
    ( "range-deadlock",
      ( "ABBA across two ranges: the report names the exact ranges held",
        Scenarios.range_abba ) );
    ( "shootdown",
      ( "TLB shootdowns: pmap removals rendezvous with every other cpu",
        shootdown_scenario ) );
    ( "same-spl",
      ( "minimal section 7 same-spl rule: holder at interrupt spl (safe)",
        Scenarios.same_spl_holder ~disciplined:true ) );
    ( "same-spl-buggy",
      ( "the same scenario holding at spl0: the handler spins on its own \
         interrupted holder",
        Scenarios.same_spl_holder ~disciplined:false ) );
    ( "handoff",
      ( "section 6 event-wait handoff: producer hands a flag to a consumer",
        Mach_chaos.Chaos_scenarios.lost_wakeup_handoff ) );
    ( "herd",
      ( "section 6 broadcast wakeup: several sleepers woken at once",
        fun () -> Mach_chaos.Chaos_scenarios.wakeup_herd ~sleepers:2 () ) );
    ( "mcs-handoff",
      ( "workers contending an MCS queue lock (explicit successor handoff)",
        fun () -> Mach_chaos.Chaos_scenarios.mcs_handoff () ) );
    ( "scache-handoff",
      ( "workers contending the scache writer side (FIFO grant handoff)",
        fun () -> Mach_chaos.Chaos_scenarios.scache_handoff () ) );
    ( "scache-rw",
      ( "scache matrix: reader vs writer on one scache RW lock (must \
         serialize)",
        Scenarios.scache_rw ) );
    ( "scache-ww",
      ( "scache matrix: writer vs writer through the FIFO ticket gate \
         (must serialize)",
        Scenarios.scache_ww ) );
    ( "scache-rr",
      ( "scache matrix: two readers on their own refcount slots (may \
         interleave)",
        Scenarios.scache_rr ) );
    ( "vm-cache",
      ( "read-mostly page-lookup storm on a scache-locked page cache",
        fun () -> Scenarios.vm_cache_ops () ) );
    ( "vm-cache-mutex",
      ( "the same storm with the cache index under one flat mutex",
        fun () -> Scenarios.vm_cache_ops ~locking:Vm.Vm_cache.Mutex () ) );
    ( "scache-rrw",
      ( "scache matrix, 3 cpus: two readers racing one writer (readers \
         may interleave; a writer overlap is fatal)",
        fun () -> ignore (Scenarios.scache_rrw ()) ) );
    ( "rpc-serve",
      ( "E20 RPC serving: clients hammer MiG servers through a sharded \
         namespace with batched dispatch, then drain cleanly",
        fun () ->
          let served, drained =
            Scenarios.rpc_serve ~shards:8 ~batch:8 ~calls_each:16 ()
          in
          Printf.printf "rpc-serve: served %d drained %d\n" served drained ) );
    ( "rpc-serve-flat",
      ( "the same workload through the single global registry, batch=1 \
         (the unsharded baseline)",
        fun () ->
          let served, drained = Scenarios.rpc_serve ~calls_each:16 () in
          Printf.printf "rpc-serve: served %d drained %d\n" served drained ) );
    ( "rpc-serve-drain",
      ( "RPC serving terminated under load: in-flight requests are \
         answered err_deactivated, refcounts audited",
        fun () ->
          let served, drained =
            Scenarios.rpc_serve ~shards:4 ~batch:4 ~calls_each:16
              ~drain_under_load:true ()
          in
          Printf.printf "rpc-serve: served %d drained %d\n" served drained ) );
    ( "queue-locks",
      ( "one contended critical section per queue-lock protocol \
         (ticket, MCS, Anderson) plus a big-reader read burst",
        fun () ->
          let module Lp = Mach_core.Lock_proto in
          List.iter
            (fun proto ->
              let l =
                Ksync.Slock.make ~name:("ql." ^ Lp.name proto) ~proto ()
              in
              let c = Engine.Cell.make ~name:"ql.count" 0 in
              let ts =
                List.init
                  (Engine.cpu_count ())
                  (fun _ ->
                    Engine.spawn (fun () ->
                        for _ = 1 to 5 do
                          Ksync.Slock.lock l;
                          ignore (Engine.Cell.fetch_and_add c 1);
                          Engine.cycles 20;
                          Ksync.Slock.unlock l
                        done))
              in
              List.iter Engine.join ts)
            Ksync.Locks.all;
          let br = Ksync.Locks.Brlock.make ~name:"ql.br" in
          let ts =
            List.init
              (Engine.cpu_count ())
              (fun _ ->
                Engine.spawn (fun () ->
                    for _ = 1 to 5 do
                      Ksync.Locks.Brlock.with_read br (fun () ->
                          Engine.cycles 10)
                    done))
          in
          List.iter Engine.join ts ) );
  ]

let scenario_names = List.map fst scenarios

let lookup_scenario name =
  match List.assoc_opt name scenarios with
  | Some (_, f) -> f
  | None ->
      Printf.eprintf "unknown scenario %S; known scenarios:\n" name;
      List.iter
        (fun (n, (d, _)) -> Printf.eprintf "  %-22s %s\n" n d)
        scenarios;
      exit 2

(* ------------------------------------------------------------------ *)
(* Common options                                                       *)
(* ------------------------------------------------------------------ *)

let scenario_arg =
  let doc =
    "Scenario to run. One of: " ^ String.concat ", " scenario_names ^ "."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let cpus_arg =
  Arg.(value & opt int 4 & info [ "cpus"; "c" ] ~docv:"N" ~doc:"Virtual cpus.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Schedule seed.")

let policy_arg =
  let parse = function
    | "random" -> Ok Config.Random_policy
    | "round-robin" -> Ok Config.Round_robin
    | "timed" -> Ok Config.Timed
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  let print ppf p = Format.pp_print_string ppf (Config.policy_name p) in
  Arg.(
    value
    & opt (conv (parse, print)) Config.Timed
    & info [ "policy"; "p" ] ~docv:"POLICY"
        ~doc:"Scheduling policy: random, round-robin or timed.")

(* ------------------------------------------------------------------ *)
(* Subcommands                                                          *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run scenario cpus seed policy =
    let cfg = { Config.default with Config.cpus; seed; policy } in
    match Engine.run_outcome ~cfg (lookup_scenario scenario) with
    | Engine.Completed stats ->
        Format.printf "completed: %a@." Engine.pp_stats stats;
        0
    | Engine.Deadlocked (kind, report) ->
        Format.printf "DEADLOCK (%s):@.%s@."
          (match kind with
          | Engine.Sleep_deadlock -> "sleep"
          | Engine.Spin_deadlock -> "spin/livelock")
          report;
        1
    | Engine.Panicked msg ->
        Format.printf "KERNEL PANIC: %s@." msg;
        1
    | Engine.Hit_step_limit ->
        Format.printf "step limit reached@.";
        1
  in
  let term = Term.(const run $ scenario_arg $ cpus_arg $ seed_arg $ policy_arg) in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a scenario once and print the run statistics.")
    term

let explore_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 100
      & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Number of schedule seeds.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains"; "j" ] ~docv:"N"
          ~doc:
            "Fan the seeds out across $(docv) OCaml domains.  The verdict \
             is identical to the sequential run for every value.")
  in
  let run scenario cpus seeds domains =
    if domains < 1 then begin
      Printf.eprintf "explore: --domains must be at least 1 (got %d)\n" domains;
      exit 2
    end;
    let v =
      Explore.run ~cpus ~domains
        ~seeds:(List.init seeds (fun i -> i + 1))
        (lookup_scenario scenario)
    in
    Format.printf "%a@." Explore.pp_verdict v;
    (match v.Explore.failures with
    | (seed, report) :: _ ->
        Format.printf "@.first failure (seed %d):@.%s@." seed report
    | [] -> ());
    if Explore.all_completed v then 0 else 1
  in
  let term =
    Term.(const run $ scenario_arg $ cpus_arg $ seeds_arg $ domains_arg)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Run a scenario across many schedule seeds and tally completions, \
          deadlocks and panics.")
    term

(* Write the Chrome trace-event document, then re-read and parse it: the
   exporter validates its own output, so a malformed document fails loudly
   here rather than in chrome://tracing. *)
let export_chrome_trace ~out events =
  let doc = Trace.chrome_json events in
  match
    let oc = open_out out in
    output_string oc (Obs_json.to_string doc);
    output_char oc '\n';
    close_out oc
  with
  | exception Sys_error msg ->
      Printf.eprintf "cannot write trace (%s)\n" msg;
      1
  | () ->
  (
  let ic = open_in_bin out in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Obs_json.of_string text with
  | Error msg ->
      Printf.eprintf "trace JSON INVALID (%s): %s\n" out msg;
      1
  | Ok doc -> (
      match Obs_json.member "traceEvents" doc with
      | Some (Obs_json.List evs) ->
          Printf.printf "trace JSON ok: %d events -> %s\n" (List.length evs)
            out;
          0
      | _ ->
          Printf.eprintf "trace JSON INVALID (%s): no traceEvents array\n" out;
          1))

let trace_cmd =
  let limit_arg =
    Arg.(
      value & opt int 60
      & info [ "limit"; "l" ] ~docv:"N" ~doc:"Trace lines to print (tail).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Export the full trace as Chrome trace-event JSON (loadable in \
             chrome://tracing or Perfetto) instead of printing the tail.")
  in
  let run scenario cpus seed limit out =
    let cfg = { Config.default with Config.cpus; seed; trace = true } in
    let outcome = Engine.run_outcome ~cfg (lookup_scenario scenario) in
    let events = Engine.trace_events () in
    let status =
      match out with
      | Some out -> export_chrome_trace ~out events
      | None ->
          let total = List.length events in
          let tail =
            if total <= limit then events
            else List.filteri (fun idx _ -> idx >= total - limit) events
          in
          List.iter (fun e -> Format.printf "%a@." Trace.pp_event e) tail;
          Format.printf "(%d of %d events shown)@." (List.length tail) total;
          0
    in
    (* Loss accounting, split span-vs-instant and overflow-vs-disabled:
       "the ring wrapped" and "tracing was off" are different facts, and
       span records matter to the critical-path pass specifically. *)
    (match Engine.trace_drop_stats () with
    | Some d ->
        Format.printf
          "drops: overflow spans=%d events=%d; disabled spans=%d events=%d@."
          d.Trace.dropped_spans d.Trace.dropped_events d.Trace.disabled_spans
          d.Trace.disabled_events
    | None -> ());
    (match outcome with
    | Engine.Completed stats -> Format.printf "completed: %a@." Engine.pp_stats stats
    | Engine.Deadlocked (_, r) -> Format.printf "deadlocked:@.%s@." r
    | Engine.Panicked m -> Format.printf "panicked: %s@." m
    | Engine.Hit_step_limit -> Format.printf "step limit@.");
    status
  in
  let term =
    Term.(const run $ scenario_arg $ cpus_arg $ seed_arg $ limit_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scenario with event tracing and dump the tail (or export \
          Chrome trace-event JSON with --out).")
    term

let profile_cmd =
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top"; "t" ] ~docv:"N" ~doc:"Lock classes to show.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the profile and metrics registry as JSON instead of text.")
  in
  let run scenario cpus seed top json =
    (* Profile state is global and survives previous runs in this process;
       start from a clean slate so the report covers this scenario only. *)
    Obs_profile.reset ();
    Obs_metrics.reset ();
    let cfg = { Config.default with Config.cpus; seed } in
    let outcome = Engine.run_outcome ~cfg (lookup_scenario scenario) in
    if json then
      print_endline
        (Obs_json.to_string
           (Obs_json.Obj
              [
                ("scenario", Obs_json.String scenario);
                ("profile", Obs_profile.to_json ());
                ( "spans",
                  match Obs_span.last () with
                  | Some v -> Obs_span.to_json v
                  | None -> Obs_json.Null );
                ("metrics", Obs_metrics.to_json ());
              ]))
    else begin
      Format.printf "%a@." (fun ppf () -> Obs_profile.pp_report ~top_n:top ppf ()) ();
      (match Obs_span.last () with
      | Some v -> Format.printf "%a@." (Obs_span.pp_blockers ~top_n:top) v
      | None -> ());
      Format.printf "metrics:@.%a" Obs_metrics.pp ()
    end;
    match outcome with
    | Engine.Completed _ -> 0
    | Engine.Deadlocked (_, r) ->
        Format.printf "deadlocked:@.%s@." r;
        1
    | Engine.Panicked m ->
        Format.printf "panicked: %s@." m;
        1
    | Engine.Hit_step_limit ->
        Format.printf "step limit@.";
        1
  in
  let term =
    Term.(const run $ scenario_arg $ cpus_arg $ seed_arg $ top_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a scenario and print the lock contention profile (top classes \
          by wait cycles, first-attempt rates, waits-for edges) and the \
          metrics registry.")
    term

let report_cmd =
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top"; "t" ] ~docv:"N" ~doc:"Sites / edges / classes to show.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the causal report as JSON instead of text.")
  in
  let run scenario cpus seed policy top json =
    Obs_profile.reset ();
    (* Tracing feeds the critical-path pass; track_waits feeds the
       waits-for graph so a deadlocked run still prints a diagnosis
       (with the flight-recorder dump the engine appends to it). *)
    let cfg =
      {
        Config.default with
        Config.cpus;
        seed;
        policy;
        trace = true;
        track_waits = true;
      }
    in
    let outcome = Engine.run_outcome ~cfg (lookup_scenario scenario) in
    let view =
      match Obs_span.last () with
      | Some v -> v
      | None -> Obs_span.empty_view
    in
    let makespan =
      match Engine.last_stats () with
      | Some s -> s.Engine.makespan
      | None -> 0
    in
    let evs =
      List.map
        (fun (e : Trace.event) ->
          { Obs_cp.cp_clock = e.Trace.clock; cp_ev = e.Trace.ev })
        (Engine.trace_events ())
    in
    let cp = Obs_cp.compute ~makespan evs in
    if json then
      print_endline
        (Obs_json.to_string
           (Obs_json.Obj
              [
                ("scenario", Obs_json.String scenario);
                ("spans", Obs_span.to_json view);
                ("critical_path", Obs_cp.to_json cp);
                ("profile", Obs_profile.to_json ());
              ]))
    else begin
      Format.printf "%a@." (Obs_span.pp_blockers ~top_n:top) view;
      Format.printf "%a@." Obs_cp.pp cp;
      (match Obs_cp.dominant cp with
      | Some a ->
          Format.printf "dominant: %s  (%.1f%% of the critical path)@."
            a.Obs_cp.cls
            (100. *. a.Obs_cp.fraction)
      | None -> Format.printf "dominant: none (no attributable waits)@.");
      Format.printf "%a" Obs_span.pp_flight view
    end;
    match outcome with
    | Engine.Completed stats ->
        Format.printf "completed: %a@." Engine.pp_stats stats;
        0
    | Engine.Deadlocked (_, r) ->
        (* The report already carries the flight-recorder dump the engine
           appended when it diagnosed the hang. *)
        Format.printf "deadlocked:@.%s@." r;
        1
    | Engine.Panicked m ->
        Format.printf "panicked: %s@." m;
        1
    | Engine.Hit_step_limit ->
        Format.printf "step limit@.";
        1
  in
  let term =
    Term.(
      const run $ scenario_arg $ cpus_arg $ seed_arg $ policy_arg $ top_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a scenario and print the causal observability report: the \
          top-blockers table (which sites stall whom, and what the holder \
          was doing), the critical-path attribution over the trace (which \
          lock class the makespan was spent waiting on), and the \
          flight-recorder tail of recent spans per cpu.")
    term

let list_cmd =
  let run () =
    List.iter (fun (n, (d, _)) -> Printf.printf "%-22s %s\n" n d) scenarios;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available scenarios.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* chaos: fault injection + deadlock detection                          *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let chaos_cmd =
  let module Chaos = Mach_chaos.Chaos in
  let module Fault = Mach_chaos.Chaos_fault in
  let module Cs = Mach_chaos.Chaos_scenarios in
  let seeds_arg =
    Arg.(
      value & opt int 20
      & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Schedule seeds per sweep.")
  in
  let intensity_arg =
    Arg.(
      value & opt int 2
      & info [ "intensity"; "i" ] ~docv:"N"
          ~doc:"Fault odds: each injected class fires with 1-in-$(docv) \
                probability per opportunity.")
  in
  let run cpus seeds intensity =
    let ok = ref true in
    (* 1. The section 7 interrupt deadlock: no injection needed; the
       detector must close the waits-for cycle. *)
    Format.printf "== section 7 interrupt deadlock (no injection) ==@.";
    (match
       Chaos.find_first_failure ~cpus ~max_seeds:seeds ~faults:(Fault.mix [])
         Cs.interrupt_deadlock
     with
    | Some r when contains r.Chaos.report "waits-for cycle" ->
        Format.printf "seed %d: %s@.%s@." r.Chaos.seed
          (Chaos.detection_name r.Chaos.detection)
          r.Chaos.report
    | Some r ->
        ok := false;
        Format.printf "seed %d: %s (no cycle diagnosed)@.%s@." r.Chaos.seed
          (Chaos.detection_name r.Chaos.detection)
          r.Chaos.report
    | None ->
        ok := false;
        Format.printf "no deadlock within %d seeds@." seeds);
    (* 2. The section 6 lost wakeup: a correct handoff protocol driven
       into a hang by the drop-wakeup injection; the detector must name
       the orphaned waiter.  Prefer the seed whose victim is the event
       waiter itself (the canonical lost-wakeup trace). *)
    Format.printf "@.== section 6 lost wakeup (drop-wakeup injection) ==@.";
    let drop = Fault.mix ~intensity [ Fault.Drop_wakeup ] in
    let first_lost = ref None and first_orphan = ref None in
    let seed = ref 1 in
    while !first_lost = None && !seed <= seeds do
      let r = Chaos.run_one ~cpus ~seed:!seed ~faults:drop Cs.lost_wakeup_handoff in
      (if Chaos.detected r.Chaos.detection then
         if contains r.Chaos.report "never arrived" then first_lost := Some r
         else if !first_orphan = None then first_orphan := Some r);
      incr seed
    done;
    (match (!first_lost, !first_orphan) with
    | Some r, _ | None, Some r ->
        Format.printf "seed %d: %s@.%s@." r.Chaos.seed
          (Chaos.detection_name r.Chaos.detection)
          r.Chaos.report
    | None, None ->
        ok := false;
        Format.printf "no lost wakeup within %d seeds@." seeds);
    (* 2b. The queue-lock analogue of the lost wakeup: MCS release hands
       off by storing to the successor's spin cell; dropping that store
       strands the waiter, and the detector must call it a lost
       handoff. *)
    Format.printf "@.== MCS lost handoff (drop-handoff injection) ==@.";
    let droph = Fault.mix ~intensity [ Fault.Drop_handoff ] in
    (match
       Chaos.find_first_failure ~cpus ~max_seeds:seeds ~faults:droph
         (fun () -> Cs.mcs_handoff ())
     with
    | Some r when contains r.Chaos.report "lost handoff" ->
        Format.printf "seed %d: %s@.%s@." r.Chaos.seed
          (Chaos.detection_name r.Chaos.detection)
          r.Chaos.report
    | Some r ->
        ok := false;
        Format.printf "seed %d: %s (no lost handoff diagnosed)@.%s@."
          r.Chaos.seed
          (Chaos.detection_name r.Chaos.detection)
          r.Chaos.report
    | None ->
        ok := false;
        Format.printf "no lost handoff within %d seeds@." seeds);
    (* 2c. Same hazard on the scache RW lock: the writer release grants
       the next FIFO ticket by a single store; dropping it strands the
       queued writer mid-sweep protocol. *)
    Format.printf "@.== scache lost writer handoff (drop-handoff injection) ==@.";
    (match
       Chaos.find_first_failure ~cpus ~max_seeds:seeds ~faults:droph
         (fun () -> Cs.scache_handoff ())
     with
    | Some r when contains r.Chaos.report "lost handoff" ->
        Format.printf "seed %d: %s@.%s@." r.Chaos.seed
          (Chaos.detection_name r.Chaos.detection)
          r.Chaos.report
    | Some r ->
        ok := false;
        Format.printf "seed %d: %s (no lost handoff diagnosed)@.%s@."
          r.Chaos.seed
          (Chaos.detection_name r.Chaos.detection)
          r.Chaos.report
    | None ->
        ok := false;
        Format.printf "no scache lost handoff within %d seeds@." seeds);
    (* 3. Fault-mix minimization: start from every class at once and
       shrink while the first failing seed keeps failing. *)
    Format.printf "@.== first-failure minimization ==@.";
    let full = Fault.mix ~intensity Fault.all in
    (match
       Chaos.find_first_failure ~cpus ~max_seeds:seeds ~faults:full
         Cs.lost_wakeup_handoff
     with
    | Some r ->
        let minimal = Chaos.minimize ~cpus ~seed:r.Chaos.seed ~faults:full
                        Cs.lost_wakeup_handoff in
        Format.printf "seed %d fails under {%s}; minimal mix {%s}@."
          r.Chaos.seed
          (String.concat ", " (List.map Fault.name (Fault.mix_classes full)))
          (String.concat ", " (List.map Fault.name (Fault.mix_classes minimal)))
    | None -> Format.printf "full mix produced no failure within %d seeds@." seeds);
    (* 4. Detection-rate sweep: one row per fault class per scenario. *)
    Format.printf "@.== detection sweep (%d seeds each) ==@." seeds;
    Format.printf "%-22s %-18s %s@." "scenario" "fault class" "detections";
    List.iter
      (fun (sname, scenario) ->
        List.iter
          (fun cls ->
            let s =
              Chaos.sweep ~cpus ~seeds
                ~faults:(Fault.mix ~intensity [ cls ])
                scenario
            in
            Format.printf "%-22s %-18s %a@." sname (Fault.name cls)
              Chaos.pp_sweep s)
          Fault.all)
      Cs.all;
    if !ok then 0 else 1
  in
  let term = Term.(const run $ cpus_arg $ seeds_arg $ intensity_arg) in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault-injection sweep with the waits-for deadlock detector: \
          reproduce the section 7 interrupt deadlock, the section 6 \
          lost wakeup and the queue-lock lost handoff, minimize a \
          failing fault mix, and tally detection rates per fault class.")
    term

(* ------------------------------------------------------------------ *)
(* mc: systematic schedule-space model checking                         *)
(* ------------------------------------------------------------------ *)

let mc_cmd =
  let module Mc = Mach_mc.Mc in
  let mc_cpus_arg =
    Arg.(
      value & opt int 2
      & info [ "cpus"; "c" ] ~docv:"N"
          ~doc:"Virtual cpus (keep small: the space is exponential).")
  in
  let mode_arg =
    let parse s =
      match Mc.mode_of_string s with
      | Some m -> Ok m
      | None -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
    in
    let print ppf m = Format.pp_print_string ppf (Mc.mode_name m) in
    Arg.(
      value
      & opt (conv (parse, print)) Mc.Dpor
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Search mode: naive (full enumeration) or dpor.")
  in
  let bound_arg =
    Arg.(
      value & opt (some int) None
      & info [ "bound"; "b" ] ~docv:"N"
          ~doc:
            "Preemption bound (CHESS style).  Omit for the unbounded, \
             exhaustive search used for verification claims.")
  in
  let max_execs_arg =
    Arg.(
      value & opt int 200_000
      & info [ "max-execs" ] ~docv:"N"
          ~doc:"Stop after exploring $(docv) schedules (search incomplete).")
  in
  let max_steps_arg =
    Arg.(
      value & opt int 20_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Step bound per execution.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains"; "j" ] ~docv:"N"
          ~doc:"Fan disjoint subtrees across $(docv) OCaml domains.")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Do not search: replay the choice trace in $(docv) (as printed \
             on failure; - reads stdin) and report the outcome.")
  in
  let no_baseline_arg =
    Arg.(
      value & flag
      & info [ "no-baseline" ]
          ~doc:"Skip the capped naive baseline run (no reduction ratio).")
  in
  let read_file = function
    | "-" -> In_channel.input_all stdin
    | f -> In_channel.with_open_text f In_channel.input_all
  in
  let run scenario cpus mode bound max_execs max_steps domains replay
      no_baseline =
    let scen = lookup_scenario scenario in
    match replay with
    | Some file -> (
        match Mc.trace_of_string (read_file file) with
        | Error e ->
            Printf.eprintf "mc --replay: %s\n" e;
            2
        | Ok trace -> (
            let outcome, recorded =
              Mc.replay ~cpus ~max_steps ~trace scen
            in
            print_string (Mc.trace_to_string recorded);
            match outcome with
            | Engine.Completed stats ->
                Format.printf "replay completed: %a@." Engine.pp_stats stats;
                0
            | Engine.Deadlocked (kind, report) ->
                Format.printf "replay DEADLOCK (%s):@.%s@."
                  (match kind with
                  | Engine.Sleep_deadlock -> "sleep"
                  | Engine.Spin_deadlock -> "spin/livelock")
                  report;
                1
            | Engine.Panicked msg ->
                Format.printf "replay KERNEL PANIC: %s@." msg;
                1
            | Engine.Hit_step_limit ->
                Format.printf "replay hit the step bound@.";
                1))
    | None ->
        let r =
          Mc.check ~cpus ~mode ?bound ~max_steps
            ~max_executions:max_execs ~domains scen
        in
        Format.printf "%a@." Mc.pp_result r;
        (if mode <> Mc.Naive && not no_baseline then begin
           let naive =
             Mc.check ~cpus ~mode:Mc.Naive ?bound ~max_steps
               ~max_executions:max_execs ~domains ~minimize:false scen
           in
           let n = naive.Mc.stats.Mc.executions
           and k = r.Mc.stats.Mc.executions in
           if n > 0 then
             Format.printf
               "naive baseline: %d schedules%s -> reduction ratio %.3f@."
               n
               (if naive.Mc.complete || naive.Mc.failure <> None then ""
                else " (capped)")
               (float_of_int k /. float_of_int n)
         end);
        if r.Mc.verified then 0 else if r.Mc.failure <> None then 1 else 2
  in
  let term =
    Term.(
      const run $ scenario_arg $ mc_cpus_arg $ mode_arg $ bound_arg
      $ max_execs_arg $ max_steps_arg $ domains_arg $ replay_arg
      $ no_baseline_arg)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Model-check a scenario: exhaustively explore every schedule (up \
          to an optional preemption bound) with DPOR/sleep-set pruning, \
          print a replayable counterexample trace on failure, or verify \
          that none exists.")
    term

let () =
  let doc = "Drive the simulated Mach multiprocessor (locking/refcount repro)." in
  let info = Cmd.info "machsim" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd;
            explore_cmd;
            trace_cmd;
            profile_cmd;
            report_cmd;
            chaos_cmd;
            mc_cmd;
            list_cmd;
          ]))
