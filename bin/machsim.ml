(* machsim: command-line driver for the simulated Mach multiprocessor.

   Subcommands:
     run       -- run a named scenario once and print the run statistics
     explore   -- run a scenario across many schedule seeds, tally outcomes
     trace     -- run a scenario with event tracing and dump the trace
                  (or export it as Chrome trace-event JSON with --out)
     profile   -- run a scenario and print the lock contention profile
     report    -- run a scenario and print the causal report: top
                  blockers, critical-path attribution, flight recorder
     chaos, mc -- fault-injection sweep; model checking of one scenario

   Every scenario comes from the registry, Mach_kernel.Scenarios. *)

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
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common options                                                       *)
(* ------------------------------------------------------------------ *)

(* Below its cpu minimum a body's own argument check would panic and
   report a bug that does not exist: exit 2 before anything runs. *)
let check_cpus ~cpus (e : Scenarios.entry) =
  if cpus < e.min_cpus then begin
    Printf.eprintf "%s needs at least %d cpus\n" e.name e.min_cpus;
    exit 2
  end

(* The body of the named registry entry; exit 2 for an unknown name. *)
let scenario name ~cpus =
  match Scenarios.find name with
  | Some e ->
      check_cpus ~cpus e;
      e.run
  | None ->
      Printf.eprintf "unknown scenario %S; known scenarios:\n" name;
      List.iter
        (fun (e : Scenarios.entry) ->
          Printf.eprintf "  %-22s %s\n" e.name e.doc)
        Scenarios.all;
      exit 2

let scenario_arg =
  let names = List.map (fun (e : Scenarios.entry) -> e.name) Scenarios.all in
  let doc = "Scenario to run. One of: " ^ String.concat ", " names ^ "." in
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

let top_arg ~doc =
  Arg.(value & opt int 10 & info [ "top"; "t" ] ~docv:"N" ~doc)

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

(* The --json document of [profile] and [report]. *)
let print_json name fields =
  print_endline
    (Obs_json.to_string
       (Obs_json.Obj (("scenario", Obs_json.String name) :: fields)))

(* How a run ended; the exit status is 0 only for a completed run.
   [profile] leaves the completed run's stats out of its report. *)
let print_outcome ?(stats = true) outcome =
  (match outcome with
  | Engine.Completed s ->
      if stats then Format.printf "completed: %a@." Engine.pp_stats s
  | Engine.Deadlocked (_, r) -> Format.printf "deadlocked:@.%s@." r
  | Engine.Panicked m -> Format.printf "panicked: %s@." m
  | Engine.Hit_step_limit -> Format.printf "step limit@.");
  match outcome with Engine.Completed _ -> 0 | _ -> 1

(* ------------------------------------------------------------------ *)
(* Subcommands                                                          *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run name cpus seed policy =
    let body = scenario name ~cpus in
    let cfg = { Config.default with Config.cpus; seed; policy } in
    print_outcome (Engine.run_outcome ~cfg body)
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
  let run name cpus seeds domains =
    if domains < 1 then begin
      Printf.eprintf "explore: --domains must be at least 1 (got %d)\n" domains;
      exit 2
    end;
    let v =
      Explore.run ~cpus ~domains
        ~seeds:(List.init seeds (fun i -> i + 1))
        (scenario name ~cpus)
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
  match
    Out_channel.with_open_text out (fun oc ->
        output_string oc (Obs_json.to_string (Trace.chrome_json events));
        output_char oc '\n')
  with
  | exception Sys_error msg ->
      Printf.eprintf "cannot write trace (%s)\n" msg;
      1
  | () -> (
      let text = In_channel.with_open_bin out In_channel.input_all in
      match Obs_json.of_string text with
      | Error msg ->
          Printf.eprintf "trace JSON INVALID (%s): %s\n" out msg;
          1
      | Ok doc -> (
          match Obs_json.member "traceEvents" doc with
          | Some (Obs_json.List evs) ->
              Printf.printf "trace JSON ok: %d events -> %s\n"
                (List.length evs) out;
              0
          | _ ->
              Printf.eprintf "trace JSON INVALID (%s): no traceEvents array\n"
                out;
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
  let run name cpus seed limit out =
    let body = scenario name ~cpus in
    let cfg = { Config.default with Config.cpus; seed; trace = true } in
    let outcome = Engine.run_outcome ~cfg body in
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
    (* Overflow loss, split span-vs-instant: span records matter to the
       critical-path pass specifically. *)
    (match Engine.trace_drop_stats () with
    | Some d ->
        Format.printf "drops: overflow spans=%d events=%d@."
          d.Trace.dropped_spans d.Trace.dropped_events
    | None -> ());
    ignore (print_outcome outcome);
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
  let run name cpus seed top json =
    let body = scenario name ~cpus in
    (* Profile state is global and survives previous runs in this process;
       start from a clean slate so the report covers this scenario only. *)
    Obs_profile.reset ();
    Obs_metrics.reset ();
    let cfg = { Config.default with Config.cpus; seed } in
    let outcome = Engine.run_outcome ~cfg body in
    if json then
      print_json name
        [
          ("profile", Obs_profile.to_json ());
          ( "spans",
            Option.fold ~none:Obs_json.Null ~some:Obs_span.to_json
              (Obs_span.last ()) );
          ("metrics", Obs_metrics.to_json ());
        ]
    else begin
      Format.printf "%a@."
        (fun ppf () -> Obs_profile.pp_report ~top_n:top ppf ())
        ();
      (match Obs_span.last () with
      | Some v -> Format.printf "%a@." (Obs_span.pp_blockers ~top_n:top) v
      | None -> ());
      Format.printf "metrics:@.%a" Obs_metrics.pp ()
    end;
    print_outcome ~stats:false outcome
  in
  let term =
    Term.(
      const run $ scenario_arg $ cpus_arg $ seed_arg
      $ top_arg ~doc:"Lock classes to show."
      $ json_arg
          ~doc:"Emit the profile and metrics registry as JSON instead of text.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a scenario and print the lock contention profile (top classes \
          by wait cycles, first-attempt rates, waits-for edges, and any \
          potential deadlock the learned lock order or the same-spl rule \
          finds) and the metrics registry.")
    term

let report_cmd =
  let run name cpus seed policy top json =
    let body = scenario name ~cpus in
    Obs_profile.reset ();
    (* Tracing feeds the critical-path pass. *)
    let cfg = { Config.default with Config.cpus; seed; policy; trace = true } in
    let outcome = Engine.run_outcome ~cfg body in
    let view = Option.value (Obs_span.last ()) ~default:Obs_span.empty_view in
    let makespan =
      Option.fold ~none:0 ~some:(fun s -> s.Engine.makespan)
        (Engine.last_stats ())
    in
    let evs =
      List.map
        (fun (e : Trace.event) ->
          { Obs_cp.cp_clock = e.Trace.clock; cp_ev = e.Trace.ev })
        (Engine.trace_events ())
    in
    let cp = Obs_cp.compute ~makespan evs in
    if json then
      print_json name
        [
          ("spans", Obs_span.to_json view);
          ("critical_path", Obs_cp.to_json cp);
          ("profile", Obs_profile.to_json ());
        ]
    else begin
      Format.printf "%a@." (Obs_span.pp_blockers ~top_n:top) view;
      Format.printf "%a@." Obs_cp.pp cp;
      (match Obs_cp.dominant cp with
      | Some a ->
          Format.printf "dominant: %s  (%.1f%% of the critical path)@."
            a.Obs_cp.cls (100. *. a.Obs_cp.fraction)
      | None -> Format.printf "dominant: none (no attributable waits)@.");
      Format.printf "%a" Obs_span.pp_flight view
    end;
    (* A deadlock's report already carries the flight-recorder dump the
       engine appended when it diagnosed the hang. *)
    print_outcome outcome
  in
  let term =
    Term.(
      const run $ scenario_arg $ cpus_arg $ seed_arg $ policy_arg
      $ top_arg ~doc:"Sites / edges / classes to show."
      $ json_arg ~doc:"Emit the causal report as JSON instead of text.")
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
    List.iter
      (fun (e : Scenarios.entry) ->
        Printf.printf "%-22s %d+ cpus  %-9s  %s\n" e.name e.min_cpus
          (match e.expect with
          | Scenarios.Completes -> "completes"
          | Scenarios.Deadlocks -> "deadlocks")
          e.doc)
      Scenarios.all;
    0
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List the scenarios: name, fewest cpus, expected end, summary.")
    Term.(const run $ const ())

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
  let print_failure ?(note = "") (r : Chaos.result) =
    Format.printf "seed %d: %s%s@.%s@." r.Chaos.seed
      (Chaos.detection_name r.Chaos.detection)
      note r.Chaos.report
  in
  let run cpus seeds intensity =
    List.iter (check_cpus ~cpus) Chaos.scenarios;
    let body name = (Scenarios.get name).run in
    (* The first failing seed of [name] under [faults], which passes only
       if its report names [needle]. *)
    let first_failure ~faults ~needle ~diagnosis ~missing name =
      match
        Chaos.find_first_failure ~cpus ~max_seeds:seeds ~faults (body name)
      with
      | Some r when contains r.Chaos.report needle ->
          print_failure r;
          true
      | Some r ->
          print_failure r
            ~note:(Printf.sprintf " (no %s diagnosed)" diagnosis);
          false
      | None ->
          Format.printf "no %s within %d seeds@." missing seeds;
          false
    in
    (* 1. The section 7 interrupt deadlock: no injection needed; the
       detector must close the waits-for cycle. *)
    Format.printf "== section 7 interrupt deadlock (no injection) ==@.";
    let cycle =
      first_failure ~faults:(Fault.mix []) ~needle:"waits-for cycle"
        ~diagnosis:"cycle" ~missing:"deadlock" "interrupt-deadlock"
    in
    (* 2. The section 6 lost wakeup: a correct handoff protocol driven
       into a hang by the drop-wakeup injection; the detector must name
       the orphaned waiter.  Prefer the seed whose victim is the event
       waiter itself (the canonical lost-wakeup trace). *)
    Format.printf "@.== section 6 lost wakeup (drop-wakeup injection) ==@.";
    let drop = Fault.mix ~intensity [ Fault.Drop_wakeup ] in
    let rec scan seed orphan =
      if seed > seeds then orphan
      else
        let r =
          Chaos.run_one ~cpus ~seed ~faults:drop (body "lost-wakeup-handoff")
        in
        if not (Chaos.detected r.Chaos.detection) then scan (seed + 1) orphan
        else if contains r.Chaos.report "never arrived" then Some r
        else scan (seed + 1) (if orphan = None then Some r else orphan)
    in
    let lost =
      match scan 1 None with
      | Some r ->
          print_failure r;
          true
      | None ->
          Format.printf "no lost wakeup within %d seeds@." seeds;
          false
    in
    (* 2b. The queue-lock analogue of the lost wakeup: MCS release hands
       off by storing to the successor's spin cell; dropping that store
       strands the waiter, and the detector must call it a lost
       handoff. *)
    Format.printf "@.== MCS lost handoff (drop-handoff injection) ==@.";
    let droph = Fault.mix ~intensity [ Fault.Drop_handoff ] in
    let mcs =
      first_failure ~faults:droph ~needle:"lost handoff"
        ~diagnosis:"lost handoff" ~missing:"lost handoff" "mcs-handoff"
    in
    (* 2c. Same hazard on the scache RW lock: the writer release grants
       the next FIFO ticket by a single store; dropping it strands the
       queued writer mid-sweep protocol. *)
    Format.printf
      "@.== scache lost writer handoff (drop-handoff injection) ==@.";
    let scache =
      first_failure ~faults:droph ~needle:"lost handoff"
        ~diagnosis:"lost handoff" ~missing:"scache lost handoff"
        "scache-handoff"
    in
    (* 3. Fault-mix minimization: start from every class at once and
       shrink while the first failing seed keeps failing. *)
    Format.printf "@.== first-failure minimization ==@.";
    let full = Fault.mix ~intensity Fault.all in
    let handoff = body "lost-wakeup-handoff" in
    (match
       Chaos.find_first_failure ~cpus ~max_seeds:seeds ~faults:full handoff
     with
    | Some r ->
        let minimal =
          Chaos.minimize ~cpus ~seed:r.Chaos.seed ~faults:full handoff
        in
        Format.printf "seed %d fails under {%s}; minimal mix {%s}@."
          r.Chaos.seed
          (String.concat ", " (List.map Fault.name (Fault.mix_classes full)))
          (String.concat ", " (List.map Fault.name (Fault.mix_classes minimal)))
    | None ->
        Format.printf "full mix produced no failure within %d seeds@." seeds);
    (* 4. Detection-rate sweep: one row per fault class per scenario. *)
    Format.printf "@.== detection sweep (%d seeds each) ==@." seeds;
    Format.printf "%-22s %-18s %s@." "scenario" "fault class" "detections";
    List.iter
      (fun (e : Scenarios.entry) ->
        List.iter
          (fun cls ->
            let s =
              Chaos.sweep ~cpus ~seeds
                ~faults:(Fault.mix ~intensity [ cls ])
                e.run
            in
            Format.printf "%-22s %-18s %a@." e.name (Fault.name cls)
              Chaos.pp_sweep s)
          Fault.all)
      Chaos.scenarios;
    if cycle && lost && mcs && scache then 0 else 1
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
  let run name cpus mode bound max_execs max_steps domains replay
      no_baseline =
    let scen = scenario name ~cpus in
    match replay with
    | Some file -> (
        let text =
          if file = "-" then In_channel.input_all stdin
          else In_channel.with_open_text file In_channel.input_all
        in
        match Mc.trace_of_string text with
        | Error e ->
            Printf.eprintf "mc --replay: %s\n" e;
            2
        | Ok trace ->
            let outcome, recorded =
              Mc.replay ~cpus ~max_steps ~trace scen
            in
            print_string (Mc.trace_to_string recorded);
            print_outcome outcome)
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
