module Engine = Mach_sim.Sim_engine
module Sim_config = Mach_sim.Sim_config

type detection =
  | Cycle
  | Orphan
  | Livelock
  | Sleep
  | Step_limit
  | Panic
  | Clean

let all_detections = [ Cycle; Orphan; Livelock; Sleep; Step_limit; Panic ]

let detection_name = function
  | Cycle -> "waits-for-cycle"
  | Orphan -> "orphaned-waiter"
  | Livelock -> "livelock"
  | Sleep -> "sleep-deadlock"
  | Step_limit -> "step-limit"
  | Panic -> "panic"
  | Clean -> "clean"

let detected = function Clean -> false | _ -> true

type result = { seed : int; detection : detection; report : string }

let default_max_steps = 400_000

let chaos_tweak ~faults ~max_steps cfg =
  {
    cfg with
    Sim_config.faults;
    (* The flight recorder rides on spans: force them on regardless of
       the base config so every chaos-detected hang carries the recent
       per-cpu span tail in its report (spans never perturb the
       schedule, so injection results are unaffected). *)
    spans = true;
    max_steps = Some max_steps;
  }

(* Classification looks at the engine's waits-for analysis first: a found
   cycle or an orphaned waiter is a *diagnosed* deadlock; a bare deadlock
   report (the analysis found nothing) falls back to its kind, and a run that
   only stopped at the step bound (e.g. spurious wakeups count as
   productive, so a hung run never keeps one epoch) is its own bucket. *)
let classify outcome =
  match outcome with
  | Engine.Completed _ -> (Clean, "")
  | Engine.Panicked r -> (Panic, r)
  | Engine.Hit_step_limit -> (Step_limit, "step limit reached")
  | Engine.Deadlocked (kind, r) ->
      let d =
        match Engine.last_analysis () with
        | Some { Engine.cycle = _ :: _; _ } -> Cycle
        | Some { Engine.orphans = _ :: _; _ } -> Orphan
        | _ -> (
            match kind with
            | Engine.Spin_deadlock -> Livelock
            | Engine.Sleep_deadlock -> Sleep)
      in
      (d, r)

let run_one ?(cpus = 4) ?(max_steps = default_max_steps) ~seed ~faults
    scenario =
  let cfg =
    chaos_tweak ~faults ~max_steps (Sim_config.exploration ~cpus ~seed ())
  in
  let detection, report = classify (Engine.run_outcome ~cfg scenario) in
  { seed; detection; report }

type sweep = {
  runs : int;
  counts : (detection * int) list;  (* every detection bucket, in order *)
  first_failure : result option;    (* lowest failing seed *)
}

let detection_rate s =
  let failing =
    List.fold_left
      (fun acc (d, n) -> if detected d then acc + n else acc)
      0 s.counts
  in
  if s.runs = 0 then 0.0 else float_of_int failing /. float_of_int s.runs

let sweep ?cpus ?max_steps ?(seeds = 20) ~faults scenario =
  let tally = Hashtbl.create 8 in
  let first = ref None in
  for seed = 1 to seeds do
    let r = run_one ?cpus ?max_steps ~seed ~faults scenario in
    Hashtbl.replace tally r.detection
      (1 + Option.value ~default:0 (Hashtbl.find_opt tally r.detection));
    if !first = None && detected r.detection then first := Some r
  done;
  {
    runs = seeds;
    counts =
      List.map
        (fun d -> (d, Option.value ~default:0 (Hashtbl.find_opt tally d)))
        (all_detections @ [ Clean ]);
    first_failure = !first;
  }

let pp_sweep ppf s =
  Format.fprintf ppf "%d runs:" s.runs;
  List.iter
    (fun (d, n) ->
      if n > 0 then Format.fprintf ppf " %s=%d" (detection_name d) n)
    s.counts;
  match s.first_failure with
  | Some r -> Format.fprintf ppf " (first failure: seed %d)" r.seed
  | None -> ()

let find_first_failure ?(cpus = 4) ?(max_steps = default_max_steps)
    ?(max_seeds = 50) ~faults scenario =
  let rec search seed =
    if seed > max_seeds then None
    else
      let r = run_one ~cpus ~max_steps ~seed ~faults scenario in
      if detected r.detection then Some r else search (seed + 1)
  in
  search 1

(* Greedy first-failure minimization: starting from a failing (seed, mix),
   drop one fault class at a time and keep the drop whenever the seed
   still fails.  The result is a locally-minimal mix (possibly empty, for
   scenarios like the section 7 bug that deadlock without injection). *)
let minimize ?(cpus = 4) ?(max_steps = default_max_steps) ~seed ~faults
    scenario =
  List.fold_left
    (fun f c ->
      if List.mem c (Chaos_fault.mix_classes f) then begin
        let f' = Chaos_fault.remove c f in
        if detected (run_one ~cpus ~max_steps ~seed ~faults:f' scenario).detection
        then f'
        else f
      end
      else f)
    faults Chaos_fault.all

(* The chaos set: the registry scenarios every detection sweep covers —
   the section 7 bug, which deadlocks with no injection, and four correct
   protocols that hang only under an injected fault. *)
let scenarios =
  List.map Mach_kernel.Scenarios.get
    [
      "interrupt-deadlock";
      "lost-wakeup-handoff";
      "wakeup-herd";
      "mcs-handoff";
      "scache-handoff";
    ]
