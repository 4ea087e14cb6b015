(* The CI perf-regression gate.

   Reads the engine throughput that `bench/perf.exe` just wrote to
   BENCH_sim_perf.json and compares it against the committed reference
   (bench/perf_reference.json) on TWO estimators of the same quantity:
   `engine.vs_baseline` (absolute best-of-N steps/sec over the pinned
   pre-overhaul baseline) and `engine.vs_calib` (the same steps/sec
   normalized by an in-process pure-compute calibration loop, which
   cancels host speed).  A check fails only when BOTH estimators fall
   below their floor: a real engine regression slows both, while host
   noise — a throttled or shared core slows the absolute number but not
   the normalized one; an unlucky calibration slice slows the
   normalized number but not the absolute one — rarely sinks the two
   together.  Exits 1 when the throughput ratio check (--min-ratio,
   default 0.9) or the dormant-observability check
   (--max-spans-overhead, default 0.03; the engine row is measured with
   spans disabled) fails on both estimators.

   The model-checker row (mc: best-of-N DPOR transitions/sec on the E14
   herd cell) is a host-time measurement too, so it is checked the same
   way: `mc.vs_baseline` and `mc.vs_calib` against --min-ratio times
   their committed references, failing only when both are below.

   Deterministic rows (vm.range_speedup, cache.read_speedup,
   rpc.throughput_speedup) are simulated-time makespan ratios and are
   checked directly against their committed floors — no estimator
   pairing needed.

   --inject-slowdown halves every measured value before the comparison;
   --inject-row SECTION halves only that row (vm, cache, rpc or mc).  CI
   runs both once per pipeline to prove the gate actually trips on each
   row (a gate that cannot fail gates nothing). *)

module Obs_json = Mach_obs.Obs_json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf-gate: " ^ s);
      exit 2)
    fmt

let json_of_file path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> die "%s" msg
  in
  match Obs_json.of_string text with
  | Ok v -> v
  | Error e -> die "%s: parse error: %s" path e

let number = function
  | Some (Obs_json.Float f) -> Some f
  | Some (Obs_json.Int n) -> Some (float_of_int n)
  | _ -> None

let section_field section path field =
  let doc = json_of_file path in
  match Obs_json.member section doc with
  | None -> die "%s: no \"%s\" object" path section
  | Some obj -> (
      match number (Obs_json.member field obj) with
      | Some f when f > 0. -> f
      | Some _ -> die "%s: %s.%s must be positive" path section field
      | None -> die "%s: %s.%s missing" path section field)

let () =
  let perf = ref "BENCH_sim_perf.json" in
  let reference = ref "bench/perf_reference.json" in
  let min_ratio = ref 0.9 in
  let max_spans_overhead = ref 0.03 in
  let inject = ref false in
  let inject_row = ref "" in
  let spec =
    [
      ("--perf", Arg.Set_string perf, "FILE measured perf json (default BENCH_sim_perf.json)");
      ("--reference", Arg.Set_string reference, "FILE committed reference json");
      ("--min-ratio", Arg.Set_float min_ratio, "R fail below R x reference (default 0.9)");
      ( "--max-spans-overhead",
        Arg.Set_float max_spans_overhead,
        "F fail when the spans-disabled run is more than F below the \
         reference (default 0.03)" );
      ("--inject-slowdown", Arg.Set inject, " halve the measured value (gate selftest)");
      ( "--inject-row",
        Arg.Set_string inject_row,
        "SECTION halve only that row's measured values (vm, cache, rpc or \
         mc; gate selftest per row)" );
    ]
  in
  Arg.parse spec
    (fun a -> die "unexpected argument %S" a)
    "perf_gate [--perf FILE] [--reference FILE] [--min-ratio R] \
     [--max-spans-overhead F] [--inject-slowdown]";
  let estimators section =
    let injected = !inject || !inject_row = section in
    ( injected,
      List.map
        (fun field ->
          let m = section_field section !perf field in
          let m = if injected then m /. 2. else m in
          (field, m, section_field section !reference field))
        [ "vs_baseline"; "vs_calib" ] )
  in
  (* A check fails only when it fails on EVERY estimator: regressions
     move both, host noise moves them in opposite directions. *)
  let both_below ?(section = "engine") floor_of label fail_msg =
    let injected, ests = estimators section in
    let bad =
      List.for_all
        (fun (field, m, r) ->
          let floor = floor_of r in
          Printf.printf "perf-gate: %s: %s.%s measured=%.6f  floor=%.6f%s\n"
            label section field m floor
            (if injected then "  [injected 2x slowdown]" else "");
          m < floor)
        ests
    in
    if bad then Printf.printf "perf-gate: FAIL: %s\n" fail_msg;
    bad
  in
  let ratio_failed =
    both_below
      (fun r -> !min_ratio *. r)
      "throughput"
      (Printf.sprintf
         "engine throughput is below %.0f%% of the committed reference on \
          every estimator (bench/perf_reference.json); if the slowdown is \
          intentional, regenerate the reference with `make perf-reference`"
         (100. *. !min_ratio))
  in
  (* The engine row is measured with spans DISABLED, so this is the
     "observability you are not using" tax: the span layer's dormant
     checks must stay within --max-spans-overhead of the pre-span
     reference.  (The rounded-down reference already absorbs runner
     jitter; see bench/perf_reference.json.) *)
  let spans_failed =
    both_below
      (fun r -> (1. -. !max_spans_overhead) *. r)
      "spans-disabled overhead"
      (Printf.sprintf
         "the spans-disabled engine is more than %.0f%% below the pre-span \
          reference on every estimator; the dormant observability hooks are \
          not free"
         (100. *. !max_spans_overhead))
  in
  (* Deterministic rows (simulated-time makespan ratios): no estimator
     pairing or noise floor needed — the number moves only when the code
     changes.  Each check runs only when the committed reference carries
     the row (older references predate it), and --inject-row SECTION
     halves just that row so the selftest can prove each one trips
     independently of the engine rows. *)
  let det_check ~section ~label ~ref_field ~meas_field ~fail_text =
    let field doc path f =
      match Obs_json.member section doc with
      | None -> None
      | Some obj -> (
          match number (Obs_json.member f obj) with
          | Some v when v > 0. -> Some v
          | Some _ -> die "%s: %s.%s must be positive" path section f
          | None -> None)
    in
    match field (json_of_file !reference) !reference ref_field with
    | None -> false
    | Some floor -> (
        match field (json_of_file !perf) !perf meas_field with
        | None -> die "%s: %s.%s missing" !perf section meas_field
        | Some m ->
            let injected = !inject || !inject_row = section in
            let m = if injected then m /. 2. else m in
            Printf.printf
              "perf-gate: %s: %s.%s measured=%.2f  floor=%.2f%s\n" label
              section meas_field m floor
              (if injected then "  [injected 2x slowdown]" else "");
            if m < floor then begin
              Printf.printf "perf-gate: FAIL: %s (the number is \
                             deterministic simulated time, not host noise)\n"
                (fail_text floor);
              true
            end
            else false)
  in
  (* The range-lock fault path (E16). *)
  let vm_failed =
    det_check ~section:"vm" ~label:"vm fault path"
      ~ref_field:"min_range_speedup" ~meas_field:"range_speedup"
      ~fail_text:(fun floor ->
        Printf.sprintf
          "the range-locked fault storm no longer beats the coarse map lock \
           by at least %.1fx at 16 cpus; the range-lock fault path has \
           reserialized"
          floor)
  in
  (* The scache page-cache read path (E19). *)
  let cache_failed =
    det_check ~section:"cache" ~label:"cache read path"
      ~ref_field:"min_read_speedup" ~meas_field:"read_speedup"
      ~fail_text:(fun floor ->
        Printf.sprintf
          "the scache page cache no longer beats the mutex cache by at \
           least %.1fx at 64 cpus; the read side has reserialized"
          floor)
  in
  (* The RPC serving path (E20): flat/sharded+batched makespan ratio of
     the 64-cpu serving workload. *)
  let rpc_failed =
    det_check ~section:"rpc" ~label:"rpc serving path"
      ~ref_field:"min_throughput_speedup" ~meas_field:"throughput_speedup"
      ~fail_text:(fun floor ->
        Printf.sprintf
          "sharded+batched RPC serving no longer beats the flat batch=1 \
           server by at least %.1fx at 64 cpus; the hot path has \
           reserialized (global name-table lock back on the lookup path, \
           or batching degraded to one message per port-lock hold)"
          floor)
  in
  (* The model checker's host cost per transition (E14 herd cell). *)
  let mc_failed =
    Obs_json.member "mc" (json_of_file !reference) <> None
    && both_below ~section:"mc"
         (fun r -> !min_ratio *. r)
         "model checker"
         (Printf.sprintf
            "DPOR transitions/sec on the E14 herd cell is below %.0f%% of the \
             committed reference on every estimator; the checker's per-execution \
             or per-transition host cost has regressed"
            (100. *. !min_ratio))
  in
  if
    ratio_failed || spans_failed || vm_failed || cache_failed || rpc_failed
    || mc_failed
  then exit 1
  else Printf.printf "perf-gate: OK\n"
