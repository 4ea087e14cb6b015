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
   together.  Two checks read this spans-off engine row: the throughput
   check ([min_ratio], 0.9 times the reference) and the tighter
   [max_spans_overhead] check (0.03: at least 0.97 times the same
   reference).  Neither measures what spans cost.

   The host-time rows `engine64` (best-of-3 steps/sec of the 64-cpu
   RPC serving run) and `mc` (best-of-N DPOR transitions/sec on the
   E14 herd cell) are checked the same way: `vs_baseline` and
   `vs_calib` against [min_ratio] times their committed references,
   failing only when both are below.

   The cost of spans, which are on by default, is checked on
   `engine.spans.on_vs_off`: spans-on over spans-off steps/sec of the
   engine row, both measured in one process, against the committed
   floor `engine.min_spans_on_vs_off`.

   Deterministic rows (vm.range_speedup, cache.read_speedup,
   rpc.throughput_speedup) are simulated-time makespan ratios and are
   checked directly against their committed floors — no estimator
   pairing needed.  A ratio hides a slowdown that hits both of its
   sides equally, so each row also checks the two makespans behind it
   for equality with the reference's exact_<field> values.

   Every check belongs to one row of [rows] (engine, spans, vm, cache,
   rpc, mc, engine64), which also names the reference fields it reads.
   A reference field that looks like a floor (vs_baseline, vs_calib, or
   a name starting min_, max_ or exact_) but that no row reads is an
   error (exit 2): a floor added to the reference without a check would
   gate nothing.

   --inject-slowdown halves every measured value before the comparison;
   --inject-row ROW halves only that row; --list-rows prints the row
   names.  The selftest (`make perf-gate-selftest`) injects every listed
   row to prove the gate actually trips on each one (a gate that cannot
   fail gates nothing).  It reads the committed measurement (--perf on
   HEAD's BENCH_sim_perf.json), not a fresh one: a host-time row
   measured in a fast window can stay above its floor when halved. *)

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

let perf = ref "BENCH_sim_perf.json"
let reference = ref "bench/perf_reference.json"
let min_ratio = 0.9
let max_spans_overhead = 0.03
let inject = ref false
let inject_row = ref ""

let estimators section =
  let injected = !inject || !inject_row = section in
  ( injected,
    List.map
      (fun field ->
        let m = section_field section !perf field in
        let m = if injected then m /. 2. else m in
        (field, m, section_field section !reference field))
      [ "vs_baseline"; "vs_calib" ] )

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

(* Values checked directly against a committed floor, with no
   estimator pairing.  Each check runs only when the committed
   reference carries its floor (older references predate it), and
   --inject-row ROW halves just that value so the selftest can prove
   each one trips on its own. *)
let lookup path keys =
  let doc = json_of_file path in
  match
    List.fold_left
      (fun v k -> Option.bind v (Obs_json.member k))
      (Some doc) keys
  with
  | None -> None
  | Some v -> (
      match number (Some v) with
      | Some f when f > 0. -> Some f
      | Some _ -> die "%s: %s must be positive" path (String.concat "." keys)
      | None -> None)

let floor_check ~row ~label ~floor ~measured ~why fail_text =
  match lookup !reference floor with
  | None -> false
  | Some floor -> (
      let name = String.concat "." measured in
      match lookup !perf measured with
      | None -> die "%s: %s missing" !perf name
      | Some m ->
          let injected = !inject || !inject_row = row in
          let m = if injected then m /. 2. else m in
          Printf.printf "perf-gate: %s: %s measured=%.2f  floor=%.2f%s\n"
            label name m floor
            (if injected then "  [injected 2x slowdown]" else "");
          if m < floor then begin
            Printf.printf "perf-gate: FAIL: %s (%s)\n" (fail_text floor) why;
            true
          end
          else false)

type row = {
  row : string; (* the --inject-row name *)
  reads : (string * string) list; (* the reference fields it checks *)
  check : unit -> bool; (* true when the row fails *)
}

(* One makespan behind a deterministic ratio against the reference's
   exact_[field].  An injected slowdown doubles it. *)
let exact_check ~section field =
  match lookup !reference [ section; "exact_" ^ field ] with
  | None -> false
  | Some want -> (
      match lookup !perf [ section; field ] with
      | None -> die "%s: %s.%s missing" !perf section field
      | Some m ->
          let injected = !inject || !inject_row = section in
          let m = if injected then m *. 2. else m in
          Printf.printf "perf-gate: %s: %s.%s measured=%.0f  exact=%.0f%s\n"
            section section field m want
            (if injected then "  [injected 2x slowdown]" else "");
          if m <> want then
            Printf.printf
              "perf-gate: FAIL: %s: %s moved from %.0f to %.0f cycles \
               (deterministic simulated time: the timing changed; see `make \
               perf-reference`)\n"
              section field want m;
          m <> want)

(* Deterministic rows: simulated-time makespan ratios, which move only
   when the code changes, and the makespans behind each ratio. *)
let det_row ~section ~label ~ref_field ~meas_field ~makespans ~fail_text =
  {
    row = section;
    reads =
      (section, ref_field)
      :: List.map (fun f -> (section, "exact_" ^ f)) makespans;
    check =
      (fun () ->
        let ratio_failed =
          floor_check ~row:section ~label ~floor:[ section; ref_field ]
            ~measured:[ section; meas_field ]
            ~why:"the number is deterministic simulated time, not host noise"
            fail_text
        in
        (* Check every makespan, so every moved one is reported. *)
        let moved = List.filter (exact_check ~section) makespans in
        ratio_failed || moved <> []);
  }

(* A host-time row checked like the engine row, when the reference has
   it. *)
let host_row section label fail_msg =
  Obs_json.member section (json_of_file !reference) <> None
  && both_below ~section (fun r -> min_ratio *. r) label fail_msg

let estimator_fields section =
  [ (section, "vs_baseline"); (section, "vs_calib") ]

let rows =
  [
    {
      row = "engine";
      reads = estimator_fields "engine";
      check =
        (fun () ->
          let ratio_failed =
            both_below
              (fun r -> min_ratio *. r)
              "throughput"
              (Printf.sprintf
                 "engine throughput is below %.0f%% of the committed \
                  reference on every estimator (bench/perf_reference.json); \
                  if the slowdown is intentional, regenerate the reference \
                  with `make perf-reference`"
                 (100. *. min_ratio))
          in
          (* The same spans-off engine row against the same reference,
             with the tighter floor 1 - [max_spans_overhead].  The
             reference predates the span layer, so this bounds how far
             the dormant span hooks (with everything else on the step
             path) may drift below it; it measures no span cost itself --
             the spans row does. *)
          let spans_failed =
            both_below
              (fun r -> (1. -. max_spans_overhead) *. r)
              "spans-disabled overhead"
              (Printf.sprintf
                 "the spans-disabled engine is more than %.0f%% below the \
                  pre-span reference on every estimator; the dormant \
                  observability hooks are not free"
                 (100. *. max_spans_overhead))
          in
          ratio_failed || spans_failed);
    };
    (* The shipped configuration: spans are on by default.  The engine
       row measures spans off and on in the same process, best-of-N
       each, so their ratio cancels host speed; it is checked against
       its own committed floor. *)
    {
      row = "spans";
      reads = [ ("engine", "min_spans_on_vs_off") ];
      check =
        (fun () ->
          floor_check ~row:"spans" ~label:"spans-on cost"
            ~floor:[ "engine"; "min_spans_on_vs_off" ]
            ~measured:[ "engine"; "spans"; "on_vs_off" ]
            ~why:"spans on and off are measured in the same process"
            (fun floor ->
              Printf.sprintf
                "the engine with spans on (the default) runs below %.2fx of \
                 spans off; recording spans has become more expensive"
                floor));
    };
    (* The range-lock fault path (E16). *)
    det_row ~section:"vm" ~label:"vm fault path" ~ref_field:"min_range_speedup"
      ~meas_field:"range_speedup"
      ~makespans:[ "coarse_makespan"; "range_makespan" ]
      ~fail_text:(fun floor ->
        Printf.sprintf
          "the range-locked fault storm no longer beats the coarse map lock \
           by at least %.1fx at 16 cpus; the range-lock fault path has \
           reserialized"
          floor);
    (* The scache page-cache read path (E19). *)
    det_row ~section:"cache" ~label:"cache read path"
      ~ref_field:"min_read_speedup" ~meas_field:"read_speedup"
      ~makespans:[ "mutex_makespan"; "scache_makespan" ]
      ~fail_text:(fun floor ->
        Printf.sprintf
          "the scache page cache no longer beats the mutex cache by at least \
           %.1fx at 64 cpus; the read side has reserialized"
          floor);
    (* The RPC serving path (E20): flat/sharded+batched makespan ratio
       of the 64-cpu serving workload. *)
    det_row ~section:"rpc" ~label:"rpc serving path"
      ~ref_field:"min_throughput_speedup" ~meas_field:"throughput_speedup"
      ~makespans:[ "flat_makespan"; "sharded_batched_makespan" ]
      ~fail_text:(fun floor ->
        Printf.sprintf
          "sharded+batched RPC serving no longer beats the flat batch=1 \
           server by at least %.1fx at 64 cpus; the hot path has \
           reserialized (global name-table lock back on the lookup path, \
           or batching degraded to one message per port-lock hold)"
          floor);
    (* The model checker's host cost per transition (E14 herd cell). *)
    {
      row = "mc";
      reads = estimator_fields "mc";
      check =
        (fun () ->
          host_row "mc" "model checker"
            (Printf.sprintf
               "DPOR transitions/sec on the E14 herd cell is below %.0f%% of \
                the committed reference on every estimator; the checker's \
                per-execution or per-transition host cost has regressed"
               (100. *. min_ratio)));
    };
    (* Engine host cost per step at 64 cpus, where a scheduler step that
       costs O(cpus) shows four times as strongly as in the 16-cpu
       engine row. *)
    {
      row = "engine64";
      reads = estimator_fields "engine64";
      check =
        (fun () ->
          host_row "engine64" "64-cpu engine"
            (Printf.sprintf
               "64-cpu engine steps/sec is below %.0f%% of the committed \
                reference on every estimator; the scheduler's per-step host \
                cost has regressed (an O(cpus) candidate scan is back?)"
               (100. *. min_ratio)));
    };
  ]

(* Every floor-like field of the reference must be read by some row. *)
let check_reference_fields () =
  let is_floor f =
    f = "vs_baseline" || f = "vs_calib"
    || String.starts_with ~prefix:"min_" f
    || String.starts_with ~prefix:"max_" f
    || String.starts_with ~prefix:"exact_" f
  in
  let read = List.concat_map (fun r -> r.reads) rows in
  match json_of_file !reference with
  | Obs_json.Obj sections ->
      List.iter
        (function
          | section, Obs_json.Obj fields ->
              List.iter
                (fun (f, _) ->
                  if is_floor f && not (List.mem (section, f) read) then
                    die "%s: %s.%s is a floor that no row checks" !reference
                      section f)
                fields
          | _ -> ())
        sections
  | _ -> die "%s: not a JSON object" !reference

let () =
  let list_rows = ref false in
  let spec =
    [
      ("--perf", Arg.Set_string perf, "FILE measured perf json (default BENCH_sim_perf.json)");
      ("--reference", Arg.Set_string reference, "FILE committed reference json");
      ("--inject-slowdown", Arg.Set inject, " halve the measured value (gate selftest)");
      ( "--inject-row",
        Arg.Set_string inject_row,
        "ROW halve only that row's measured values (see --list-rows; gate \
         selftest per row)" );
      ("--list-rows", Arg.Set list_rows, " print the row names, one a line");
    ]
  in
  Arg.parse spec
    (fun a -> die "unexpected argument %S" a)
    "perf_gate [--perf FILE] [--reference FILE] [--inject-slowdown] \
     [--inject-row ROW] [--list-rows]";
  if !list_rows then List.iter (fun r -> print_endline r.row) rows
  else begin
    if !inject_row <> "" && not (List.exists (fun r -> r.row = !inject_row) rows)
    then die "unknown row %S (see --list-rows)" !inject_row;
    check_reference_fields ();
    (* Run every row, so every failure is reported. *)
    let failed = List.filter (fun r -> r.check ()) rows in
    if failed <> [] then exit 1 else Printf.printf "perf-gate: OK\n"
  end
