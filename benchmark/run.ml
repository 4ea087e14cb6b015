(* The repository benchmark: one command, four workloads.

     run.exe --workload W --seed S --seconds T --trace 0|1
         Measure one workload in this process for about T seconds and
         print, as the last line, one JSON object: the end-to-end
         metrics with --trace 0, the per-layer metrics with --trace 1.
     run.exe [--seed S] [--seconds T] [--trace 0|1] [--runs R] [--out F]
         Every workload, each in its own child process, one at a time,
         for seeds S .. S+R-1; with --out, the results are saved for
         [compare].
     run.exe --quick
         Tiny sizes, both legs of every workload, and the output checked
         against BENCHMARK.json (the dune runtest rule).
     run.exe compare A.json B.json
         Each (metric, workload) pair of two saved sets of runs, judged
         against the bounds in BENCHMARK.json.

   The exit code is 0 only when every check passed. *)

module W = Workloads
module Engine = Mach_sim.Sim_engine
module Json = Mach_obs.Obs_json
module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_histogram = Mach_obs.Obs_histogram

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("ops_per_sim_s", "1/s");
    ("p50_cycles", "cycles");
    ("p99_cycles", "cycles");
    ("peak_rss_mb", "MB");
  ]

(* A metric that does not apply to a workload reads 0 there. *)
let per_layer =
  let each names f = List.concat_map f (Array.to_list names) in
  List.map
    (fun c -> ("sim." ^ c ^ "_per_op", "count"))
    [
      "steps";
      "spin_pauses";
      "parks";
      "context_switches";
      "bus_transactions";
      "atomic_ops";
      "cache_misses";
    ]
  @ [
      ("sim.host_ns_per_step", "ns");
      ("gc.minor_words_per_step", "words");
      ("gc.major_collections", "count");
      ("obs.spans_overhead", "ratio");
      ("lock.acquisitions_per_op", "count");
      ("lock.contended_ratio", "ratio");
      ("lock.wait_cycles_per_op", "cycles");
      ("lock.top_class_wait_share", "ratio");
      ("event.wait_p99_cycles", "cycles");
    ]
  @ each W.rpc_segments (fun s ->
        [
          ("ipc." ^ s ^ "_p50_cycles", "cycles");
          ("ipc." ^ s ^ "_p99_cycles", "cycles");
          ("ipc." ^ s ^ "_share", "ratio");
        ])
  @ [
      ("ipc.ledger_residual_cycles", "cycles");
      ("ipc.negative_segments", "count");
    ]
  @ each W.kernel_ops (fun s ->
        [
          ("kernel." ^ s ^ "_p50_cycles", "cycles");
          ("kernel." ^ s ^ "_p99_cycles", "cycles");
        ])
  @ [
      ("vm_cache.lookup_p50_cycles", "cycles");
      ("vm_cache.lookup_p99_cycles", "cycles");
      ("vm_cache.refill_p50_cycles", "cycles");
      ("vm_cache.refill_mean_cycles", "cycles");
      ("vm_cache.evict_p50_cycles", "cycles");
      ("vm_cache.evict_mean_cycles", "cycles");
      ("vm_cache.hit_ratio", "ratio");
      ("vm_cache.raced_misses", "count");
      ("mc.executions", "count");
      ("mc.transitions", "count");
      ("mc.choice_points", "count");
      ("mc.pruned", "count");
      ("bench.trace_overhead", "ratio");
    ]

(* Set-up is repeated this many times per run and reported as the
   median, so a quantity of 0.1-10 ms is stable enough to gate. *)
let setup_reps = 51

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else find ()
      in
      find ())

(* Lock and event layers, read from the library's own registries after a
   traced leg (reset just before it). *)
let obs_layers ~samples =
  let classes = Obs_profile.classes () in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 classes in
  let acq = total (fun c -> c.Obs_profile.acquisitions) in
  let contended = total (fun c -> c.Obs_profile.contended) in
  let wait = total (fun c -> c.Obs_profile.wait_cycles) in
  let top_name, top_wait =
    match Obs_profile.top ~n:1 with
    | c :: _ -> (c.Obs_profile.cls, c.Obs_profile.wait_cycles)
    | [] -> ("-", 0)
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let events =
    Obs_metrics.merged (Obs_metrics.histogram "event.wait_cycles")
  in
  ( [
      ("lock.acquisitions_per_op", ratio acq samples);
      ("lock.contended_ratio", ratio contended acq);
      ("lock.wait_cycles_per_op", ratio wait samples);
      ("lock.top_class_wait_share", ratio top_wait wait);
      ( "event.wait_p99_cycles",
        float_of_int (Obs_histogram.percentile events 99.) );
    ],
    top_name )

(* The result line; %.17g keeps every digit of a measured value. *)
let print_result ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

(* Every episode, set-ups included, starts from empty observability
   registries and a compacted heap.  The profiler keeps a table keyed by
   thread id, and ids never repeat, so without the reset each repetition
   would run against a larger table than the one before and get slower. *)
let fresh w leg ~setup_only =
  Obs_metrics.reset ();
  Obs_profile.reset ();
  Gc.compact ();
  w leg ~setup_only

let measure ~workload ~seed ~seconds ~trace ~quick =
  let w = (List.assoc workload W.all) ~seed ~quick in
  Printf.printf "== %s  seed %d\n%!" workload seed;
  let setups =
    List.init setup_reps (fun _ -> fresh w W.Plain ~setup_only:true)
  in
  let plain = ref [] and traced = ref [] and off = ref [] in
  let obs = ref ([], "-") and rss = ref 0. in
  let t_start = Unix.gettimeofday () in
  while !plain = [] || Unix.gettimeofday () -. t_start < seconds do
    let majors () = (Gc.quick_stat ()).Gc.major_collections in
    let minor0 = Gc.minor_words () and major0 = majors () in
    let e = fresh w W.Plain ~setup_only:false in
    let gc = (Gc.minor_words () -. minor0, majors () - major0) in
    (* Peak memory after set-up and one episode: a fixed amount of work,
       so it does not depend on how many episodes fit in the run. *)
    if !plain = [] then rss := peak_rss_mb ();
    plain := (e, gc) :: !plain;
    if trace then begin
      let t = fresh w W.Traced ~setup_only:false in
      obs := obs_layers ~samples:(max 1 (Array.length t.W.lat));
      traced := t :: !traced;
      (* The model checker forces the library's spans on. *)
      if workload <> "mc-verify" then
        off := fresh w W.Spans_off ~setup_only:false :: !off
    end
  done;
  let plain = List.rev !plain in
  let traced = List.rev !traced and off = List.rev !off in
  let plain_eps = List.map fst plain in
  let first = List.hd plain_eps in
  (* Checks: the workload's own, then that every repetition and every
     leg reproduces the first run's simulated numbers exactly. *)
  let problems = ref [] in
  let problem s =
    if not (List.mem s !problems) then problems := s :: !problems
  in
  let measured = plain_eps @ traced @ off in
  List.iter (fun e -> List.iter problem e.W.problems) (setups @ measured);
  List.iter
    (fun e ->
      if e.W.stats <> first.W.stats || e.W.lat <> first.W.lat then
        problem "a repetition did not reproduce the first run's numbers")
    plain_eps;
  List.iter
    (fun e ->
      if e.W.stats <> first.W.stats then
        problem "Engine.stats differ with tracing on";
      if e.W.lat <> first.W.lat then problem "latencies differ with tracing on";
      match List.assoc_opt "ipc.ledger_residual_cycles" e.W.layers with
      | Some r when r <> 0. ->
          problem "ipc ledger segments do not sum to the client total"
      | _ -> ())
    traced;
  List.iter
    (fun e ->
      if e.W.stats <> first.W.stats then
        problem "Engine.stats differ with spans off")
    off;
  let samples = Array.length first.W.lat in
  let sorted = Ledger.sorted first.W.lat in
  (* Host time of a leg is its fastest episode: every episode does the
     same simulated work, and a shared host's noise only ever adds time. *)
  let fastest l =
    List.fold_left (fun acc e -> Float.min acc e.W.wall_s) infinity l
  in
  let wall = fastest plain_eps in
  let ratio a b = if b = 0. then 0. else a /. b in
  let metrics =
    if not trace then
      [
        ("setup_s", Ledger.median (List.map (fun e -> e.W.setup_s) setups));
        ("wall_s", wall);
        ( "ops_per_sim_s",
          1e9 *. ratio (float_of_int samples) (float_of_int first.W.window) );
        ("p50_cycles", float_of_int (Ledger.percentile sorted 50.));
        ("p99_cycles", float_of_int (Ledger.percentile sorted 99.));
        ("peak_rss_mb", !rss);
      ]
    else begin
      let steps = float_of_int first.W.steps in
      let per_op c = ratio (float_of_int c) (float_of_int samples) in
      let st f =
        match first.W.stats with Some s -> per_op (f s) | None -> 0.
      in
      let last_traced = List.nth traced (List.length traced - 1) in
      let obs_metrics, top_class = !obs in
      Printf.printf "  top lock class by wait: %s\n" top_class;
      (match last_traced.W.spans with
      | Some sp ->
          Ledger.Spans.print sp;
          if Sys.file_exists "benchmark" then begin
            let dir = Filename.concat "benchmark" "out" in
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            Ledger.Spans.write sp
              (Filename.concat dir
                 (Printf.sprintf "%s-seed%d.spans.json" workload seed))
          end
      | None -> ());
      [
        ("sim.steps_per_op", per_op first.W.steps);
        ("sim.spin_pauses_per_op", st (fun s -> s.Engine.spin_pauses));
        ("sim.parks_per_op", st (fun s -> s.Engine.parks));
        ( "sim.context_switches_per_op",
          st (fun s -> s.Engine.context_switches) );
        ( "sim.bus_transactions_per_op",
          st (fun s -> s.Engine.bus_transactions) );
        ("sim.atomic_ops_per_op", st (fun s -> s.Engine.atomic_ops));
        ("sim.cache_misses_per_op", st (fun s -> s.Engine.cache_misses));
        ("sim.host_ns_per_step", 1e9 *. ratio wall steps);
        ( "gc.minor_words_per_step",
          Ledger.median (List.map (fun (_, (m, _)) -> ratio m steps) plain) );
        ( "gc.major_collections",
          Ledger.median
            (List.map (fun (_, (_, n)) -> float_of_int n) plain) );
        ( "obs.spans_overhead",
          if off = [] then 0. else ratio wall (fastest off) -. 1. );
        ("bench.trace_overhead", ratio (fastest traced) wall -. 1.);
      ]
      @ obs_metrics @ last_traced.W.layers
    end
  in
  let declared = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name metrics) ~default:0. in
        if not (Float.is_finite v) then problem (name ^ " is not finite");
        (name, (if Float.is_finite v then v else 0.), unit))
      declared
  in
  (* A failed check counts as one failed operation. *)
  let attempted =
    max 1 (List.fold_left (fun acc e -> acc + e.W.ops) 0 measured)
  in
  let failed =
    min attempted
      (List.fold_left (fun acc e -> acc + e.W.failed) 0 measured
      + List.length !problems)
  in
  let correct = failed = 0 in
  Printf.printf
    "  %d episodes, %d samples per episode, %d setups; error_rate %.4f\n"
    (List.length plain) samples setup_reps
    (float_of_int failed /. float_of_int attempted);
  Printf.printf "  episode wall_s: %s\n"
    (String.concat " "
       (List.map (fun e -> Printf.sprintf "%.3f" e.W.wall_s) plain_eps));
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-32s %16.6g %s\n" name v unit)
    metrics;
  List.iter
    (fun p -> Printf.printf "  CHECK FAILED: %s\n" p)
    (List.rev !problems);
  print_result ~correct ~attempted ~failed metrics;
  correct

(* ------------------------------------------------------------------ *)
(* Several workloads, each in its own process                          *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let member_exn k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith ("missing key " ^ k)

let to_float = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> failwith "not a number"

let to_list = function Json.List l -> l | _ -> failwith "not a list"
let to_str = function Json.String s -> s | _ -> failwith "not a string"

(* Run one workload in a child process and return its exit status, its
   output and its last line. *)
let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let last = match !lines with l :: _ -> l | [] -> "" in
  (status = Unix.WEXITED 0, List.rev !lines, last)

(* BENCHMARK.json: the declared workloads and metrics, and the bounds. *)
let manifest () = Json.of_string (read_file "BENCHMARK.json") |> Result.get_ok

let declared_metrics key =
  List.map
    (fun m -> (to_str (member_exn "name" m), to_str (member_exn "unit" m)))
    (to_list (member_exn key (manifest ())))

(* The printed result must carry exactly the declared metrics. *)
let schema_problems ~trace result =
  let declared =
    declared_metrics (if trace then "per_layer" else "end_to_end")
  in
  let metrics =
    match member_exn "metrics" result with Json.Obj kv -> kv | _ -> []
  in
  let unit_of m = to_str (member_exn "unit" m) in
  List.filter_map
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | None -> Some ("missing metric " ^ name)
      | Some m when unit_of m <> unit -> Some ("wrong unit for " ^ name)
      | Some _ -> None)
    declared
  @ List.filter_map
      (fun (n, _) ->
        if List.mem_assoc n declared then None
        else Some ("undeclared metric " ^ n))
      metrics
  @
  if
    member_exn "correct" result = Json.Bool true
    && to_float (member_exn "attempted" result) >= 1.
  then []
  else [ "result not correct" ]

let run_all ~seed ~seconds ~trace ~runs ~quick ~out =
  let ok = ref true and saved = ref [] in
  if quick then begin
    let listed =
      List.map
        (fun w -> to_str (member_exn "name" w))
        (to_list (member_exn "workloads" (manifest ())))
    in
    if listed <> List.map fst W.all then begin
      print_endline "BENCHMARK.json workloads differ from the benchmark's";
      ok := false
    end
  end;
  List.iter
    (fun (workload, _) ->
      for r = 0 to runs - 1 do
        List.iter
          (fun tr ->
            let args =
              [
                "--workload"; workload;
                "--seed"; string_of_int (seed + r);
                "--seconds"; Printf.sprintf "%g" seconds;
                "--trace"; (if tr then "1" else "0");
              ]
              @ if quick then [ "--quick" ] else []
            in
            let exited_ok, output, last = run_child args in
            (* --quick stays quiet unless something failed. *)
            if not (quick && exited_ok) then List.iter print_endline output;
            if not exited_ok then ok := false;
            match Json.of_string last with
            | Error e ->
                Printf.printf "%s: unreadable result (%s)\n" workload e;
                ok := false
            | Ok result ->
                if quick then
                  List.iter
                    (fun p ->
                      Printf.printf "%s trace %b: %s\n" workload tr p;
                      ok := false)
                    (schema_problems ~trace:tr result);
                saved :=
                  Printf.sprintf
                    "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \
                     \"result\": %s}"
                    workload (seed + r) (if tr then 1 else 0) last
                  :: !saved)
          (if quick then [ false; true ] else [ trace ])
      done)
    W.all;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "{\"runs\": [\n%s\n]}\n"
            (String.concat ",\n" (List.rev !saved))))
    out;
  Printf.printf "benchmark %s\n" (if !ok then "ok" else "FAILED");
  !ok

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

(* (workload, metric) -> values of the untraced runs in a saved set. *)
let load_runs path =
  let runs =
    to_list
      (member_exn "runs" (Json.of_string (read_file path) |> Result.get_ok))
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun run ->
      if to_float (member_exn "trace" run) = 0. then begin
        let w = to_str (member_exn "workload" run) in
        match member_exn "metrics" (member_exn "result" run) with
        | Json.Obj kv ->
            List.iter
              (fun (m, v) ->
                let prev =
                  Option.value (Hashtbl.find_opt tbl (w, m)) ~default:[]
                in
                Hashtbl.replace tbl (w, m)
                  (to_float (member_exn "value" v) :: prev))
              kv
        | _ -> ()
      end)
    runs;
  tbl

let compare_sets a b =
  let ta = load_runs a and tb = load_runs b in
  let worse = ref false in
  Printf.printf "%-12s %-14s %14s %8s %14s %8s %8s  %s\n" "workload" "metric"
    "median A" "spread" "median B" "spread" "bound" "verdict";
  List.iter
    (fun m ->
      let name = to_str (member_exn "name" m) in
      let lower = to_str (member_exn "better" m) = "lower" in
      let bound = to_float (member_exn "bound" m) in
      List.iter
        (fun (w, _) ->
          match (Hashtbl.find_opt ta (w, name), Hashtbl.find_opt tb (w, name))
          with
          | Some va, Some vb ->
              let ma = Ledger.median va and mb = Ledger.median vb in
              let sa = Ledger.spread va and sb = Ledger.spread vb in
              let beats x y = if lower then x < y else x > y in
              (* Share by which B is worse than A (negative: better). *)
              let worse_by =
                if ma = 0. then 0.
                else (if lower then mb -. ma else ma -. mb) /. Float.abs ma
              in
              let verdict =
                if List.for_all (fun y -> List.for_all (beats y) va) vb then
                  "better"
                else if Float.max sa sb > bound then "unresolved"
                else if worse_by > bound then "worse"
                else if -.worse_by > bound then "better"
                else "within-bound"
              in
              if verdict = "worse" then worse := true;
              Printf.printf "%-12s %-14s %14.6g %8.4f %14.6g %8.4f %8.4f  %s\n"
                w name ma sa mb sb bound verdict
          | _ -> ())
        W.all)
    (to_list (member_exn "end_to_end" (manifest ())));
  not !worse

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let ok =
    match Array.to_list Sys.argv with
    | [ _; "compare"; a; b ] -> compare_sets a b
    | _ ->
        let workload = ref "" and seed = ref 1 and seconds = ref 15. in
        let trace = ref false and runs = ref 1 in
        let quick = ref false and out = ref "" in
        Arg.parse
          [
            ( "--workload",
              Arg.Set_string workload,
              "NAME measure one workload in this process" );
            ("--seed", Arg.Set_int seed, "N input seed (default 1)");
            ( "--seconds",
              Arg.Set_float seconds,
              "T measure for about T seconds (default 15)" );
            ( "--trace",
              Arg.Symbol ([ "0"; "1" ], fun s -> trace := s = "1"),
              " end-to-end (0) or per-layer (1) metrics" );
            ( "--runs",
              Arg.Set_int runs,
              "R seeds per workload when running them all" );
            ("--out", Arg.Set_string out, "FILE save the results for compare");
            ( "--quick",
              Arg.Set quick,
              " tiny sizes, both legs, output checked against BENCHMARK.json"
            );
          ]
          (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
          "run.exe [--workload NAME] [--seed N] [--seconds T] [--trace 0|1] \
           | compare A.json B.json";
        if !workload <> "" then begin
          if not (List.mem_assoc !workload W.all) then begin
            prerr_endline ("unknown workload " ^ !workload);
            exit 2
          end;
          measure ~workload:!workload ~seed:!seed ~seconds:!seconds
            ~trace:!trace ~quick:!quick
        end
        else if !quick then
          run_all ~seed:!seed ~seconds:0. ~trace:false ~runs:1 ~quick:true
            ~out:None
        else
          run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~runs:!runs
            ~quick:false
            ~out:(if !out = "" then None else Some !out)
  in
  exit (if ok then 0 else 1)
