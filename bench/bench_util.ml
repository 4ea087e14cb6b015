(* Shared infrastructure for the experiment harness: table printing, sim
   runs with fixed configurations, and a thin Bechamel wrapper for native
   per-operation costs. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config

let printf = Printf.printf

let section ~id ~title ~claim =
  printf "\n%s\n" (String.make 78 '=');
  printf "%s: %s\n" id title;
  printf "paper claim: %s\n" claim;
  printf "%s\n" (String.make 78 '-')

let table ~header rows =
  let widths =
    List.fold_left
      (fun acc row ->
        List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    List.iter2 (fun w cell -> printf "%-*s  " w cell) widths row;
    printf "\n"
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* Run a workload on the simulated machine with the bench configuration
   and return the stats.  [tweak] post-processes the configuration (e.g.
   to change the backoff cap). *)
let sim_run ?(cpus = 8) ?(seed = 3) ?(tweak = Fun.id) f =
  let cfg = tweak { (Config.bench ~cpus ()) with Config.seed } in
  Engine.run ~cfg f

let f0 x = Printf.sprintf "%.0f" x
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let i = string_of_int

(* The smallest size in [sweep] (ascending) from which [beats] holds for
   every size up to the end of the sweep, if any. *)
let rec crossover ~beats = function
  | [] -> None
  | c :: rest as sizes ->
      if List.for_all beats sizes then Some c else crossover ~beats rest

(* The two verdict rows of E6 and E11: a seeded exploration's schedules
   and how many completed or deadlocked. *)
let verdict_row name (v : Mach_sim.Sim_explore.verdict) =
  [
    name;
    i v.seeds_run;
    i v.completed;
    i (v.sleep_deadlocks + v.spin_deadlocks);
  ]

module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_histogram = Mach_obs.Obs_histogram
module Obs_json = Mach_obs.Obs_json

(* ------------------------------------------------------------------ *)
(* Row specs: one column list prints a table and writes its JSON rows   *)
(* ------------------------------------------------------------------ *)

(* How a value prints in a table cell and what it writes to JSON. *)
type 'a value = { show : 'a -> string; json : 'a -> Obs_json.t }

let int = { show = i; json = (fun n -> Obs_json.Int n) }
let str = { show = Fun.id; json = (fun s -> Obs_json.String s) }
let real show = { show; json = (fun x -> Obs_json.Float x) }

(* A value that may be missing: printed "-", written null. *)
let opt v =
  {
    show = Option.fold ~none:"-" ~some:v.show;
    json = Option.fold ~none:Obs_json.Null ~some:v.json;
  }

(* A column of a table of ['r] rows: printed under [header], written
   under [key], or both.  A [cell] of None leaves the key out of that
   row. *)
type 'r column = {
  header : string option;
  key : string option;
  text : 'r -> string;
  cell : 'r -> Obs_json.t option;
}

(* A column in both the table and the JSON; [key] defaults to the
   header. *)
let col ?key header v get =
  {
    header = Some header;
    key = Some (Option.value key ~default:header);
    text = (fun r -> v.show (get r));
    cell = (fun r -> Some (v.json (get r)));
  }

let json_only c = { c with header = None }
let table_only c = { c with key = None }

(* One row as a JSON object of the keyed columns, in column order. *)
let json_obj cols r =
  Obs_json.Obj
    (List.filter_map
       (fun c ->
         match (c.key, c.cell r) with
         | Some k, Some j -> Some (k, j)
         | _ -> None)
       cols)

(* Print [rows] as a table of the columns with a header, and return them
   as a JSON list of the columns with a key. *)
let tabulate cols rows =
  let shown = List.filter (fun c -> c.header <> None) cols in
  table
    ~header:(List.map (fun c -> Option.get c.header) shown)
    (List.map (fun r -> List.map (fun c -> c.text r) shown) rows);
  Obs_json.List (List.map (json_obj cols) rows)

(* ------------------------------------------------------------------ *)
(* Sweeps: one result per (config, cpus) point                          *)
(* ------------------------------------------------------------------ *)

type 'r point = { name : string; cpus : int; res : 'r }

(* [run cfg cpus] for every named config at every cpu count of [sweep],
   cpus outer, in order.  A run that returns None leaves its point out. *)
let grid ~sweep configs run =
  List.concat_map
    (fun cpus ->
      List.filter_map
        (fun (name, cfg) ->
          Option.map (fun res -> { name; cpus; res }) (run cfg cpus))
        configs)
    sweep

let find grid name cpus =
  List.find_map
    (fun p -> if p.name = name && p.cpus = cpus then Some p.res else None)
    grid

(* How many times faster [name] ran than [base] at [cpus] (the ratio of
   their makespans), if both points are in the grid. *)
let speedup ~makespan grid ~base name cpus =
  match (find grid base cpus, find grid name cpus) with
  | Some b, Some r ->
      Some (float_of_int (makespan b) /. float_of_int (makespan r))
  | _ -> None

(* A sweep's speedup table: per cpu count of [sweep], each config's
   speedup over [base], given as (config, header, key). *)
let speedup_table ~makespan grid ~sweep ~base configs =
  tabulate
    (col "cpus" int Fun.id
    :: List.map
         (fun (name, header, key) ->
           col header ~key (opt (real f2)) (speedup ~makespan grid ~base name))
         configs)
    sweep

(* Every sweep table opens with the cpu count and the config's name. *)
let point_cols header =
  [ col "cpus" int (fun p -> p.cpus); col header str (fun p -> p.name) ]

(* The engine counters of a sweep of plain runs. *)
let stats_cols =
  [
    col "makespan" int (fun p -> p.res.Engine.makespan);
    col "bus-txns" ~key:"bus_txns" int (fun p -> p.res.Engine.bus_transactions);
    col "atomics" int (fun p -> p.res.Engine.atomic_ops);
  ]

let misses_col = col "misses" int (fun p -> p.res.Engine.cache_misses)

(* ------------------------------------------------------------------ *)
(* The runs of E16, E19 and E20, which perf.ml's gate rows repeat       *)
(* ------------------------------------------------------------------ *)

module Scenarios = Mach_kernel.Scenarios

(* E16: each thread owns a disjoint slice of one map and repeatedly
   allocates, faults and deallocates it.  The workload is deliberately
   light per thread (the 64-cpu coarse row is quadratic in waiters) so
   the sweep stays in smoke-test range. *)
let vm_storm locking cpus =
  sim_run ~cpus (fun () ->
      Scenarios.vm_fault_storm ~locking ~threads:cpus ~pages_per_thread:2
        ~rounds:1 ())

(* E19: read-mostly page lookups against one vm_cache. *)
let cache_storm locking cpus =
  sim_run ~cpus (fun () -> Scenarios.vm_cache_ops ~locking ~threads:cpus ())

(* E20: one run of the RPC serving workload.  RPCs/sec is simulated time
   at a nominal 1 GHz (1 cycle = 1 ns): sustained = served x 1e9 /
   makespan-cycles.  The latency percentiles come from the
   rpc.latency_cycles histogram the scenario feeds per call; metrics are
   reset per run so they are this run's, not the sweep's aggregate. *)
type rpc = {
  served : int;
  drained : int;
  makespan : int;
  steps : int;
  rps : float;
  p50 : int;
  p99 : int;
}

(* Runs of [rpc_serve] that did not complete. *)
let rpc_failures = ref 0

let rpc_serve ?(drain = false) ~cpus ~shards ~batch ~calls_each () =
  Obs_metrics.reset ();
  let cfg = { (Config.bench ~cpus ()) with Config.seed = 3 } in
  let counts = ref (0, 0) in
  let failed what detail =
    incr rpc_failures;
    printf "%s (%d cpus, shards=%d batch=%d)%s\n" what cpus shards batch
      detail;
    None
  in
  match
    Engine.run_outcome ~cfg (fun () ->
        counts :=
          Scenarios.rpc_serve ~shards ~batch ~calls_each
            ~drain_under_load:drain ())
  with
  | Engine.Completed stats ->
      let served, drained = !counts in
      let h = Obs_metrics.merged (Obs_metrics.histogram "rpc.latency_cycles") in
      Some
        {
          served;
          drained;
          makespan = stats.Engine.makespan;
          steps = stats.Engine.steps;
          rps =
            float_of_int served *. 1e9
            /. float_of_int (max 1 stats.Engine.makespan);
          p50 = Obs_histogram.percentile h 50.;
          p99 = Obs_histogram.percentile h 99.;
        }
  | Engine.Panicked msg -> failed "PANIC" (": " ^ msg)
  | Engine.Deadlocked (_, msg) -> failed "DEADLOCK" (": " ^ msg)
  | Engine.Hit_step_limit -> failed "STEP LIMIT" ""

(* ------------------------------------------------------------------ *)
(* Observability: per-experiment latency percentiles + contention       *)
(* ------------------------------------------------------------------ *)

(* Experiments can attach extra JSON sections (keyed objects) to their
   entry in BENCH_observability.json — E18 uses this for its span /
   critical-path / flight sections.  Cleared with the rest of the
   observability state before each experiment. *)
let obs_extra : (string * Obs_json.t) list ref = ref []
let obs_add_json key j = obs_extra := (key, j) :: !obs_extra

(* The metrics registry and contention profiler are process-global; the
   driver resets them before each experiment so each section reports that
   experiment's runs only. *)
let obs_reset () =
  Obs_metrics.reset ();
  Obs_profile.reset ();
  obs_extra := []

let latency_histograms =
  [
    "lock.wait_cycles";
    "lock.hold_cycles";
    "event.wait_cycles";
    "tlb.shootdown_cycles";
    "rpc.latency_cycles";
  ]

let obs_section ~id () =
  printf "\n%s observability (cycles):\n" id;
  let rows =
    List.filter_map
      (fun name ->
        let h = Obs_metrics.merged (Obs_metrics.histogram name) in
        if Obs_histogram.count h = 0 then None
        else
          Some
            [
              name;
              i (Obs_histogram.count h);
              i (Obs_histogram.percentile h 50.);
              i (Obs_histogram.percentile h 90.);
              i (Obs_histogram.percentile h 99.);
              i (Obs_histogram.max_value h);
            ])
      latency_histograms
  in
  if rows = [] then printf "(no lock or event activity recorded)\n"
  else table ~header:[ "histogram"; "n"; "p50"; "p90"; "p99"; "max" ] rows;
  match Obs_profile.top ~n:3 with
  | [] -> ()
  | top ->
      printf "\n";
      table
        ~header:[ "top lock class"; "acquires"; "contended"; "wait-cycles" ]
        (List.map
           (fun (c : Obs_profile.class_stats) ->
             [ c.cls; i c.acquisitions; i c.contended; i c.wait_cycles ])
           top)

(* Write [doc] to [path] as one line and say so. *)
let write_json ~what path doc =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs_json.to_string doc);
      output_char oc '\n');
  printf "\n%s written to %s\n" what path

(* An experiment's BENCH file: one object, keyed by the experiment id. *)
let write_bench ~what path id j =
  write_json ~what path (Obs_json.Obj [ (id, j) ])

let obs_json () =
  Obs_json.Obj
    ([
       ("metrics", Obs_metrics.to_json ());
       ("profile", Obs_profile.to_json ());
     ]
    @ List.rev !obs_extra)

(* ------------------------------------------------------------------ *)
(* Bechamel: native per-operation costs                                 *)
(* ------------------------------------------------------------------ *)

(* Returns (name, ns/run) for each test. *)
let bechamel_run tests =
  let open Bechamel in
  let open Toolkit in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.map
    (fun test ->
      let results =
        List.concat_map
          (fun t ->
            let raw = Benchmark.run cfg [ instance ] t in
            let est = Analyze.one ols instance raw in
            match Analyze.OLS.estimates est with
            | Some [ ns ] -> [ (Test.Elt.name t, ns) ]
            | _ -> [ (Test.Elt.name t, nan) ])
          (Test.elements test)
      in
      (Test.name test, results))
    tests
