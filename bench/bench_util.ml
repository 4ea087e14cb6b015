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

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let i = string_of_int

(* The smallest size in [sweep] (ascending) from which [beats] holds for
   every size up to the end of the sweep, if any. *)
let rec crossover ~beats = function
  | [] -> None
  | c :: rest as sizes ->
      if List.for_all beats sizes then Some c else crossover ~beats rest

(* ------------------------------------------------------------------ *)
(* Observability: per-experiment latency percentiles + contention       *)
(* ------------------------------------------------------------------ *)

module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_histogram = Mach_obs.Obs_histogram
module Obs_json = Mach_obs.Obs_json

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
