(* The engine perf regression harness.

   Measurements against fixed scenarios, so numbers are comparable
   across commits:

   - single-domain engine throughput: the 16-cpu E1 contention scenario
     (one lock, shared data, Timed policy) run repeatedly on one domain;
     reported as scheduler steps/second of wall-clock time.
   - 64-cpu engine throughput: the sharded+batched 64-cpu RPC serving
     run, reported as steps/second (best of 3);
   - model-checker throughput: DPOR over the E14 wakeup-herd cell,
     reported as committed transitions/second of wall-clock time.
   - domain-parallel seed sweep: `Sim_explore.run` over a fixed seed set,
     sequential vs. fanned out across domains, with the verdicts checked
     equal; reported as wall-clock speedup.
   - deterministic guards (vm, cache, rpc): two makespans of the E16, E19
     or E20 workload, run by the bench's own run functions, and their
     ratio.

   Results are written to BENCH_sim_perf.json so CI can archive the perf
   trajectory per PR (`make perf-smoke` runs the `--fast` variant). *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module Obs_json = Mach_obs.Obs_json
module Scenarios = Mach_kernel.Scenarios

(* The E1 contention workload on a ttas lock. *)
let contention ~iters () =
  Scenarios.contention
    ~lock:(K.Slock.make ~name:"e1" ~proto:K.Locks.ttas ())
    ~iters ()

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)

(* Pre-overhaul reference: steps/sec of the list-based scheduler on this
   same scenario and harness settings (repeats=10, iters=30), measured at
   the commit before the indexed-queue engine landed.  Kept so every
   future run reports its ratio to the same fixed point. *)
let baseline_steps_per_sec = 1_975_301.

(* Host-speed calibration: a fixed-work integer loop with no engine,
   no allocation and no observability hooks.  Engine steps/sec divided
   by calibration ops/sec cancels host speed — frequency scaling, a
   throttled or shared core slow both numerator and denominator — so
   the perf gate can compare the normalized value against a committed
   reference without absolute-throughput noise: only a real engine
   change moves the ratio.  Best-of-5 for the same reason the engine
   row is best-of-N (noise only ever slows a run). *)
let calib_iters = 10_000_000

let calib_once () =
  let x = ref 0x12345 in
  let (), secs =
    wall (fun () ->
        for _ = 1 to calib_iters do
          (* Knuth's 64-bit LCG multiplier, truncated to OCaml's int. *)
          x := (!x * 2862933555777941757) + 3037000493
        done;
        ignore (Sys.opaque_identity !x))
  in
  float_of_int calib_iters /. secs

let engine_throughput ~repeats ~iters =
  (* The throughput row is measured with spans OFF: the committed
     reference predates the span layer.  Spans ship ON, so the same
     workload is also measured spans on, and perf_gate holds the on/off
     ratio to its own floor. *)
  let run spans =
    let cfg = { (Config.bench ~cpus:16 ()) with Config.seed = 3; spans } in
    Engine.run ~cfg (contention ~iters)
  in
  (* Sustained untimed warmup (~0.3s): one run is not enough to carry
     allocator effects AND cpu frequency ramp outside the clock. *)
  let wt0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. wt0 < 0.3 do
    ignore (run false);
    ignore (run true)
  done;
  (* Each repeat is timed on its own and the BEST one is the gated
     statistic: host noise (frequency scaling, a busy core, GC luck)
     only ever slows a run, so best-of-N is the estimate of what the
     engine can do — a mean lets one cold repeat fail the gate. *)
  (* The spans-off run, the spans-on run and a short calibration sample
     alternate within every repeat, so that all three best-of-N cover
     the SAME time window: on a shared core, disjoint windows can land
     in different throttle modes and make a ratio of them noisier than
     either number. *)
  let steps_off = ref 0 and off_s = ref 0.0 in
  let best = ref 0.0 and best_on = ref 0.0 and best_calib = ref 0.0 in
  let timed spans best_of =
    let s, secs = wall (fun () -> run spans) in
    let sps = float_of_int s.Engine.steps /. secs in
    if sps > !best_of then best_of := sps;
    (s.Engine.steps, secs)
  in
  for _ = 1 to repeats do
    let steps, secs = timed false best in
    steps_off := !steps_off + steps;
    off_s := !off_s +. secs;
    ignore (timed true best_on);
    let c = calib_once () in
    if c > !best_calib then best_calib := c
  done;
  let steps_off = !steps_off and off_s = !off_s in
  let sps = !best and sps_on = !best_on and calib = !best_calib in
  let vs_calib = sps /. calib in
  Printf.printf
    "engine: 16-cpu E1 contention x%d  steps=%d  wall=%.3fs  best \
     steps/sec=%.0f (%.2fx of pre-overhaul baseline)\n%!"
    repeats steps_off off_s sps
    (sps /. baseline_steps_per_sec);
  Printf.printf
    "engine: same workload, spans on  steps/sec=%.0f  (%.3fx of spans-off)\n%!"
    sps_on (sps_on /. sps);
  Printf.printf
    "engine: calibration %.0f ops/sec; normalized steps-per-calib-op=%.5f\n%!"
    calib vs_calib;
  ( sps,
    Obs_json.Obj
      [
        ("scenario", Obs_json.String "e1-contention-16cpu");
        ("repeats", Obs_json.Int repeats);
        ("iters_per_worker", Obs_json.Int iters);
        ("steps", Obs_json.Int steps_off);
        ("wall_s", Obs_json.Float off_s);
        ("steps_per_sec", Obs_json.Float sps);
        ("baseline_steps_per_sec", Obs_json.Float baseline_steps_per_sec);
        ("vs_baseline", Obs_json.Float (sps /. baseline_steps_per_sec));
        ("calib_ops_per_sec", Obs_json.Float calib);
        ("vs_calib", Obs_json.Float vs_calib);
        ( "spans",
          Obs_json.Obj
            [
              ("off_steps_per_sec", Obs_json.Float sps);
              ("on_steps_per_sec", Obs_json.Float sps_on);
              ("on_vs_off", Obs_json.Float (sps_on /. sps));
            ] );
      ] )

let sweep ~seeds ~domains:requested =
  let seed_list = List.init seeds (fun s -> s + 1) in
  let scenario = contention ~iters:12 in
  let tweak cfg = { cfg with Config.policy = Config.Timed } in
  let run domains () =
    Explore.run ~cpus:4 ~seeds:seed_list ~domains ~tweak scenario
  in
  (* A "speedup" measured with more domains than cores is dominated by
     domain spawn cost and scheduler thrash, not by the engine (a 1-core
     CI runner used to report speedup=0.17x here).  Clamp the fan-out to
     the core count and skip the parallel leg outright on 1-core hosts,
     recording why in the json. *)
  let cores = Domain.recommended_domain_count () in
  let domains = min requested cores in
  let seq, seq_s = wall (run 1) in
  let common =
    [
      ("seeds", Obs_json.Int seeds);
      ("requested_domains", Obs_json.Int requested);
      ("domains", Obs_json.Int domains);
      ("cores", Obs_json.Int cores);
      ("core_bound", Obs_json.Bool (cores < requested));
      ("seq_wall_s", Obs_json.Float seq_s);
      ("completed", Obs_json.Int seq.Explore.completed);
    ]
  in
  if domains < 2 then begin
    Printf.printf
      "sweep: %d seeds  seq=%.3fs  (%d/%d completed); parallel leg SKIPPED: \
       host has %d core(s), a multi-domain speedup would be meaningless\n%!"
      seeds seq_s seq.Explore.completed seq.Explore.seeds_run cores;
    Obs_json.Obj
      (common
      @ [
          ("speedup", Obs_json.Null);
          ( "speedup_skipped",
            Obs_json.String "host has a single core; no parallel leg run" );
        ])
  end
  else begin
    let par, par_s = wall (run domains) in
    if seq <> par then begin
      Printf.eprintf "FATAL: parallel sweep verdict differs from sequential\n";
      exit 1
    end;
    let speedup = seq_s /. par_s in
    Printf.printf
      "sweep: %d seeds  seq=%.3fs  %d-domain=%.3fs  speedup=%.2fx  (%d/%d \
       completed, verdicts equal, %d core(s) available)\n%!"
      seeds seq_s domains par_s speedup seq.Explore.completed
      seq.Explore.seeds_run cores;
    if cores < requested then
      Printf.printf
        "sweep: note: %d domains requested but only %d core(s); fan-out \
         clamped to the core count\n%!"
        requested cores;
    Obs_json.Obj
      (common
      @ [
          ("par_wall_s", Obs_json.Float par_s);
          ("speedup", Obs_json.Float speedup);
          ("verdicts_equal", Obs_json.Bool true);
        ])
  end

(* ------------------------------------------------------------------ *)

(* The deterministic guard rows: two makespans of one workload, the
   same runs as the E16, E19 and E20 points, and their ratio.  For a
   fixed (cfg, seed) a makespan is schedule-deterministic simulated time,
   so the ratio has zero host noise and the gate can pin it tightly.  A
   change that reserializes the mechanism behind a ratio collapses it
   towards 1 and trips the gate without any wall-clock measurement. *)
let makespan_row ~section ~what ~scenario ~ratio (a, ma) (b, mb) =
  let speedup = float_of_int ma /. float_of_int mb in
  Printf.printf
    "%s: %s  %s makespan=%d  %s makespan=%d  %s=%.2fx (deterministic)\n%!"
    section what a ma b mb ratio speedup;
  let key label =
    String.map (function '+' -> '_' | c -> c) label ^ "_makespan"
  in
  Obs_json.Obj
    [
      ("scenario", Obs_json.String scenario);
      (key a, Obs_json.Int ma);
      (key b, Obs_json.Int mb);
      (ratio, Obs_json.Float speedup);
    ]

(* The range-locked fault path (E16 at 16 cpus): a regression of a
   range-lock conversion to whole-map width reserializes faults. *)
let vm_row () =
  let storm l = (Bench_util.vm_storm l 16).Engine.makespan in
  let coarse = storm Mach_vm.Vm_map.Coarse in
  let range = storm Mach_vm.Vm_map.Range in
  makespan_row ~section:"vm" ~what:"16-cpu fault storm"
    ~scenario:"vm-fault-storm-16cpu" ~ratio:"range_speedup"
    ("coarse", coarse) ("range", range)

(* The scache page cache's read side (E19 at 64 cpus): a read path
   falling back to the write-side sweep reserializes readers. *)
let cache_row () =
  let storm l = (Bench_util.cache_storm l 64).Engine.makespan in
  let mutex = storm Mach_vm.Vm_cache.Mutex in
  let scache = storm Mach_vm.Vm_cache.Scache in
  makespan_row ~section:"cache" ~what:"64-cpu lookup storm"
    ~scenario:"vm-cache-lookup-storm-64cpu" ~ratio:"read_speedup"
    ("mutex", mutex) ("scache", scache)

(* The RPC serving path (E20 at 64 cpus): name lookups falling back to
   one global table lock, or batching degrading to one message per lock
   hold, reserializes the hot path. *)
let rpc_serve ~shards ~batch =
  match Bench_util.rpc_serve ~cpus:64 ~shards ~batch ~calls_each:16 () with
  | Some r -> r
  | None ->
      Printf.eprintf "FATAL: 64-cpu rpc run (shards=%d batch=%d) failed\n"
        shards batch;
      exit 1

let rpc_row () =
  let flat = (rpc_serve ~shards:1 ~batch:1).Bench_util.makespan in
  let sharded = (rpc_serve ~shards:8 ~batch:8).Bench_util.makespan in
  makespan_row ~section:"rpc" ~what:"64-cpu serving" ~scenario:"rpc-serve-64cpu"
    ~ratio:"throughput_speedup" ("flat", flat) ("sharded+batched", sharded)

(* Best-of-[repeats] rate of [f], which returns the work it did, with a
   calibration sample interleaved after every repeat: the same
   estimator pair as the engine row. *)
let best_rate ~repeats f =
  let best = ref 0.0 and best_calib = ref 0.0 in
  for _ = 1 to repeats do
    let n, secs = wall f in
    let r = float_of_int n /. secs in
    if r > !best then best := r;
    let c = calib_once () in
    if c > !best_calib then best_calib := c
  done;
  (!best, !best_calib)

(* A host-throughput row: the best-of-[repeats] rate of [run], which
   returns the deterministic count of [unit]s it did and whether its
   result checked out.  The count must equal [expected], so a change to
   what is run cannot pass as a speedup and only the host cost per unit
   moves.  The rate is reported over the committed [baseline] and over
   the calibration, so the gate can pair the absolute and normalized
   estimators. *)
let host_row ~section ~what ~scenario ~repeats ~unit ~expected ~baseline
    ~baseline_what ~digits run =
  let best, calib =
    best_rate ~repeats (fun () ->
        let n, ok = run () in
        if n <> expected || not ok then begin
          Printf.eprintf "FATAL: %s: %d %s%s, expected %d\n" what n unit
            (if ok then "" else " (not verified)")
            expected;
          exit 1
        end;
        n)
  in
  let vs_baseline = best /. baseline and vs_calib = best /. calib in
  Printf.printf
    "%s: %s x%d  %s=%d  best %s/sec=%.0f (%.2fx of %s baseline)  \
     normalized=%.*f\n%!"
    section what repeats unit expected unit best vs_baseline baseline_what
    digits vs_calib;
  Obs_json.Obj
    [
      ("scenario", Obs_json.String scenario);
      ("repeats", Obs_json.Int repeats);
      (unit, Obs_json.Int expected);
      (unit ^ "_per_sec", Obs_json.Float best);
      ("baseline_" ^ unit ^ "_per_sec", Obs_json.Float baseline);
      ("vs_baseline", Obs_json.Float vs_baseline);
      ("calib_ops_per_sec", Obs_json.Float calib);
      ("vs_calib", Obs_json.Float vs_calib);
    ]

(* Engine host throughput at 64 cpus: the sharded+batched run of the rpc
   row, timed.  Almost every step is a spin pause with about 60
   candidate cpus, so a scheduler step that costs O(cpus) shows here four
   times as strongly as in the 16-cpu engine row. *)
let engine64_steps = 4_696_993

(* The same run's steps/sec when every scheduler step rebuilt its
   candidate and near sets with full scans over the cpus, measured with
   this harness (best of 3) on the host that measured the committed
   reference. *)
let engine64_baseline_steps_per_sec = 1_080_000.

let engine64_row () =
  host_row ~section:"engine64" ~what:"64-cpu rpc serving"
    ~scenario:"rpc-serve-64cpu-sharded-batched" ~repeats:3 ~unit:"steps"
    ~expected:engine64_steps ~baseline:engine64_baseline_steps_per_sec
    ~baseline_what:"full-scan" ~digits:5 (fun () ->
      ((rpc_serve ~shards:8 ~batch:8).Bench_util.steps, true))

(* ------------------------------------------------------------------ *)

(* Model-checker host throughput: DPOR over the E14 wakeup-herd cell
   (2 cpus, preemption bound 2), reported as committed transitions per
   second of wall-clock time; the exploration must stay verified. *)
let mc_herd_transitions = 39_939

(* The same cell's transitions/sec before the checker's bookkeeping
   moved to interned process ids and int-array clocks and footprints,
   measured with this harness (best of 10) on the host that measured the
   committed reference. *)
let mc_baseline_transitions_per_sec = 55_000.

let mc_row ~repeats =
  let module Mc = Mach_mc.Mc in
  let check () =
    Mc.check ~cpus:2 ~mode:Mc.Dpor ~bound:2 (Scenarios.get "herd").run
  in
  ignore (check ());
  host_row ~section:"mc" ~what:"DPOR herd cell" ~scenario:"e14-herd-2cpu-bound2"
    ~repeats ~unit:"transitions" ~expected:mc_herd_transitions
    ~baseline:mc_baseline_transitions_per_sec ~baseline_what:"pre-rework"
    ~digits:6 (fun () ->
      let r = check () in
      (r.Mc.stats.Mc.transitions, r.Mc.verified))

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let engine_only = Array.exists (fun a -> a = "--engine-only") Sys.argv in
  let repeats = if fast then 3 else 10 in
  let iters = if fast then 20 else 30 in
  let seeds = if fast then 24 else 100 in
  (* The reference sweep is 8-domain; on hosts with fewer cores the
     measured speedup is core-bound (recorded in the json). *)
  let domains = 8 in
  let _sps, engine_json = engine_throughput ~repeats ~iters in
  (* The vm, cache and rpc rows are deterministic (simulated time), and
     the engine64 and mc rows take a few seconds, so all are cheap
     enough to emit unconditionally — including --engine-only, which is
     what the CI perf gate runs. *)
  let fields =
    [
      ("engine", engine_json);
      ("vm", vm_row ());
      ("cache", cache_row ());
      ("rpc", rpc_row ());
      ("engine64", engine64_row ());
      ("mc", mc_row ~repeats);
    ]
  in
  let fields =
    if engine_only then fields
    else fields @ [ ("sweep", sweep ~seeds ~domains) ]
  in
  let doc =
    Obs_json.Obj
      (fields @ [ ("mode", Obs_json.String (if fast then "fast" else "full")) ])
  in
  Bench_util.write_json ~what:"perf results" "BENCH_sim_perf.json" doc
