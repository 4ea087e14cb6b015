(* The engine perf regression harness.

   Measurements against fixed scenarios, so numbers are comparable
   across commits:

   - single-domain engine throughput: the 16-cpu E1 contention scenario
     (one lock, shared data, Timed policy) run repeatedly on one domain;
     reported as scheduler steps/second of wall-clock time.
   - model-checker throughput: DPOR over the E14 wakeup-herd cell,
     reported as committed transitions/second of wall-clock time.
   - domain-parallel seed sweep: `Sim_explore.run` over a fixed seed set,
     sequential vs. fanned out across domains, with the verdicts checked
     equal; reported as wall-clock speedup.

   Results are written to BENCH_sim_perf.json so CI can archive the perf
   trajectory per PR (`make perf-smoke` runs the `--fast` variant). *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module Obs_json = Mach_obs.Obs_json

let e1_scenario ~iters () =
  let lock = K.Slock.make ~name:"e1" ~protocol:Mach_core.Spin.Ttas () in
  let data = Array.init 4 (fun _ -> Engine.Cell.make ~name:"d" 0) in
  let cpus = Engine.cpu_count () in
  let worker () =
    for _ = 1 to iters do
      K.Slock.lock lock;
      Array.iter (fun d -> ignore (Engine.Cell.fetch_and_add d 1)) data;
      Engine.cycles 20;
      K.Slock.unlock lock
    done
  in
  let ts = List.init cpus (fun _ -> Engine.spawn worker) in
  List.iter Engine.join ts

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
  (* The gated row is measured with spans OFF: the committed reference
     predates the span layer, so the perf gate polices the disabled-mode
     overhead (the "observability you are not using must be ~free"
     promise).  A second spans-on row records the enabled-mode cost for
     the trajectory without gating it. *)
  let measure ~spans =
    let cfg = { (Config.bench ~cpus:16 ()) with Config.seed = 3; spans } in
    (* Sustained untimed warmup (~0.3s): one run is not enough to carry
       allocator effects AND cpu frequency ramp outside the clock. *)
    let wt0 = Unix.gettimeofday () in
    ignore (Engine.run ~cfg (e1_scenario ~iters));
    while Unix.gettimeofday () -. wt0 < 0.3 do
      ignore (Engine.run ~cfg (e1_scenario ~iters))
    done;
    (* Each repeat is timed on its own and the BEST one is the gated
       statistic: host noise (frequency scaling, a busy core, GC luck)
       only ever slows a run, so best-of-N is the estimate of what the
       engine can do — a mean lets one cold repeat fail the gate. *)
    (* A short calibration sample is interleaved after every repeat so
       that the engine and calibration best-of-N cover the SAME time
       window: on a shared core, disjoint windows can land in different
       throttle modes and make the normalized ratio noisier than the
       absolute number it is meant to stabilize. *)
    let steps = ref 0 in
    let total = ref 0.0 in
    let best = ref 0.0 in
    let best_calib = ref 0.0 in
    for _ = 1 to repeats do
      let s, secs = wall (fun () -> Engine.run ~cfg (e1_scenario ~iters)) in
      steps := !steps + s.Engine.steps;
      total := !total +. secs;
      let sps = float_of_int s.Engine.steps /. secs in
      if sps > !best then best := sps;
      let c = calib_once () in
      if c > !best_calib then best_calib := c
    done;
    (!steps, !total, !best, !best_calib)
  in
  let steps_off, off_s, sps, calib = measure ~spans:false in
  let _, _, sps_on, _ = measure ~spans:true in
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
  let scenario = e1_scenario ~iters:12 in
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

(* Deterministic guard on the range-locked fault path: for a fixed
   (cfg, seed) the simulated makespan of the E16 storm is
   schedule-deterministic, so the coarse/range makespan ratio has zero
   host noise — the gate can pin it tightly.  A change that reserializes
   faults (say, a range-lock conversion regressing to whole-map width)
   collapses the ratio towards 1 and trips the gate without any
   wall-clock measurement. *)
let vm_storm locking =
  let cfg = { (Config.bench ~cpus:16 ()) with Config.seed = 3 } in
  let stats =
    Engine.run ~cfg (fun () ->
        Mach_kernel.Scenarios.vm_fault_storm ~locking ~threads:16
          ~pages_per_thread:2 ~rounds:1 ())
  in
  stats.Engine.makespan

let vm_row () =
  let coarse = vm_storm Mach_vm.Vm_map.Coarse in
  let range = vm_storm Mach_vm.Vm_map.Range in
  let speedup = float_of_int coarse /. float_of_int range in
  Printf.printf
    "vm: 16-cpu fault storm  coarse makespan=%d  range makespan=%d  \
     range_speedup=%.2fx (deterministic)\n%!"
    coarse range speedup;
  Obs_json.Obj
    [
      ("scenario", Obs_json.String "vm-fault-storm-16cpu");
      ("coarse_makespan", Obs_json.Int coarse);
      ("range_makespan", Obs_json.Int range);
      ("range_speedup", Obs_json.Float speedup);
    ]

(* Same deterministic-guard idea for the scache page cache (E19): the
   mutex/scache makespan ratio of the 64-cpu read-mostly lookup storm is
   pure simulated time, so the gate can pin the read-side win of the
   per-cpu refcount RW lock.  A change that reserializes readers (say, a
   read path falling back to the write-side sweep) collapses the ratio
   and trips the gate with zero host noise. *)
let cache_storm locking =
  let cfg = { (Config.bench ~cpus:64 ()) with Config.seed = 3 } in
  let stats =
    Engine.run ~cfg (fun () ->
        Mach_kernel.Scenarios.vm_cache_ops ~locking ~threads:64 ())
  in
  stats.Engine.makespan

let cache_row () =
  let mutex = cache_storm Mach_vm.Vm_cache.Mutex in
  let scache = cache_storm Mach_vm.Vm_cache.Scache in
  let speedup = float_of_int mutex /. float_of_int scache in
  Printf.printf
    "cache: 64-cpu lookup storm  mutex makespan=%d  scache makespan=%d  \
     read_speedup=%.2fx (deterministic)\n%!"
    mutex scache speedup;
  Obs_json.Obj
    [
      ("scenario", Obs_json.String "vm-cache-lookup-storm-64cpu");
      ("mutex_makespan", Obs_json.Int mutex);
      ("scache_makespan", Obs_json.Int scache);
      ("read_speedup", Obs_json.Float speedup);
    ]

(* Same deterministic-guard idea for the RPC serving path (E20): the
   flat/sharded+batched makespan ratio of the 64-cpu serving workload is
   pure simulated time, so the gate can pin the end-to-end throughput win
   of batched dequeue + the sharded port name space.  A change that
   reserializes the hot path (say, name lookups falling back to one
   global table lock, or batching degrading to one message per lock
   hold) collapses the ratio and trips the gate with zero host noise. *)
let rpc_serve ~shards ~batch =
  let cfg = { (Config.bench ~cpus:64 ()) with Config.seed = 3 } in
  let stats =
    Engine.run ~cfg (fun () ->
        ignore (Mach_kernel.Scenarios.rpc_serve ~shards ~batch ~calls_each:16 ()))
  in
  stats.Engine.makespan

let rpc_row () =
  let flat = rpc_serve ~shards:1 ~batch:1 in
  let sharded = rpc_serve ~shards:8 ~batch:8 in
  let speedup = float_of_int flat /. float_of_int sharded in
  Printf.printf
    "rpc: 64-cpu serving  flat makespan=%d  sharded+batched makespan=%d  \
     throughput_speedup=%.2fx (deterministic)\n%!"
    flat sharded speedup;
  Obs_json.Obj
    [
      ("scenario", Obs_json.String "rpc-serve-64cpu");
      ("flat_makespan", Obs_json.Int flat);
      ("sharded_batched_makespan", Obs_json.Int sharded);
      ("throughput_speedup", Obs_json.Float speedup);
    ]

(* ------------------------------------------------------------------ *)

(* Model-checker host throughput: DPOR over the E14 wakeup-herd cell
   (2 cpus, preemption bound 2), reported as committed transitions per
   second of wall-clock time.  The exploration is deterministic — the
   transition count is checked, so a change to what the checker explores
   cannot pass as a speedup — and only the host cost per transition
   moves.  Best-of-N with an interleaved calibration sample, like the
   engine row, so the gate can pair the absolute and normalized
   estimators. *)
let mc_herd_transitions = 39_939

(* The same cell's transitions/sec before the checker's bookkeeping
   moved to interned process ids and int-array clocks and footprints,
   measured with this harness (best of 10) on the host that measured the
   committed reference. *)
let mc_baseline_transitions_per_sec = 55_000.

let mc_row ~repeats =
  let module Mc = Mach_mc.Mc in
  let check () =
    Mc.check ~cpus:2 ~mode:Mc.Dpor ~bound:2
      (fun () -> Mach_chaos.Chaos_scenarios.wakeup_herd ~sleepers:2 ())
  in
  ignore (check ());
  let best = ref 0.0 and best_calib = ref 0.0 in
  for _ = 1 to repeats do
    let r, secs = wall check in
    let t = r.Mc.stats.Mc.transitions in
    if t <> mc_herd_transitions || not r.Mc.verified then begin
      Printf.eprintf
        "FATAL: mc herd cell explored %d transitions (verified=%b), expected \
         %d verified\n"
        t r.Mc.verified mc_herd_transitions;
      exit 1
    end;
    let tps = float_of_int t /. secs in
    if tps > !best then best := tps;
    let c = calib_once () in
    if c > !best_calib then best_calib := c
  done;
  let vs_baseline = !best /. mc_baseline_transitions_per_sec in
  let vs_calib = !best /. !best_calib in
  Printf.printf
    "mc: DPOR herd cell x%d  transitions=%d  best transitions/sec=%.0f \
     (%.2fx of pre-rework baseline)  normalized=%.6f\n%!"
    repeats mc_herd_transitions !best vs_baseline vs_calib;
  Obs_json.Obj
    [
      ("scenario", Obs_json.String "e14-herd-2cpu-bound2");
      ("repeats", Obs_json.Int repeats);
      ("transitions", Obs_json.Int mc_herd_transitions);
      ("transitions_per_sec", Obs_json.Float !best);
      ( "baseline_transitions_per_sec",
        Obs_json.Float mc_baseline_transitions_per_sec );
      ("vs_baseline", Obs_json.Float vs_baseline);
      ("calib_ops_per_sec", Obs_json.Float !best_calib);
      ("vs_calib", Obs_json.Float vs_calib);
    ]

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
  (* The vm, cache and rpc rows are deterministic (simulated time) and
     the mc row takes about a second, so all are cheap enough to emit
     unconditionally — including --engine-only, which is what the CI
     perf gate runs. *)
  let fields =
    [
      ("engine", engine_json);
      ("vm", vm_row ());
      ("cache", cache_row ());
      ("rpc", rpc_row ());
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
  let out = "BENCH_sim_perf.json" in
  let oc = open_out out in
  output_string oc (Obs_json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "perf results written to %s\n" out
