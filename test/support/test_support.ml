(* Shared helpers for the test suites. *)

module Engine = Mach_sim.Sim_engine

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Run [f] inside a fresh simulation and return its result. *)
let in_sim ?cfg f =
  let result = ref None in
  ignore (Engine.run ?cfg (fun () -> result := Some (f ())));
  Option.get !result

(* Condition-based synchronization for tests: simulated time offers no
   guarantee that "N pauses" let another thread progress, so tests must
   wait on observable state.  Each failed test is a counted spin pause,
   one iteration of a condition wait, so a condition that never becomes
   true ends at the engine's hang rule.  [pred] may read cells and take
   locks, which rules out [Engine.spin_until]. *)
let wait_until pred =
  while not (pred ()) do
    Engine.spin_pause ()
  done

(* Shared deterministic RNG for tests that want arbitrary-but-stable
   values (shuffled start orders, fuzzed payload sizes).  A bare
   module-level [Sim_rng.make] would leak position across [in_sim]
   calls: the second simulation of a test binary would see a different
   draw sequence than the first, so a test's behavior would depend on
   which tests ran before it.  The engine runs the registered
   [Run_reset] hook at every run setup/teardown, which reseeds the
   generator — every simulation sees the same stream. *)
let rng_seed = 0x7357
let test_rng = ref (Mach_sim.Sim_rng.make rng_seed)

let () =
  Mach_core.Run_reset.register (fun () ->
      test_rng := Mach_sim.Sim_rng.make rng_seed)

let rng_int bound = Mach_sim.Sim_rng.int !test_rng bound

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Re-export for the golden-determinism generator and test. *)
module Golden_scenarios = Golden_scenarios
