(* Registry of per-run teardown hooks.  Modules with per-run state that
   outlives any single simulation (a simulated machine's [machine_local]
   state, the waits-for event aliases) register a hook once at
   initialization; the engine
   runs them all at teardown so one run's residue cannot leak into the
   next (e.g. phantom lock-order violations across Sim_explore seeds). *)

let hooks : (unit -> unit) list Atomic.t = Atomic.make []

let register f =
  let rec push () =
    let old = Atomic.get hooks in
    if not (Atomic.compare_and_set hooks old (f :: old)) then push ()
  in
  push ()

let run () = List.iter (fun f -> f ()) (List.rev (Atomic.get hooks))
