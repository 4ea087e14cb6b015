(* A guided tour of every synchronization facility the paper describes:
   simple locks, complex locks (Multiple / Sleep / Recursive), the event
   wait mechanism, reference counting and deactivation — including the
   design-rule checker catching real bugs.

   Run with: dune exec examples/locking_tour.exe *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module K = Mach_ksync.Ksync
module Kobj = Mach_ksync.Kobj
module Spl = Mach_core.Spl

let say fmt = Printf.printf (fmt ^^ "\n%!")
let section s = say "\n== %s ==" s

let simple_locks () =
  section "Simple locks (Appendix A)";
  let l = K.Slock.make ~name:"demo" () in
  K.Slock.lock l;
  say "locked %s; is_locked=%b" (K.Slock.name l) (K.Slock.is_locked l);
  say "try_lock while held -> %b" (K.Slock.try_lock l);
  K.Slock.unlock l;
  say "unlocked; try_lock -> %b (then unlock)" (K.Slock.try_lock l);
  K.Slock.unlock l;
  (* contention from three threads; the profiler records it *)
  let worker () =
    for _ = 1 to 50 do
      K.Slock.lock l;
      Engine.cycles 20;
      K.Slock.unlock l
    done
  in
  let ts = List.init 3 (fun _ -> Engine.spawn worker) in
  List.iter Engine.join ts;
  let c =
    List.find
      (fun (c : Mach_obs.Obs_profile.class_stats) -> c.cls = "demo")
      (Mach_obs.Obs_profile.classes ())
  in
  say
    "after 3x50 contended acquisitions: demo acquisitions=%d contended=%d \
     first-attempt=%.3f"
    c.acquisitions c.contended
    (Mach_obs.Obs_profile.first_attempt_rate c)

let complex_locks () =
  section "Complex locks (Appendix B)";
  let l = K.Clock.make ~name:"map-lock" ~can_sleep:true () in
  K.Clock.lock_read l;
  K.Clock.lock_read l;
  say "two concurrent readers: read_count=%d" (K.Clock.read_count l);
  K.Clock.lock_done l;
  say "upgrade the remaining read to write: failed=%b"
    (K.Clock.lock_read_to_write l);
  say "downgrade back to read (cannot fail, needs no recovery logic -- the";
  say "  section 7.1 recommendation over upgrades)";
  K.Clock.lock_write_to_read l;
  K.Clock.lock_done l;
  (* recursive option *)
  K.Clock.lock_write l;
  K.Clock.lock_set_recursive l;
  K.Clock.lock_write l;
  say "recursive write re-acquisition accepted (Recursive option set)";
  K.Clock.lock_done l;
  K.Clock.lock_read l;
  say "recursive read while write-held accepted";
  K.Clock.lock_done l;
  K.Clock.lock_clear_recursive l;
  K.Clock.lock_done l;
  say "fully released; held_for_write=%b" (K.Clock.held_for_write l)

let event_wait () =
  section "Event wait (section 6)";
  let guard = K.Slock.make ~name:"guard" () in
  let ev = K.Ev.fresh_event () in
  let condition = ref false in
  let sleeper =
    Engine.spawn ~name:"sleeper" (fun () ->
        K.Slock.lock guard;
        if not !condition then begin
          (* declare the wait BEFORE releasing the lock: atomic with
             respect to the wakeup *)
          K.Ev.assert_wait ev;
          K.Slock.unlock guard;
          ignore (K.Ev.thread_block ());
          say "sleeper: woke up with the condition = %b" !condition
        end
        else K.Slock.unlock guard)
  in
  while K.Ev.waiters_count ev = 0 do
    Engine.pause ()
  done;
  K.Slock.lock guard;
  condition := true;
  ignore (K.Ev.thread_wakeup ev);
  K.Slock.unlock guard;
  Engine.join sleeper

let refcount_and_deactivation () =
  section "References and deactivation (sections 8-9)";
  let destroyed = ref false in
  let obj =
    Kobj.make ~name:"object" ~destroy:(fun _ -> destroyed := true)
      Kobj.No_payload
  in
  say "created with 1 reference (the creator's): count=%d" (Kobj.ref_count obj);
  Kobj.reference obj;
  say "cloned: count=%d" (Kobj.ref_count obj);
  Kobj.with_lock obj (fun () -> ignore (Kobj.deactivate obj));
  say "deactivated under the object lock; data structure persists:";
  say "  is_active=%b, count=%d" (Kobj.is_active obj) (Kobj.ref_count obj);
  Kobj.release obj;
  say "one release: destroyed=%b" !destroyed;
  Kobj.release obj;
  say "last release: destroyed=%b" !destroyed

let checker_catches_bugs () =
  section "The design-rule checker at work";
  let show what outcome =
    match outcome with
    | Engine.Panicked msg -> say "%s\n  -> kernel panic: %s" what msg
    | _ -> say "%s -> (unexpectedly survived)" what
  in
  show "Blocking while holding a simple lock (Appendix A rule):"
    (Engine.run_outcome (fun () ->
         let l = K.Slock.make ~name:"held" () in
         let ev = K.Ev.fresh_event () in
         K.Slock.lock l;
         K.Ev.assert_wait ev;
         ignore (K.Ev.thread_block ())));
  show "Acquiring one lock at two different spls (section 7 rule):"
    (Engine.run_outcome (fun () ->
         let l = K.Slock.make ~name:"spl-mixed" () in
         let old = Engine.set_spl Spl.Splvm in
         K.Slock.lock l;
         K.Slock.unlock l;
         ignore (Engine.set_spl old);
         K.Slock.lock l));
  show "Releasing a reference while holding a simple lock (section 8 rule):"
    (Engine.run_outcome (fun () ->
         let l = K.Slock.make ~name:"held2" () in
         let r = K.Ref.make () in
         K.Slock.lock l;
         ignore (K.Ref.release r)))

(* Everything above also fed the process-global contention profiler; end
   the tour with its report (the `machsim profile` subcommand prints the
   same table for any scenario). *)
let contention_profile () =
  section "Contention profile (machsim profile)";
  Format.printf "%a@." (Mach_obs.Obs_profile.pp_report ~top_n:8) ()

let () =
  Mach_obs.Obs_profile.reset ();
  let cfg = { Config.default with Config.cpus = 4; seed = 7 } in
  ignore
    (Engine.run ~cfg (fun () ->
         simple_locks ();
         complex_locks ();
         event_wait ();
         refcount_and_deactivation ()));
  checker_catches_bugs ();
  contention_profile ();
  say "\nTour complete."
