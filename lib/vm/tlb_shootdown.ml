module Engine = Mach_sim.Sim_engine
module Spl = Mach_core.Spl
module Waits_for = Mach_core.Waits_for
module Obs_metrics = Mach_obs.Obs_metrics
module Obs_trace = Mach_obs.Obs_trace
module Obs_event = Mach_obs.Obs_event

let h_round_trip = Obs_metrics.histogram "tlb.shootdown_cycles"

let max_cpus = 64

(* Per-cpu count of threads attempting/holding pmap locks.  Only the
   owning cpu updates its slot (pmap code runs at splvm, so it cannot be
   preempted off the cpu mid-update).  The array is domain-local: the
   "cpus" are one simulator engine's virtual cpus, and engines in other
   domains (parallel seed sweeps) have their own counts. *)
let critical_key : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make max_cpus 0)

let note_pmap_critical_enter ~cpu =
  let critical = Domain.DLS.get critical_key in
  critical.(cpu) <- critical.(cpu) + 1

let note_pmap_critical_exit ~cpu =
  let critical = Domain.DLS.get critical_key in
  if critical.(cpu) <= 0 then
    Engine.fatal "tlb_shootdown: unbalanced pmap-critical exit";
  critical.(cpu) <- critical.(cpu) - 1

let in_pmap_critical ~cpu = (Domain.DLS.get critical_key).(cpu) > 0

let performed = Atomic.make 0
let shootdowns_performed () = Atomic.get performed

let shootdown ~pmap_id ~targets ~invalidate ~commit =
  ignore pmap_id;
  let me = Engine.current_cpu () in
  if Spl.rank (Engine.get_spl ()) < Spl.rank Spl.Splvm then
    Engine.fatal
      "tlb_shootdown: initiator must hold splvm (locks and their interrupt \
       priority go together, section 7)";
  let remote = List.sort_uniq compare (List.filter (fun c -> c <> me) targets) in
  (* Section 7 special logic: processors in pmap critical sections are
     removed from the barrier; the update is still posted to them. *)
  let participants, lazies =
    List.partition (fun c -> not (in_pmap_critical ~cpu:c)) remote
  in
  let n = List.length participants in
  let started_at = Engine.now_cycles () in
  if Obs_trace.enabled () then
    Obs_trace.emit
      (Obs_event.Tlb_shootdown_start
         {
           initiator = me;
           participants = n;
           lazies = List.length lazies;
         });
  let checked_in = Engine.Cell.make ~name:"shootdown.checked_in" 0 in
  let go = Engine.Cell.make ~name:"shootdown.go" 0 in
  List.iter
    (fun cpu ->
      Engine.post_interrupt ~name:"tlb-shootdown" ~cpu ~level:Spl.Splvm
        (fun () ->
          ignore (Engine.Cell.fetch_and_add checked_in 1);
          (* Wait for the initiator to commit the update: the barrier —
             no participant leaves before all have entered and the page
             table is consistent. *)
          Engine.spin_hint "shootdown.go";
          while Engine.Cell.get go = 0 do
            Engine.pause ()
          done;
          invalidate ~cpu:(Engine.current_cpu ())))
    participants;
  List.iter
    (fun cpu ->
      (* Lazy flush: delivered whenever that cpu leaves its pmap critical
         section and re-enables interrupts; no rendezvous. *)
      Engine.post_interrupt ~name:"tlb-flush" ~cpu ~level:Spl.Splvm
        (fun () -> invalidate ~cpu:(Engine.current_cpu ())))
    lazies;
  Engine.spin_hint "shootdown.checked_in";
  (* Report the rendezvous as a wait edge: if a participant cpu never
     checks in (the section-7 interrupt deadlock), the detector can close
     the cycle through this barrier instead of showing a silent spin. *)
  let wf_rendezvous = Waits_for.Rendezvous { name = "tlb-shootdown" } in
  let tracking = Waits_for.tracking () in
  if tracking then
    Mach_core.Thread_ctx.note_wait
      (Engine.context (Engine.self ()))
      wf_rendezvous;
  while Engine.Cell.get checked_in < n do
    Engine.pause ()
  done;
  if tracking then
    Mach_core.Thread_ctx.wait_done
      (Engine.context (Engine.self ()))
      wf_rendezvous;
  commit ();
  invalidate ~cpu:me;
  Engine.Cell.set go 1;
  let cycles = Int.max 0 (Engine.now_cycles () - started_at) in
  Obs_metrics.observe me h_round_trip cycles;
  if Obs_trace.enabled () then
    Obs_trace.emit (Obs_event.Tlb_shootdown_done { participants = n; cycles });
  ignore (Atomic.fetch_and_add performed 1)
