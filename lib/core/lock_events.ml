(* The lock-event pipeline: every lock reports each transition through
   one call here, which feeds the recorders in a fixed order (see the
   interface).  What a thread holds and is doing lives on its context
   (Thread_ctx): a hold is pushed at acquisition and removed at release
   by site identity, so two holds with one label (two ranges of one
   range lock) each close their own span. *)

module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_span = Mach_obs.Obs_span
module Obs_trace = Mach_obs.Obs_trace
module Obs_event = Mach_obs.Obs_event

type site = Thread_ctx.site

let site = Thread_ctx.site
let with_res = Thread_ctx.with_res

module Spans (M : Machine_intf.MACHINE) = struct
  let close (ctx : Thread_ctx.t) tag t0 =
    Obs_span.close tag ~t0 ~t1:(M.now_cycles ()) ~cpu:(M.current_cpu ())
      ~tname:ctx.tname

  let enter tag =
    if Obs_span.enabled () then begin
      let ctx = M.context (M.self ()) in
      ctx.stack <- Thread_ctx.Span { tag; t0 = M.now_cycles () } :: ctx.stack
    end

  let exit_matching matches key =
    let ctx = M.context (M.self ()) in
    match Thread_ctx.take ctx matches key with
    | Some (Thread_ctx.Span s) -> close ctx s.tag s.t0
    | _ -> ()

  let span_of tag = function
    | Thread_ctx.Span s -> s.tag == tag
    | Thread_ctx.Hold _ -> false

  let span_kind kind = function
    | Thread_ctx.Span s -> Obs_span.tag_kind s.tag = kind
    | Thread_ctx.Hold _ -> false

  let exit tag = if Obs_span.enabled () then exit_matching span_of tag

  let exit_kind kind =
    if Obs_span.enabled () then exit_matching span_kind kind
end

module Make (M : Machine_intf.MACHINE) = struct
  module Spans = Spans (M)

  let m_acquisitions = Obs_metrics.counter "lock.acquisitions"
  let m_contentions = Obs_metrics.counter "lock.contentions"
  let h_wait = Obs_metrics.histogram "lock.wait_cycles"
  let h_hold = Obs_metrics.histogram "lock.hold_cycles"

  let wait_begin (site : site) =
    M.spin_hint site.name;
    if Waits_for.tracking () then
      Thread_ctx.note_wait (M.context (M.self ())) site.res

  let wait_end (site : site) =
    if Waits_for.tracking () then
      Thread_ctx.wait_done (M.context (M.self ())) site.res

  let rec innermost_hold = function
    | [] -> None
    | Thread_ctx.Hold h :: _ -> Some h.site.cls
    | _ :: rest -> innermost_hold rest

  let rec mem_class c = function
    | [] -> false
    | x :: rest -> String.equal x c || mem_class c rest

  (* Once per (held class, wanted site) and profile generation: a
     repeated pair allocates nothing and touches no table. *)
  let rec note_holds (site : site) tname = function
    | [] -> ()
    | Thread_ctx.Hold { site = h; _ } :: rest ->
        if not (mem_class h.cls site.ordered) then begin
          site.ordered <- h.cls :: site.ordered;
          Obs_profile.note_attempt ~held:h.cls ~wanted:site.cls
            ~witness:(tname, h.name, site.name)
        end;
        note_holds site tname rest
    | Thread_ctx.Span _ :: rest -> note_holds site tname rest

  let attempt (site : site) =
    Thread_ctx.refresh site;
    let ctx = M.context (M.self ()) in
    note_holds site ctx.tname ctx.stack

  let acquired ?blocker (site : site) ~spins ~wait_cycles =
    Thread_ctx.refresh site;
    let cpu = M.current_cpu () in
    let contended = spins > 0 in
    Obs_metrics.incr cpu m_acquisitions;
    if contended then Obs_metrics.incr cpu m_contentions;
    Obs_metrics.observe cpu h_wait wait_cycles;
    let ctx = M.context (M.self ()) in
    let holder = if contended then innermost_hold ctx.stack else None in
    Obs_profile.note_acquire site.prof ~holder ~contended ~wait_cycles;
    let spans = Obs_span.enabled () in
    (if spans then
       match blocker with
       | Some b when contended ->
           Obs_span.blocked site.span
             ~holder:(Thread_ctx.holder_context (M.context b) site.span)
             ~wait_cycles
       | _ -> ());
    if Obs_trace.enabled () then
      Obs_trace.emit
        (Obs_event.Lock_acquire { lock = site.name; spins; wait_cycles });
    let t0 = if spans then M.now_cycles () else 0 in
    ctx.stack <-
      Thread_ctx.Hold { site; seq = Thread_ctx.next_seq (); t0 } :: ctx.stack

  let untimed = -1

  let hold_of site = function
    | Thread_ctx.Hold h -> h.site == site
    | Thread_ctx.Span _ -> false

  let released (site : site) ~held_cycles =
    (* A machine operation before any recorder: a release made while a
       finished run unwinds stops here, having recorded nothing. *)
    let ctx = M.context (M.self ()) in
    Thread_ctx.refresh site;
    let held =
      if held_cycles = untimed then 0
      else begin
        Obs_metrics.observe (M.current_cpu ()) h_hold held_cycles;
        held_cycles
      end
    in
    Obs_profile.note_release site.prof ~held_cycles:held;
    (* Releases need not nest: drop this site's innermost hold. *)
    (match Thread_ctx.take ctx hold_of site with
    | Some (Thread_ctx.Hold h) when Obs_span.enabled () ->
        Spans.close ctx site.span h.t0
    | _ -> ());
    if Obs_trace.enabled () then
      Obs_trace.emit
        (Obs_event.Lock_release { lock = site.name; held_cycles = held })

  let downgraded ~held_cycles =
    Obs_metrics.observe (M.current_cpu ()) h_hold held_cycles
end
