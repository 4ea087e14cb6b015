(* The lock-event pipeline: every lock reports each transition through
   one call here, which feeds the recorders in a fixed order (see the
   interface).  A site's profile class and span label are built at its
   first acquisition, never again: no string is built on a lock
   operation, and locks made but never taken (the event layer rebuilds
   64 bucket locks per run) cost nothing. *)

module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_span = Mach_obs.Obs_span
module Obs_trace = Mach_obs.Obs_trace
module Obs_event = Mach_obs.Obs_event

type site = {
  name : string;
  mutable cls : string; (* profile class; "" until first acquired *)
  mutable span : string; (* span label *)
  res : Waits_for.resource;
}

let site ~name res = { name; cls = ""; span = ""; res }

let build_strings s =
  if String.length s.cls = 0 then begin
    s.cls <- Obs_profile.class_of_name s.name;
    s.span <- Obs_span.label Obs_span.Lock s.name
  end

let with_res s res =
  build_strings s;
  { s with res }

(* The held record.  An entry is a site, so it is exact per lock
   instance; [seq] stamps acquisitions so the holders of a resource list
   in acquisition order (a deadlock report's text depends on it). *)
type entry = { site : site; seq : int }
type holder = { tid : int; tname : string; mutable held : entry list }

(* Keyed by thread id with a plain int hash: a thread's entry comes and
   goes with every outermost acquire/release pair. *)
module Tid_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)

type state = { threads : holder Tid_tbl.t; mutable next_seq : int }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { threads = Tid_tbl.create 64; next_seq = 0 })

let st () = Domain.DLS.get state_key

let () =
  Run_reset.register (fun () ->
      let s = st () in
      Tid_tbl.reset s.threads;
      s.next_seq <- 0)

let held ~tid =
  match Tid_tbl.find_opt (st ()).threads tid with
  | None -> []
  | Some h -> List.map (fun e -> (e.site.name, e.site.res)) h.held

let held_threads () = Tid_tbl.length (st ()).threads

(* The waits-for hold edges: sorting by (resource, seq) groups each
   resource's holders in acquisition order. *)
let holds () =
  Tid_tbl.fold
    (fun _ h acc ->
      List.fold_left
        (fun acc e -> (e.site.res, e.seq, (h.tid, h.tname)) :: acc)
        acc h.held)
    (st ()).threads []
  |> List.sort compare
  |> List.fold_left
       (fun acc (res, _, who) ->
         match acc with
         | (r, ws) :: rest when r = res -> (r, who :: ws) :: rest
         | _ -> (res, [ who ]) :: acc)
       []
  |> List.rev_map (fun (r, ws) -> (r, List.rev ws))

module Make (M : Machine_intf.MACHINE) = struct
  let m_acquisitions = Obs_metrics.counter "lock.acquisitions"
  let m_contentions = Obs_metrics.counter "lock.contentions"
  let h_wait = Obs_metrics.histogram "lock.wait_cycles"
  let h_hold = Obs_metrics.histogram "lock.hold_cycles"

  let wait_begin site =
    M.spin_hint site.name;
    if Waits_for.tracking () then
      let self = M.self () in
      Waits_for.note_wait ~tid:(M.thread_id self) ~tname:(M.thread_name self)
        site.res

  let wait_end site =
    if Waits_for.tracking () then
      Waits_for.note_wait_done ~tid:(M.thread_id (M.self ())) site.res

  let acquired ?blocker site ~spins ~wait_cycles =
    build_strings site;
    let cpu = M.current_cpu () in
    let contended = spins > 0 in
    Obs_metrics.incr ~cpu m_acquisitions;
    if contended then Obs_metrics.incr ~cpu m_contentions;
    Obs_metrics.observe ~cpu h_wait wait_cycles;
    let s = st () in
    let self = M.self () in
    let tid = M.thread_id self in
    let h =
      match Tid_tbl.find_opt s.threads tid with
      | Some h -> h
      | None ->
          let h = { tid; tname = M.thread_name self; held = [] } in
          Tid_tbl.add s.threads tid h;
          h
    in
    let holder =
      match h.held with e :: _ when contended -> Some e.site.cls | _ -> None
    in
    Obs_profile.note_acquire ~cls:site.cls ~holder ~contended ~wait_cycles;
    if Obs_span.enabled () then begin
      (match blocker with
      | Some b when contended ->
          Obs_span.blocked ~kind:Obs_span.Lock ~label:site.span
            ~holder_tid:(M.thread_id b) ~wait_cycles
      | _ -> ());
      Obs_span.enter_label Obs_span.Lock site.span
    end;
    if Obs_trace.enabled () then
      Obs_trace.emit
        (Obs_event.Lock_acquire { lock = site.name; spins; wait_cycles });
    h.held <- { site; seq = s.next_seq } :: h.held;
    s.next_seq <- s.next_seq + 1

  let released ?held_cycles site =
    let held =
      match held_cycles with
      | Some c ->
          Obs_metrics.observe ~cpu:(M.current_cpu ()) h_hold c;
          c
      | None -> 0
    in
    Obs_profile.note_release ~cls:site.cls ~held_cycles:held;
    Obs_span.exit_label site.span;
    if Obs_trace.enabled () then
      Obs_trace.emit
        (Obs_event.Lock_release { lock = site.name; held_cycles = held });
    (* Drop the innermost entry of [site] (releases need not nest); a
       thread that holds nothing is forgotten, as thread ids never
       repeat. *)
    let s = st () in
    let tid = M.thread_id (M.self ()) in
    match Tid_tbl.find_opt s.threads tid with
    | None -> ()
    | Some h -> (
        let rec remove = function
          | [] -> []
          | e :: rest when e.site == site -> rest
          | e :: rest -> e :: remove rest
        in
        match remove h.held with
        | [] -> Tid_tbl.remove s.threads tid
        | rest -> h.held <- rest)

  let downgraded ~held_cycles =
    Obs_metrics.observe ~cpu:(M.current_cpu ()) h_hold held_cycles
end
