(* Causal span layer: site statistics, blocked-by attribution and the
   always-on flight recorder.

   A *span* brackets one causally meaningful interval — a lock hold
   (acquire -> release), an event wait (assert_wait -> wake), an IPC
   send/receive, a VM fault — and carries an acquire-site identity (the
   kind plus the instrumented name).  The open spans live on each
   thread's context in lib/core, which reports every close and every
   contended wait here; this module keeps only what outlives a span.

   State is domain-local (one simulation per domain; parallel seed sweeps
   must not share), costs one domain-local read plus a boolean when
   disabled, and deliberately consumes no engine randomness and charges
   no simulated cycles: a spans-on run is schedule- and stats-identical
   to a spans-off run (pinned by the determinism tests).

   At run end the engine latches the finished run's tables as the last
   run's, and the previous last run's tables, cleared, become the live
   ones for the next run; post-run reporting ([machsim report], bench
   E18) reads [last], which builds its sorted view only when it is read,
   while in-run post-mortems (the deadlock flight dump) read the live
   tables.

   A caller names a span site with a [tag], built once per lock, port,
   map or event: its label, and the live tables' site record, resolved
   by label at the tag's first close or contended wait of each run.  A
   close then allocates nothing: the flight recorder writes into
   preallocated per-cpu arrays. *)

type kind = Lock | Event | Ipc | Vm

let kind_name = function
  | Lock -> "lock"
  | Event -> "event"
  | Ipc -> "ipc"
  | Vm -> "vm"

type site = {
  s_label : string;
  s_kind : kind;
  mutable s_spans : int; (* closed spans *)
  mutable s_busy : int; (* total closed duration (hold / service time) *)
  mutable s_max : int; (* longest single span *)
  mutable s_blocked : int; (* contended waits against this site *)
  mutable s_blocked_cycles : int;
}

type flight_span = {
  f_label : string;
  f_tname : string;
  f_cpu : int;
  f_t0 : int;
  f_t1 : int;
}

type edge = {
  e_wanted : string;
  e_holder : string; (* the holder's enclosing span label *)
  mutable e_count : int;
  mutable e_cycles : int;
}

type view = {
  v_sites : site list; (* sorted by label *)
  v_edges : edge list; (* heaviest (blocked cycles) first *)
  v_flight : (int * flight_span list) list; (* per cpu, oldest first *)
  v_open : int; (* spans still open when the view was taken *)
}

let empty_view = { v_sites = []; v_edges = []; v_flight = []; v_open = 0 }

(* ------------------------------------------------------------------ *)
(* Domain-local state                                                   *)
(* ------------------------------------------------------------------ *)

(* Bounded per-cpu ring of recently closed spans (the flight recorder).
   Sixteen per cpu is enough to reconstruct "what was everyone doing"
   at a post-mortem without letting a long run grow without bound.  A
   ring is one array per field, written in place: slot [i] of each
   holds one closed span, and a close allocates nothing. *)
let flight_cap = 16

type flight_ring = {
  f_labels : string array;
  f_tnames : string array;
  f_t0s : int array;
  f_t1s : int array;
  mutable fnext : int; (* the slot the next close overwrites *)
  mutable fcount : int; (* slots holding a span, up to [flight_cap] *)
}

(* One run's tables.  A domain keeps two sets: the live one, which the
   running simulation records into, and the last finished run's.
   [stamp] is drawn afresh whenever the tables start a run, from a
   counter every domain shares, so a tag's resolved site record is
   valid for exactly one run of one domain. *)
type tables = {
  sites : (string, site) Hashtbl.t;
  edges : (string * string, edge) Hashtbl.t;
  mutable flight : flight_ring array; (* index cpu+1; slot 0 = off-cpu *)
  mutable open_at_end : int; (* spans still open when latched *)
  mutable stamp : int;
}

(* A site as its caller keeps it.  [resolved] pairs a tables stamp with
   that run's site record, in one immutable block, so a tag shared by
   two domains is never read half-updated. *)
type tag = { t_kind : kind; t_label : string; mutable resolved : resolved }
and resolved = { r_stamp : int; r_site : site }

type state = {
  mutable on : bool;
  mutable live : tables;
  mutable last : tables option;
  mutable last_view : view option; (* [last]'s view, once it is read *)
}

let stamps = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add stamps 1 + 1

let new_tables () =
  {
    sites = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    flight = [||];
    open_at_end = 0;
    stamp = fresh_stamp ();
  }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { on = false; live = new_tables (); last = None; last_view = None })

let st () = Domain.DLS.get state_key

let set_enabled b = (st ()).on <- b
let enabled () = (st ()).on

(* The rings keep their arrays: a cleared ring only forgets its spans. *)
let clear t =
  Hashtbl.reset t.sites;
  Hashtbl.reset t.edges;
  Array.iter
    (fun r ->
      r.fnext <- 0;
      r.fcount <- 0)
    t.flight;
  t.open_at_end <- 0;
  t.stamp <- fresh_stamp ()

(* Clears the per-run tables only: the enabled gate belongs to the
   engine's run lifecycle, not to the [Run_reset] hook (which also fires
   at run *setup*, after the engine has switched the layer on). *)
let reset () = clear (st ()).live

(* ------------------------------------------------------------------ *)
(* Recording                                                            *)
(* ------------------------------------------------------------------ *)

let site_of s kind lbl =
  match Hashtbl.find_opt s.sites lbl with
  | Some site -> site
  | None ->
      let site =
        {
          s_label = lbl;
          s_kind = kind;
          s_spans = 0;
          s_busy = 0;
          s_max = 0;
          s_blocked = 0;
          s_blocked_cycles = 0;
        }
      in
      Hashtbl.add s.sites lbl site;
      site

(* No run's tables carry stamp 0. *)
let unresolved =
  {
    r_stamp = 0;
    r_site =
      {
        s_label = "";
        s_kind = Lock;
        s_spans = 0;
        s_busy = 0;
        s_max = 0;
        s_blocked = 0;
        s_blocked_cycles = 0;
      };
  }

let tag kind name =
  { t_kind = kind; t_label = kind_name kind ^ ":" ^ name; resolved = unresolved }

let tag_kind t = t.t_kind
let tag_label t = t.t_label

(* The tag's site record in tables [s], looked up by label once per
   run. *)
let site_of_tag s t =
  let r = t.resolved in
  if r.r_stamp = s.stamp then r.r_site
  else begin
    let site = site_of s t.t_kind t.t_label in
    t.resolved <- { r_stamp = s.stamp; r_site = site };
    site
  end

let new_ring () =
  {
    f_labels = Array.make flight_cap "";
    f_tnames = Array.make flight_cap "";
    f_t0s = Array.make flight_cap 0;
    f_t1s = Array.make flight_cap 0;
    fnext = 0;
    fcount = 0;
  }

let ring_of s cpu =
  let i = if cpu < 0 then 0 else cpu + 1 in
  let n = Array.length s.flight in
  if i >= n then
    s.flight <-
      Array.init (i + 1) (fun k -> if k < n then s.flight.(k) else new_ring ());
  s.flight.(i)

let close t ~t0 ~t1 ~cpu ~tname =
  let s = (st ()).live in
  let dur = Int.max 0 (t1 - t0) in
  let site = site_of_tag s t in
  site.s_spans <- site.s_spans + 1;
  site.s_busy <- site.s_busy + dur;
  if dur > site.s_max then site.s_max <- dur;
  let r = ring_of s cpu in
  let i = r.fnext in
  r.f_labels.(i) <- t.t_label;
  r.f_tnames.(i) <- tname;
  r.f_t0s.(i) <- t0;
  r.f_t1s.(i) <- t1;
  r.fnext <- (if i + 1 = flight_cap then 0 else i + 1);
  if r.fcount < flight_cap then r.fcount <- r.fcount + 1;
  if Obs_trace.enabled () then
    Obs_trace.emit
      (Obs_event.Span_close
         { kind = kind_name t.t_kind; site = t.t_label; dur })

let blocked t ~holder ~wait_cycles =
  let s = (st ()).live in
  let site = site_of_tag s t in
  let wait_cycles = Int.max 0 wait_cycles in
  site.s_blocked <- site.s_blocked + 1;
  site.s_blocked_cycles <- site.s_blocked_cycles + wait_cycles;
  let key = (t.t_label, holder) in
  match Hashtbl.find_opt s.edges key with
  | Some e ->
      e.e_count <- e.e_count + 1;
      e.e_cycles <- e.e_cycles + wait_cycles
  | None ->
      Hashtbl.add s.edges key
        {
          e_wanted = t.t_label;
          e_holder = holder;
          e_count = 1;
          e_cycles = wait_cycles;
        }

(* ------------------------------------------------------------------ *)
(* Views                                                                *)
(* ------------------------------------------------------------------ *)

let copy_site s = { s with s_label = s.s_label }
let copy_edge e = { e with e_wanted = e.e_wanted }

(* Oldest first.  A ring holds the spans of one cpu (ring 0: every
   negative cpu, reported as -1). *)
let flight_of_ring cpu r =
  List.init r.fcount (fun k ->
      let i = (r.fnext - r.fcount + k + flight_cap) mod flight_cap in
      {
        f_label = r.f_labels.(i);
        f_tname = r.f_tnames.(i);
        f_cpu = cpu;
        f_t0 = r.f_t0s.(i);
        f_t1 = r.f_t1s.(i);
      })

let flight s =
  Array.to_list (Array.mapi (fun i r -> (i - 1, flight_of_ring (i - 1) r)) s.flight)
  |> List.filter (fun (_, l) -> l <> [])

let view_of t =
  let sites =
    Hashtbl.fold (fun _ site acc -> copy_site site :: acc) t.sites []
    |> List.sort (fun a b -> String.compare a.s_label b.s_label)
  in
  let edges =
    Hashtbl.fold (fun _ e acc -> copy_edge e :: acc) t.edges []
    |> List.sort (fun a b ->
           match compare b.e_cycles a.e_cycles with
           | 0 -> compare (a.e_wanted, a.e_holder) (b.e_wanted, b.e_holder)
           | c -> c)
  in
  {
    v_sites = sites;
    v_edges = edges;
    v_flight = flight t;
    v_open = t.open_at_end;
  }

(* No copy and no sort at run end: the finished run's tables become the
   last run's, and the ones they replace, cleared, are recorded into by
   the next run.  A view already handed out is a copy, so the recycling
   cannot change it. *)
let latch ~open_spans =
  let s = st () in
  let finished = s.live in
  finished.open_at_end <- open_spans;
  s.live <- (match s.last with Some t -> t | None -> new_tables ());
  clear s.live;
  s.last <- Some finished;
  s.last_view <- None

let last () =
  let s = st () in
  match (s.last_view, s.last) with
  | (Some _ as v), _ -> v
  | None, None -> None
  | None, Some t ->
      let v = Some (view_of t) in
      s.last_view <- v;
      v

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let pp_blockers ?(top_n = 10) ppf v =
  let by_blocked =
    List.sort
      (fun a b ->
        match compare b.s_blocked_cycles a.s_blocked_cycles with
        | 0 -> String.compare a.s_label b.s_label
        | c -> c)
      v.v_sites
  in
  match by_blocked with
  | [] -> Format.fprintf ppf "(no spans recorded)@."
  | sites ->
      Format.fprintf ppf "%-28s %7s %11s %8s %8s %12s@." "site" "spans"
        "busy-cycles" "max" "blocked" "blocked-cyc";
      List.iteri
        (fun i site ->
          if i < top_n then
            Format.fprintf ppf "%-28s %7d %11d %8d %8d %12d@." site.s_label
              site.s_spans site.s_busy site.s_max site.s_blocked
              site.s_blocked_cycles)
        sites;
      if v.v_edges <> [] then begin
        Format.fprintf ppf "@.blocked-by edges (wanted <- holder context):@.";
        List.iteri
          (fun i e ->
            if i < top_n then
              Format.fprintf ppf "  %s <- %s  (%d waits, %d cycles)@."
                e.e_wanted e.e_holder e.e_count e.e_cycles)
          v.v_edges
      end

let pp_flight ppf v =
  if v.v_flight <> [] then begin
    Format.fprintf ppf "flight recorder (most recent spans per cpu):@.";
    List.iter
      (fun (cpu, spans) ->
        Format.fprintf ppf "  cpu%d:@." cpu;
        List.iter
          (fun fs ->
            Format.fprintf ppf "    [%8d..%8d] %-26s %s@." fs.f_t0 fs.f_t1
              fs.f_label fs.f_tname)
          spans)
      v.v_flight
  end

(* The post-mortem suffix appended to deadlock reports; empty when the
   recorder saw nothing (spans off or no activity).  Open spans are the
   diagnostic half at a hang — a deadlocked run often completed few or
   no spans (the §7 holder never releases), but what every thread still
   HOLDS at dump time is exactly the evidence the cycle is made of. *)
let flight_dump ~open_spans =
  let v = { empty_view with v_flight = flight (st ()).live } in
  if v.v_flight = [] && open_spans = [] then ""
  else
    Format.asprintf "%a%a" pp_flight v
      (fun ppf -> function
        | [] -> ()
        | opens ->
            Format.fprintf ppf
              "open spans at the hang (per thread, innermost first):@.";
            List.iter
              (fun (tname, spans) ->
                Format.fprintf ppf "  %s: %s@." tname
                  (String.concat " < "
                     (List.map
                        (fun (label, t0) -> Printf.sprintf "%s since %d" label t0)
                        spans)))
              opens)
      open_spans

let to_json v =
  let open Obs_json in
  Obj
    [
      ( "sites",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("site", String s.s_label);
                   ("kind", String (kind_name s.s_kind));
                   ("spans", Int s.s_spans);
                   ("busy_cycles", Int s.s_busy);
                   ("max_cycles", Int s.s_max);
                   ("blocked", Int s.s_blocked);
                   ("blocked_cycles", Int s.s_blocked_cycles);
                 ])
             v.v_sites) );
      ( "blocked_by",
        List
          (List.map
             (fun e ->
               Obj
                 [
                   ("wanted", String e.e_wanted);
                   ("holder", String e.e_holder);
                   ("count", Int e.e_count);
                   ("cycles", Int e.e_cycles);
                 ])
             v.v_edges) );
      ( "flight",
        List
          (List.map
             (fun (cpu, spans) ->
               Obj
                 [
                   ("cpu", Int cpu);
                   ( "spans",
                     List
                       (List.map
                          (fun fs ->
                            Obj
                              [
                                ("site", String fs.f_label);
                                ("thread", String fs.f_tname);
                                ("t0", Int fs.f_t0);
                                ("t1", Int fs.f_t1);
                              ])
                          spans) );
                 ])
             v.v_flight) );
      ("open_spans", Int v.v_open);
    ]
