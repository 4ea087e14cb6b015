(* The per-thread context (see the interface).  A lock site's profile
   class and span tag are built at its first report, never again: no
   string is built on a lock operation, and locks made but never taken
   cost nothing.  Its class record is resolved once per profile
   generation, so a lock event looks nothing up by name. *)

module Obs_span = Mach_obs.Obs_span
module Obs_profile = Mach_obs.Obs_profile

type site = {
  name : string;
  mutable cls : string;
  mutable span : Obs_span.tag;
  res : Waits_for.resource;
  mutable prof : Obs_profile.class_stats;
  mutable ordered : string list;
  mutable gen : int;
}

(* Every site's tag until its first report. *)
let unbuilt = Obs_span.tag Obs_span.Lock ""

let site ~name res =
  {
    name;
    cls = "";
    span = unbuilt;
    res;
    prof = Obs_profile.placeholder;
    ordered = [];
    gen = -1;
  }

let refresh s =
  let gen = Obs_profile.generation () in
  if s.gen <> gen then begin
    if String.length s.cls = 0 then begin
      s.cls <- Obs_profile.class_of_name s.name;
      s.span <- Obs_span.tag Obs_span.Lock s.name
    end;
    s.prof <- Obs_profile.resolve s.cls;
    s.ordered <- [];
    s.gen <- gen
  end

let with_res s res =
  refresh s;
  { s with res }

type entry =
  | Hold of { site : site; seq : int; t0 : int }
  | Span of { tag : Obs_span.tag; t0 : int }

type t = {
  tid : int;
  tname : string;
  mutable stack : entry list;
  mutable waits : Waits_for.resource list;
  mutable last_event : int option;
  mutable simple_locks_held : int;
  mutable complex_spin_locks_held : int;
  mutable in_assert_wait : bool;
}

let make ~tid ~name =
  {
    tid;
    tname = name;
    stack = [];
    waits = [];
    last_event = None;
    simple_locks_held = 0;
    complex_spin_locks_held = 0;
    in_assert_wait = false;
  }

let clear t =
  t.stack <- [];
  t.waits <- [];
  t.last_event <- None;
  t.simple_locks_held <- 0;
  t.complex_spin_locks_held <- 0;
  t.in_assert_wait <- false

(* Stamps acquisitions so the holders of a resource list in acquisition
   order (a deadlock report's text depends on it). *)
let seq_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let () = Run_reset.register (fun () -> Domain.DLS.get seq_key := 0)

let next_seq () =
  let r = Domain.DLS.get seq_key in
  let n = !r in
  r := n + 1;
  n

let rec remove_first p = function
  | [] -> None
  | x :: rest -> (
      if p x then Some (x, rest)
      else
        match remove_first p rest with
        | Some (y, rest') -> Some (y, x :: rest')
        | None -> None)

let take t matches key =
  match t.stack with
  | e :: rest when matches key e ->
      t.stack <- rest;
      Some e
  | stack -> (
      match remove_first (matches key) stack with
      | Some (e, rest) ->
          t.stack <- rest;
          Some e
      | None -> None)

let held t =
  List.filter_map
    (function Hold h -> Some (h.site.name, h.site.res) | _ -> None)
    t.stack

let describe_holds t =
  match held t with
  | [] -> "nothing"
  | hs -> String.concat ", " (List.map fst hs)

let note_wait t res = t.waits <- res :: t.waits

(* A lock's wait ends on the resource it began on; an event's is
   rebuilt from the id. *)
let same_res a b = a == b || a = b

let wait_done t res =
  (match res with
  | Waits_for.Event { id } -> t.last_event <- Some id
  | _ -> ());
  (* The wait ending is almost always the latest one: take it off the
     head without allocating. *)
  match t.waits with
  | r :: rest when same_res r res -> t.waits <- rest
  | waits -> (
      match remove_first (same_res res) waits with
      | Some (_, rest) -> t.waits <- rest
      | None -> ())

let span_tag = function Hold h -> h.site.span | Span s -> s.tag
let span_label e = Obs_span.tag_label (span_tag e)

let open_spans t =
  List.map
    (function
      | Hold h -> (Obs_span.tag_label h.site.span, h.t0)
      | Span s -> (Obs_span.tag_label s.tag, s.t0))
    t.stack

let holder_context t wanted =
  let innermost = function [] -> "(top-level)" | e :: _ -> span_label e in
  let rec after = function
    | [] -> innermost t.stack
    | e :: rest -> if span_tag e == wanted then innermost rest else after rest
  in
  after t.stack

let wait_edges ts =
  List.concat_map (fun t -> List.map (fun r -> (t.tid, t.tname, r)) t.waits) ts
  |> List.sort compare

(* Sorting by (resource, seq) groups each resource's holders in
   acquisition order. *)
let hold_edges ts =
  List.concat_map
    (fun t ->
      List.filter_map
        (function
          | Hold h -> Some (h.site.res, h.seq, (t.tid, t.tname)) | _ -> None)
        t.stack)
    ts
  |> List.sort compare
  |> List.fold_left
       (fun acc (res, _, who) ->
         match acc with
         | (r, ws) :: rest when r = res -> (r, who :: ws) :: rest
         | _ -> (res, [ who ]) :: acc)
       []
  |> List.rev_map (fun (r, ws) -> (r, List.rev ws))
