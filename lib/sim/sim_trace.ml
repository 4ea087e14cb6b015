module Obs_event = Mach_obs.Obs_event
module Obs_json = Mach_obs.Obs_json

type event = {
  seq : int;
  step : int;
  clock : int;
  cpu : int;
  context : string;
  ev : Obs_event.t;
}

(* One bounded ring per cpu (slot 0 is the scheduler, cpu c is slot c+1),
   so a chatty cpu cannot evict every other cpu's recent history.  Events
   carry a global sequence number; [events] merges the rings on it. *)
type ring = {
  buf : event option array;
  mutable next : int;
  mutable count : int;
}

(* Span records ([Obs_event.Span_close]) and plain instants are lost for
   different reasons and debugged differently (a missing span breaks
   critical-path attribution; a missing instant breaks event forensics),
   so overflow is counted per kind.  Overflow classifies the EVICTED
   record, not the incoming one — the evicted record is the one actually
   lost. *)
type drop_stats = { dropped_spans : int; dropped_events : int }

type t = {
  per_ring : int;
  rings : ring array;
  mutable seq : int;
  mutable dropped_spans : int;
  mutable dropped_events : int;
}

let make ?(cpus = 1) ~capacity () =
  let nrings = max 1 cpus + 1 in
  let per_ring = max 1 (capacity / nrings) in
  {
    per_ring;
    rings =
      Array.init nrings (fun _ ->
          { buf = Array.make per_ring None; next = 0; count = 0 });
    seq = 0;
    dropped_spans = 0;
    dropped_events = 0;
  }

let capacity t = t.per_ring * Array.length t.rings

let ring_of t cpu =
  let n = Array.length t.rings in
  let i = cpu + 1 in
  t.rings.(if i < 0 || i >= n then 0 else i)

let record t ~step ~clock ~cpu ~context ev =
  let r = ring_of t cpu in
  if r.count = t.per_ring then begin
    (* The slot about to be overwritten holds the record we lose. *)
    match r.buf.(r.next) with
    | Some evicted when Obs_event.is_span evicted.ev ->
        t.dropped_spans <- t.dropped_spans + 1
    | _ -> t.dropped_events <- t.dropped_events + 1
  end
  else r.count <- r.count + 1;
  r.buf.(r.next) <- Some { seq = t.seq; step; clock; cpu; context; ev };
  t.seq <- t.seq + 1;
  r.next <- (r.next + 1) mod t.per_ring

let events t =
  let out = ref [] in
  Array.iter
    (fun r ->
      for i = 0 to t.per_ring - 1 do
        let idx = (r.next + i) mod t.per_ring in
        match r.buf.(idx) with Some e -> out := e :: !out | None -> ()
      done)
    t.rings;
  List.sort (fun (a : event) (b : event) -> compare a.seq b.seq) !out

let drop_stats t =
  { dropped_spans = t.dropped_spans; dropped_events = t.dropped_events }

let pp_event ppf e =
  Format.fprintf ppf "[%8d c%d @%8d] %-12s %-12s %s" e.step e.cpu e.clock
    e.context (Obs_event.name e.ev) (Obs_event.detail e.ev)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                            *)
(* ------------------------------------------------------------------ *)

(* One process per run; one Chrome "thread" per cpu (the scheduler's
   cpu -1 renders as tid 0, cpu c as tid c+1).  Cycle clocks are written
   as microseconds.  Every event becomes an instant ("i") named after its
   constructor; additionally, Tlb_shootdown_start/_done pairs and
   Lock_release events (which carry their own durations) synthesize
   complete ("X") spans so chrome://tracing / Perfetto render the
   shootdown barrier and lock hold times as bars. *)
let chrome_json events =
  let open Obs_json in
  let tid cpu = cpu + 1 in
  let common e =
    [
      ("pid", Int 1);
      ("tid", Int (tid e.cpu));
      ("ts", Float (float_of_int e.clock));
    ]
  in
  let instant e =
    Obj
      (("name", String (Obs_event.name e.ev))
       :: ("ph", String "i")
       :: ("s", String "t")
       :: common e
      @ [
          ( "args",
            Obj
              (("context", String e.context)
               :: ("step", Int e.step)
               :: Obs_event.args e.ev) );
        ])
  in
  let span ~name ~ts ~dur e =
    Obj
      [
        ("name", String name);
        ("ph", String "X");
        ("pid", Int 1);
        ("tid", Int (tid e.cpu));
        ("ts", Float (float_of_int ts));
        ("dur", Float (float_of_int (max 1 dur)));
        ("args", Obj (("context", String e.context) :: Obs_event.args e.ev));
      ]
  in
  let spans =
    List.filter_map
      (fun e ->
        match e.ev with
        | Obs_event.Tlb_shootdown_done { cycles; _ } ->
            Some (span ~name:"Tlb_shootdown" ~ts:(e.clock - cycles) ~dur:cycles e)
        | Obs_event.Lock_release { lock; held_cycles } ->
            Some
              (span ~name:("hold:" ^ lock) ~ts:(e.clock - held_cycles)
                 ~dur:held_cycles e)
        | Obs_event.Span_close { site; dur; _ } ->
            Some (span ~name:("span:" ^ site) ~ts:(e.clock - dur) ~dur e)
        | _ -> None)
      events
  in
  let thread_names =
    let cpus =
      List.sort_uniq compare (List.map (fun e -> e.cpu) events)
    in
    List.map
      (fun cpu ->
        Obj
          [
            ("name", String "thread_name");
            ("ph", String "M");
            ("pid", Int 1);
            ("tid", Int (tid cpu));
            ( "args",
              Obj
                [
                  ( "name",
                    String
                      (if cpu < 0 then "scheduler"
                       else Printf.sprintf "cpu%d" cpu) );
                ] );
          ])
      cpus
  in
  Obj
    [
      ( "traceEvents",
        List (thread_names @ List.map instant events @ spans) );
      ("displayTimeUnit", String "ms");
    ]
