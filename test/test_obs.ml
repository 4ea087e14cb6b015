(* The observability layer: histogram bucket geometry and percentiles,
   trace overflow accounting, the contention profiler, and the Chrome
   trace-event export round-trip. *)

module Hist = Mach_obs.Obs_histogram
module Metrics = Mach_obs.Obs_metrics
module Profile = Mach_obs.Obs_profile
module Json = Mach_obs.Obs_json
module Event = Mach_obs.Obs_event
module Trace = Mach_sim.Sim_trace
open Test_support

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)
(* ------------------------------------------------------------------ *)

let test_hist_bucket_boundaries () =
  (* below 2 * sub_buckets the mapping is the identity: values are exact *)
  for v = 0 to 63 do
    check_int (Printf.sprintf "identity bucket for %d" v) v
      (Hist.bucket_index v)
  done;
  (* bucket bounds partition the value space: each bucket's hi + 1 is the
     next bucket's lo, and every value maps into its own bucket's range *)
  let last = Hist.bucket_index max_int in
  let prev_hi = ref (-1) in
  for idx = 0 to min last 200 do
    let lo, hi = Hist.bucket_bounds idx in
    check_int (Printf.sprintf "bucket %d contiguous" idx) (!prev_hi + 1) lo;
    check_bool (Printf.sprintf "bucket %d ordered" idx) true (lo <= hi);
    check_int (Printf.sprintf "lo of bucket %d maps back" idx) idx
      (Hist.bucket_index lo);
    check_int (Printf.sprintf "hi of bucket %d maps back" idx) idx
      (Hist.bucket_index hi);
    prev_hi := hi
  done;
  (* relative quantization error is bounded by 1/32 *)
  List.iter
    (fun v ->
      let lo, hi = Hist.bucket_bounds (Hist.bucket_index v) in
      check_bool (Printf.sprintf "%d within its bucket" v) true
        (lo <= v && v <= hi);
      check_bool
        (Printf.sprintf "bucket width at %d within 1/32 relative" v)
        true
        (hi - lo + 1 <= max 1 (v / 32 + 1)))
    [ 64; 100; 1000; 65536; 1_000_000; 123_456_789 ]

let test_hist_percentiles_known_distribution () =
  let h = Hist.make () in
  (* 1..100, once each: percentiles are known exactly (all values < 64
     are exact, the rest quantized by < 1/32) *)
  for v = 1 to 100 do
    Hist.record h v
  done;
  check_int "count" 100 (Hist.count h);
  check_int "sum" 5050 (Hist.sum h);
  check_int "min" 1 (Hist.min_value h);
  check_int "max" 100 (Hist.max_value h);
  check_int "p50 of 1..100" 50 (Hist.percentile h 50.);
  check_int "p0 is min" 1 (Hist.percentile h 0.);
  check_int "p100 is max" 100 (Hist.percentile h 100.);
  (* 90 and 99 land in log buckets; allow the documented 1/32 error *)
  let near name expected got =
    check_bool
      (Printf.sprintf "%s: |%d - %d| <= %d" name got expected
         (expected / 32 + 1))
      true
      (abs (got - expected) <= (expected / 32) + 1)
  in
  near "p90" 90 (Hist.percentile h 90.);
  near "p99" 99 (Hist.percentile h 99.);
  check_int "empty percentile" 0 (Hist.percentile (Hist.make ()) 50.)

let test_hist_merge_and_reset () =
  let a = Hist.make () and b = Hist.make () in
  Hist.record_n a 10 ~n:5;
  Hist.record_n b 1000 ~n:3;
  Hist.merge_into ~dst:a b;
  check_int "merged count" 8 (Hist.count a);
  check_int "merged max" 1000 (Hist.max_value a);
  check_int "merged min" 10 (Hist.min_value a);
  Hist.reset a;
  check_int "reset count" 0 (Hist.count a);
  check_int "reset max" 0 (Hist.max_value a)

(* The bucket counts are kept off the OCaml heap: sixteen histograms,
   one registry entry's shards, add a few hundred words of live heap
   where 16 flat arrays of 1,920 counts would add about 30,800. *)
let test_hist_storage_off_heap () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let hs = List.init 16 (fun _ -> Hist.make ()) in
  let added = live () - before in
  List.iter (fun h -> Hist.record h 5) hs;
  check_int "every histogram still usable" 16
    (List.fold_left (fun n h -> n + Hist.count h) 0 hs);
  if added >= 1_000 then
    Alcotest.failf "16 histograms added %d live words (limit 1,000)" added

(* ------------------------------------------------------------------ *)
(* Trace ring accounting                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_overflow () =
  (* overflow evicts oldest per ring and counts as dropped *)
  let on = Trace.make ~cpus:2 ~capacity:30 () in
  check_int "capacity = per-ring x rings" 30 (Trace.capacity on);
  for i = 0 to 14 do
    Trace.record on ~step:i ~clock:i ~cpu:0 ~context:"t"
      (Event.Cell_set { cell = "x"; value = i })
  done;
  check_int "cpu0 ring keeps its 10 newest" 10 (List.length (Trace.events on));
  let d = Trace.drop_stats on in
  check_int "overflow counted" 5
    (d.Trace.dropped_spans + d.Trace.dropped_events);
  (* the 5 oldest were evicted; events come back in seq order *)
  (match Trace.events on with
  | first :: _ -> check_int "oldest surviving event" 5 first.Trace.step
  | [] -> Alcotest.fail "expected events");
  (* a chatty cpu must not evict another cpu's history *)
  Trace.record on ~step:99 ~clock:99 ~cpu:1 ~context:"u"
    (Event.Cell_set { cell = "y"; value = 0 });
  check_int "cpu1 unaffected by cpu0 overflow" 11
    (List.length (Trace.events on))

(* An untraced run makes no trace and installs no sink, so the core
   layers build no event: the model checker and seed sweeps allocate no
   ring per run. *)
let test_untraced_run_makes_no_trace () =
  let module Engine = Mach_sim.Sim_engine in
  let module K = Mach_ksync.Ksync in
  let sink_seen = ref true in
  ignore
    (Engine.run
       ~cfg:{ Mach_sim.Sim_config.default with Mach_sim.Sim_config.cpus = 2 }
       (fun () ->
         let l = K.Slock.make ~name:"untraced" () in
         K.Slock.lock l;
         sink_seen := Mach_obs.Obs_trace.enabled ();
         K.Slock.unlock l));
  check_bool "no sink during the run" false !sink_seen;
  check_bool "no events" true (Engine.trace_events () = []);
  check_bool "no loss counters" true (Engine.trace_drop_stats () = None)

(* ------------------------------------------------------------------ *)
(* Chrome export + JSON round-trip                                      *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_round_trip () =
  let t = Trace.make ~cpus:2 ~capacity:100 () in
  let record ~clock ~cpu ev =
    Trace.record t ~step:clock ~clock ~cpu ~context:"thr" ev
  in
  record ~clock:10 ~cpu:0 (Event.Lock_acquire { lock = "slock1"; spins = 3; wait_cycles = 12 });
  record ~clock:50 ~cpu:0 (Event.Lock_release { lock = "slock1"; held_cycles = 40 });
  record ~clock:60 ~cpu:1
    (Event.Tlb_shootdown_start { initiator = 1; participants = 1; lazies = 0 });
  record ~clock:200 ~cpu:1
    (Event.Tlb_shootdown_done { participants = 1; cycles = 140 });
  let text = Json.to_string (Trace.chrome_json (Trace.events t)) in
  match Json.of_string text with
  | Error msg -> Alcotest.fail ("export does not parse: " ^ msg)
  | Ok doc -> (
      check_bool "shootdown start present" true
        (contains text "Tlb_shootdown_start");
      check_bool "shootdown done present" true
        (contains text "Tlb_shootdown_done");
      check_bool "a complete span synthesized" true (contains text "\"X\"");
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
          (* 2 thread-name metadata records (scheduler track absent: no
             cpu -1 events) + 4 instants + 2 spans *)
          check_int "event count" 8 (List.length evs);
          let span_names =
            List.filter_map
              (fun e ->
                match (Json.member "ph" e, Json.member "name" e) with
                | Some (Json.String "X"), Some (Json.String n) -> Some n
                | _ -> None)
              evs
          in
          check_bool "hold span" true (List.mem "hold:slock1" span_names);
          check_bool "shootdown span" true
            (List.mem "Tlb_shootdown" span_names)
      | _ -> Alcotest.fail "no traceEvents array")

let test_json_parser () =
  let cases =
    [
      ({|{"a":1,"b":[true,false,null,"x\n\"y\""],"c":-2.5}|}, true);
      ({|[1,2,3]|}, true);
      ({|"lone string"|}, true);
      ({|{"unterminated":|}, false);
      ({|{"trailing":1} garbage|}, false);
      ("", false);
    ]
  in
  List.iter
    (fun (text, ok) ->
      match Json.of_string text with
      | Ok _ ->
          check_bool (Printf.sprintf "%S should parse" text) true ok
      | Error _ ->
          check_bool (Printf.sprintf "%S should not parse" text) false ok)
    cases;
  (* round-trip a document through to_string/of_string *)
  let doc =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 1.5);
        ("s", Json.String "esc\"ape\n");
        ("l", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok d -> check_bool "round-trip equal" true (d = doc)
  | Error m -> Alcotest.fail ("round-trip: " ^ m)

(* ------------------------------------------------------------------ *)
(* Metrics registry + profiler                                          *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr 0 c;
  Metrics.add 3 c 4;
  check_int "shards merge at read" 5 (Metrics.counter_value c);
  check_bool "interning returns the same counter" true
    (Metrics.counter_value (Metrics.counter "test.counter") = 5);
  (match Metrics.histogram "test.counter" with
  | _ -> Alcotest.fail "type clash must raise"
  | exception Invalid_argument _ -> ());
  let h = Metrics.histogram "test.hist" in
  Metrics.observe 0 h 10;
  Metrics.observe 7 h 30;
  check_int "histogram shards merge" 2 (Hist.count (Metrics.merged h));
  Metrics.reset ();
  check_int "reset zeroes counters" 0 (Metrics.counter_value c);
  check_int "reset zeroes histograms" 0 (Hist.count (Metrics.merged h))

let test_profile_classes_and_edges () =
  Profile.reset ();
  check_bool "class strips digits" true
    (Profile.class_of_name "slock12" = "slock");
  check_bool "class keeps dots" true
    (Profile.class_of_name "lock3.interlock" = "lock.interlock");
  check_bool "all-digit name falls back" true
    (Profile.class_of_name "42" = "lock");
  (* a thread holding a pmap lock contends on a pv lock: edge *)
  let pmap = Profile.resolve "pmap" and pv = Profile.resolve "pv" in
  Profile.note_acquire pmap ~holder:None ~contended:false ~wait_cycles:0;
  Profile.note_acquire pv ~holder:(Some "pmap") ~contended:true
    ~wait_cycles:250;
  Profile.note_release pv ~held_cycles:10;
  Profile.note_release pmap ~held_cycles:100;
  (match Profile.edges () with
  | [ (holder, wanted, n) ] ->
      check_bool "edge holder" true (holder = "pmap");
      check_bool "edge wanted" true (wanted = "pv");
      check_int "edge count" 1 n
  | es -> Alcotest.fail (Printf.sprintf "expected 1 edge, got %d" (List.length es)));
  (match Profile.top ~n:1 with
  | [ c ] ->
      check_bool "top class by wait" true (c.Profile.cls = "pv");
      check_int "wait cycles" 250 c.Profile.wait_cycles
  | _ -> Alcotest.fail "expected a top class");
  Profile.reset ();
  check_bool "reset clears classes" true (Profile.classes () = [])

(* A lock's statistics are its class record in the profiler: the
   first-attempt rate of a class nothing acquired, and of one whose every
   acquisition was contended. *)
let test_first_attempt_rate_edges () =
  Profile.reset ();
  let empty =
    {
      Profile.cls = "x";
      acquisitions = 0;
      contended = 0;
      wait_cycles = 0;
      hold_cycles = 0;
      wait_hist = Hist.make ();
    }
  in
  check_bool "no acquisitions -> rate 1.0" true
    (Profile.first_attempt_rate empty = 1.0);
  let l = Profile.resolve "l" in
  for _ = 1 to 3 do
    Profile.note_acquire l ~holder:None ~contended:true ~wait_cycles:5;
    Profile.note_release l ~held_cycles:1
  done;
  (match Profile.classes () with
  | [ c ] ->
      check_int "acquisitions counted" 3 c.Profile.acquisitions;
      check_bool "all contended -> rate 0.0" true
        (Profile.first_attempt_rate c = 0.0)
  | cs ->
      Alcotest.fail (Printf.sprintf "expected 1 class, got %d" (List.length cs)));
  Profile.reset ()

(* The lock holds on a thread's context: innermost first and exact per
   lock instance.  A context belongs to its thread, so a thread that
   released everything holds nothing, and nothing a run left held
   reaches the next run.  The profiler's holder class comes from the
   holds. *)
let test_held_record () =
  let module K = Mach_ksync.Ksync in
  let module Engine = Mach_sim.Sim_engine in
  let module Ctx = Mach_core.Thread_ctx in
  Profile.reset ();
  let names t = List.map fst (Ctx.held (Engine.context t)) in
  let cfg = { Mach_sim.Sim_config.default with Mach_sim.Sim_config.cpus = 2 } in
  ignore
    (Engine.run ~cfg (fun () ->
         let self = Engine.self () in
         let a = K.Slock.make ~name:"a1" () in
         let b = K.Slock.make ~name:"b1" () in
         K.Slock.lock a;
         K.Slock.lock b;
         Alcotest.(check (list string)) "innermost first" [ "b1"; "a1" ]
           (names self);
         K.Slock.unlock a;
         Alcotest.(check (list string)) "released out of order" [ "b1" ]
           (names self);
         K.Slock.unlock b;
         Alcotest.(check (list string)) "released thread holds nothing" []
           (names self);
         (* A pmap holder contends on a pv lock: the profiler's edge. *)
         let pmap = K.Slock.make ~name:"pmap0" () in
         let pv = K.Slock.make ~name:"pv3" () in
         let go = Engine.Cell.make ~name:"go" 0 in
         let h =
           Engine.spawn (fun () ->
               K.Slock.lock pv;
               Engine.Cell.set go 1;
               Engine.cycles 2000;
               K.Slock.unlock pv)
         in
         wait_until (fun () -> Engine.Cell.get go = 1);
         K.Slock.lock pmap;
         K.Slock.lock pv;
         K.Slock.unlock pv;
         K.Slock.unlock pmap;
         Engine.join h;
         let ts =
           List.init 8 (fun _ ->
               Engine.spawn (fun () ->
                   for _ = 1 to 3 do
                     K.Slock.lock a;
                     Engine.cycles 10;
                     K.Slock.unlock a
                   done))
         in
         List.iter Engine.join ts;
         check_bool "no thread holds anything after everything was released"
           true
           (List.for_all (fun t -> names t = []) (self :: h :: ts));
         (* Left held when the run ends. *)
         K.Slock.lock a;
         Alcotest.(check (list string)) "held at the end of the run" [ "a1" ]
           (names self)));
  ignore
    (Engine.run ~cfg (fun () ->
         Alcotest.(check (list string)) "the next run starts with nothing held"
           [] (names (Engine.self ()))));
  check_bool "the holder class came from the holds" true
    (List.mem ("pmap", "pv", 1) (Profile.edges ()));
  check_bool "the run was profiled" true
    (List.exists (fun c -> c.Profile.cls = "a") (Profile.classes ()))

(* ------------------------------------------------------------------ *)
(* End-to-end: a traced simulation run                                  *)
(* ------------------------------------------------------------------ *)

let test_traced_run_has_typed_lock_events () =
  let module K = Mach_ksync.Ksync in
  Profile.reset ();
  let cfg =
    { Mach_sim.Sim_config.default with Mach_sim.Sim_config.cpus = 2; trace = true }
  in
  ignore
    (Mach_sim.Sim_engine.run ~cfg (fun () ->
         let l = K.Slock.make ~name:"shared" () in
         let ts =
           List.init 2 (fun k ->
               Mach_sim.Sim_engine.spawn ~name:(Printf.sprintf "w%d" k)
                 (fun () ->
                   for _ = 1 to 5 do
                     K.Slock.lock l;
                     Mach_sim.Sim_engine.cycles 20;
                     K.Slock.unlock l
                   done))
         in
         List.iter Mach_sim.Sim_engine.join ts));
  let events = Mach_sim.Sim_engine.trace_events () in
  let has p = List.exists (fun e -> p e.Trace.ev) events in
  check_bool "typed Lock_acquire traced" true
    (has (function Event.Lock_acquire { lock = "shared"; _ } -> true | _ -> false));
  check_bool "typed Lock_release traced" true
    (has (function Event.Lock_release { lock = "shared"; _ } -> true | _ -> false));
  check_bool "profiler saw the lock class" true
    (List.exists
       (fun c -> c.Profile.cls = "shared")
       (Profile.classes ()))

(* ------------------------------------------------------------------ *)
(* Spans: nesting/pairing invariants, blocked-by, critical path,        *)
(* determinism, and cross-run leak regression                           *)
(* ------------------------------------------------------------------ *)

module Span = Mach_obs.Obs_span
module Cp = Mach_obs.Obs_critical_path
module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config

(* One thread's context stack driven by a random script, inside a run:
   lock holds of three simple locks interleaved with event, IPC and VM
   spans under two names each.  The model mirrors the documented
   semantics: a hold or span pushes; an unlock closes that lock's hold;
   [exit] closes the innermost span at its site and [exit_kind] the
   innermost of its kind; unmatched exits are no-ops.  After every step
   the context's open spans must equal the model's stack, and the
   latched view must count every close and every span left open. *)
type span_entry = Hold of int | Sp of int * int (* kind, name *)

let apply_ops ops =
  let module K = Mach_ksync.Ksync in
  let kinds = [| Span.Event; Span.Ipc; Span.Vm |] in
  let tags =
    Array.map (fun k -> [| Span.tag k "x"; Span.tag k "y" |]) kinds
  in
  let entry_label = function
    | Hold i -> Printf.sprintf "lock:pl%d" i
    | Sp (k, n) -> Span.tag_label tags.(k).(n)
  in
  let model = ref [] and closed = Hashtbl.create 8 in
  let close e =
    let l = entry_label e in
    Hashtbl.replace closed l (1 + Option.value ~default:0 (Hashtbl.find_opt closed l))
  in
  let remove_first p =
    let rec go acc = function
      | [] -> ()
      | x :: rest ->
          if p x then begin
            close x;
            model := List.rev_append acc rest
          end
          else go (x :: acc) rest
    in
    go [] !model
  in
  let stepwise = ref true in
  ignore
    (Engine.run ~cfg:{ Config.default with Config.cpus = 1 } (fun () ->
         let ctx = Engine.context (Engine.self ()) in
         let locks = Array.init 3 (fun i -> K.Slock.make ~name:(Printf.sprintf "pl%d" i) ()) in
         let held i = List.mem (Hold i) !model in
         List.iter
           (fun op ->
             (if op < 3 then begin
                if not (held op) then begin
                  K.Slock.lock locks.(op);
                  model := Hold op :: !model
                end
              end
              else if op < 6 then begin
                let i = op - 3 in
                if held i then begin
                  K.Slock.unlock locks.(i);
                  remove_first (( = ) (Hold i))
                end
              end
              else if op < 12 then begin
                let k = (op - 6) / 2 and n = (op - 6) mod 2 in
                K.Span.enter tags.(k).(n);
                model := Sp (k, n) :: !model
              end
              else if op < 18 then begin
                let k = (op - 12) / 2 and n = (op - 12) mod 2 in
                K.Span.exit tags.(k).(n);
                remove_first (( = ) (Sp (k, n)))
              end
              else begin
                let k = op - 18 in
                K.Span.exit_kind kinds.(k);
                remove_first (function Sp (k', _) -> k' = k | Hold _ -> false)
              end);
             if
               List.map fst (Mach_core.Thread_ctx.open_spans ctx)
               <> List.map entry_label !model
             then stepwise := false)
           ops));
  match Span.last () with
  | None -> false
  | Some v ->
      !stepwise
      && v.Span.v_open = List.length !model
      && List.for_all
           (fun s ->
             s.Span.s_spans
             = Option.value ~default:0 (Hashtbl.find_opt closed s.Span.s_label)
             && s.Span.s_busy >= 0 && s.Span.s_max >= 0)
           v.Span.v_sites
      && Hashtbl.fold
           (fun l n ok ->
             ok
             && List.exists
                  (fun s -> s.Span.s_label = l && s.Span.s_spans = n)
                  v.Span.v_sites)
           closed true

let span_pairing_prop =
  QCheck.Test.make ~count:300 ~name:"span nesting/pairing matches the model"
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 20))
    apply_ops

(* Critical-path attribution: for any event soup and makespan, fractions
   are non-negative, disjoint-by-construction, and sum to <= 1.0. *)
let cp_sums_prop =
  let gen =
    QCheck.(
      pair (int_range 1 2000)
        (list_of_size (Gen.int_range 0 40)
           (triple (int_range 0 2000) (int_range 0 3) (int_range 0 800))))
  in
  QCheck.Test.make ~count:300
    ~name:"critical-path fractions sum to <= 1.0" gen
    (fun (makespan, raw) ->
      let evs =
        List.map
          (fun (clock, which, c) ->
            let ev =
              match which with
              | 0 ->
                  Event.Lock_acquire
                    { lock = "l" ^ string_of_int (c mod 3); spins = 1; wait_cycles = c }
              | 1 -> Event.Span_close { kind = "event"; site = "event:evt1"; dur = c }
              | 2 -> Event.Span_close { kind = "ipc"; site = "ipc:send:p"; dur = c }
              | _ -> Event.Lock_release { lock = "l0"; held_cycles = c }
            in
            { Cp.cp_clock = clock; cp_ev = ev })
          raw
      in
      let r = Cp.compute ~makespan evs in
      let sum =
        List.fold_left (fun acc a -> acc +. a.Cp.fraction) 0. r.Cp.attributed
      in
      sum <= 1.0 +. 1e-9
      && List.for_all
           (fun a -> a.Cp.fraction >= 0. && a.Cp.cycles >= 0)
           r.Cp.attributed
      && r.Cp.residual >= -1e-9
      && abs_float (1.0 -. sum -. r.Cp.residual) <= 1e-6)

(* The span layer must be schedule-invisible: the same (seed, cfg)
   contention run produces byte-identical stats with spans on and off. *)
let contention_scenario () =
  let module K = Mach_ksync.Ksync in
  let l = K.Slock.make ~name:"contended" ~proto:K.Locks.ttas () in
  let ts =
    List.init 4 (fun k ->
        Engine.spawn ~name:(Printf.sprintf "w%d" k) (fun () ->
            for _ = 1 to 8 do
              K.Slock.lock l;
              Engine.cycles 20;
              K.Slock.unlock l
            done))
  in
  List.iter Engine.join ts

let stats_line ~spans =
  let cfg = { Config.default with Config.cpus = 4; seed = 11; spans } in
  Format.asprintf "%a" Engine.pp_stats (Engine.run ~cfg contention_scenario)

let test_spans_do_not_perturb_schedule () =
  let on = stats_line ~spans:true in
  let off = stats_line ~spans:false in
  Alcotest.(check string) "spans-on stats byte-identical to spans-off" off on;
  (* and the on-run really recorded spans, or the equality proves nothing *)
  match Span.last () with
  | Some v ->
      check_bool "spans-off run latches an empty view" true (v.Span.v_sites = [])
  | None -> ()

let run_contention_spans () =
  let cfg = { Config.default with Config.cpus = 4; seed = 11 } in
  ignore (Engine.run ~cfg contention_scenario);
  match Span.last () with
  | Some v -> v
  | None -> Alcotest.fail "no span view latched"

(* Blocked-by pinned: with checking on, every contended acquisition of
   the hammered lock lands one edge attributed to the holder's context
   (the workers hold nothing else, so it is "(top-level)"). *)
let test_blocked_by_edges_pinned () =
  Profile.reset ();
  let v = run_contention_spans () in
  let site =
    match
      List.find_opt (fun s -> s.Span.s_label = "lock:contended") v.Span.v_sites
    with
    | Some s -> s
    | None -> Alcotest.fail "no lock:contended site"
  in
  check_int "all 32 acquisitions closed spans" 32 site.Span.s_spans;
  let contended =
    match List.find_opt (fun c -> c.Profile.cls = "contended") (Profile.classes ()) with
    | Some c -> c.Profile.contended
    | None -> Alcotest.fail "profiler missed the lock class"
  in
  check_bool "the run was actually contended" true (contended > 0);
  check_int "every contended wait attributed" contended site.Span.s_blocked;
  match v.Span.v_edges with
  | [ e ] ->
      Alcotest.(check string) "edge wanted" "lock:contended" e.Span.e_wanted;
      Alcotest.(check string) "edge holder context" "(top-level)" e.Span.e_holder;
      check_int "edge count = contended waits" contended e.Span.e_count
  | edges ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one blocked-by edge, got %d"
           (List.length edges))

(* Cross-run leak regression (the PR-4 Event-registry bug shape): a
   second identical run must latch an identical view, not a doubled
   one — Run_reset really clears the live span tables between runs. *)
let test_spans_reset_between_runs () =
  let v1 = run_contention_spans () in
  let v2 = run_contention_spans () in
  let summarize v =
    List.map
      (fun s -> (s.Span.s_label, s.Span.s_spans, s.Span.s_blocked))
      v.Span.v_sites
  in
  check_bool "second run's sites identical (no accumulation)" true
    (summarize v1 = summarize v2);
  check_int "no spans left open across runs" 0 v2.Span.v_open

(* The engine latches a finished run's span tables without copying them
   and hands the previous run's tables, cleared, to the next run.  A
   view once read is a copy: later runs, including one that records the
   same site into the recycled tables, leave it as it was.  And each
   run's view lists only that run's sites and flight spans. *)
let test_span_latch_recycles () =
  let module K = Mach_ksync.Ksync in
  let run name times =
    let cfg = { Config.default with Config.cpus = 2; seed = 1 } in
    ignore
      (Engine.run ~cfg (fun () ->
           let l = K.Slock.make ~name () in
           for _ = 1 to times do
             K.Slock.lock l;
             Engine.pause ();
             K.Slock.unlock l
           done));
    match Span.last () with
    | Some v -> v
    | None -> Alcotest.fail "no span view latched"
  in
  let summary v =
    ( List.map
        (fun s -> (s.Span.s_label, s.Span.s_spans, s.Span.s_busy))
        v.Span.v_sites,
      List.map
        (fun (cpu, l) ->
          (cpu, List.map (fun fs -> (fs.Span.f_label, fs.Span.f_t0)) l))
        v.Span.v_flight )
  in
  let labels v =
    List.sort_uniq compare
      (List.map (fun s -> s.Span.s_label) v.Span.v_sites
      @ List.concat_map
          (fun (_, l) -> List.map (fun fs -> fs.Span.f_label) l)
          v.Span.v_flight)
  in
  let a = run "latch-a" 1 in
  let a_read = summary a in
  let b = run "latch-b" 2 in
  check_bool "A's view unchanged by run B" true (summary a = a_read);
  Alcotest.(check (list string)) "B lists only its own spans" [ "lock:latch-b" ]
    (labels b);
  check_int "B's flight spans" 2
    (List.length (List.concat_map snd b.Span.v_flight));
  let c = run "latch-a" 3 in
  check_bool "A's view unchanged by a run that reuses its tables" true
    (summary a = a_read);
  Alcotest.(check (list string)) "C lists only its own spans" [ "lock:latch-a" ]
    (labels c);
  check_int "C's spans alone" 3
    (List.fold_left (fun n s -> n + s.Span.s_spans) 0 c.Span.v_sites)

(* A lock site keeps its class record for one profile generation and
   its span site for one run; an IPC tag keeps its span site for one
   run.  A lock and a tag made outside the runs of one domain must
   record each run into that run's tables: a run's view and the profile
   after its reset count that run only.  The third run records into the
   tables the first run latched, recycled, with the tag last resolved
   in the first. *)
let test_cached_records_per_run () =
  let module K = Mach_ksync.Ksync in
  let l = K.Slock.make ~name:"kept" () in
  let tag = Span.tag Span.Ipc "kept" in
  let run times =
    Profile.reset ();
    let cfg = { Config.default with Config.cpus = 1 } in
    ignore
      (Engine.run ~cfg (fun () ->
           for _ = 1 to times do
             K.Span.enter tag;
             K.Slock.lock l;
             Engine.cycles 5;
             K.Slock.unlock l;
             K.Span.exit tag
           done));
    let v =
      match Span.last () with
      | Some v -> v
      | None -> Alcotest.fail "no span view latched"
    in
    let spans label =
      match List.find_opt (fun s -> s.Span.s_label = label) v.Span.v_sites with
      | Some s -> s.Span.s_spans
      | None -> 0
    in
    let acquisitions =
      match List.find_opt (fun c -> c.Profile.cls = "kept") (Profile.classes ()) with
      | Some c -> c.Profile.acquisitions
      | None -> 0
    in
    [ spans "lock:kept"; spans "ipc:kept"; acquisitions ]
  in
  Alcotest.(check (list int)) "first run" [ 3; 3; 3 ] (run 3);
  Alcotest.(check (list int)) "a run that takes nothing" [ 0; 0; 0 ] (run 0);
  Alcotest.(check (list int)) "the third run counts only itself" [ 5; 5; 5 ]
    (run 5)

(* The flight ring keeps the newest 16 spans of a cpu, oldest first,
   once it has wrapped; a later run of the domain starts from an empty
   ring. *)
let test_flight_ring_wraps () =
  let module K = Mach_ksync.Ksync in
  let flight prefix n =
    let cfg = { Config.default with Config.cpus = 1 } in
    ignore
      (Engine.run ~cfg (fun () ->
           for i = 0 to n - 1 do
             let l = K.Slock.make ~name:(Printf.sprintf "%s%d" prefix i) () in
             K.Slock.lock l;
             Engine.cycles 5;
             K.Slock.unlock l
           done));
    match Span.last () with
    | Some v ->
        List.map
          (fun (cpu, l) -> (cpu, List.map (fun fs -> fs.Span.f_label) l))
          v.Span.v_flight
    | None -> Alcotest.fail "no span view latched"
  in
  let labels prefix lo hi =
    List.init (hi - lo) (fun i -> Printf.sprintf "lock:%s%d" prefix (lo + i))
  in
  Alcotest.(check (list (pair int (list string))))
    "the newest 16 of 20, oldest first" [ (0, labels "w" 4 20) ]
    (flight "w" 20);
  Alcotest.(check (list (pair int (list string))))
    "the next run's ring holds its own spans" [ (0, labels "z" 0 3) ]
    (flight "z" 3)

(* vm_allocate_at must bracket every exit path — including the
   Error `Overlap early return — in its Vm span: after successes and
   failures on both map disciplines, the site shows all calls closed
   and the view has nothing left open. *)
let test_alloc_at_span_pairing () =
  let module Vm_map = Mach_vm.Vm_map in
  let cfg = { Config.default with Config.cpus = 2; seed = 3 } in
  ignore
    (Engine.run ~cfg (fun () ->
         List.iter
           (fun locking ->
             let ctx = Vm_map.make_context ~pages:16 () in
             let map = Vm_map.create ~name:"spanmap" ~locking ctx in
             (match Vm_map.vm_allocate_at map ~va:0x2000 ~size:2 with
             | Ok _ -> ()
             | Error `Overlap -> Engine.fatal "unexpected overlap");
             (match Vm_map.vm_allocate_at map ~va:0x2001 ~size:2 with
             | Error `Overlap -> ()
             | Ok _ -> Engine.fatal "overlap admitted");
             Vm_map.release map)
           [ Vm_map.Coarse; Vm_map.Range ]));
  match Span.last () with
  | None -> Alcotest.fail "no span view latched"
  | Some v -> (
      check_int "no spans left open" 0 v.Span.v_open;
      match
        List.find_opt
          (fun s -> s.Span.s_label = "vm:alloc_at:spanmap")
          v.Span.v_sites
      with
      | Some site ->
          check_int "all four alloc_at calls closed their spans" 4
            site.Span.s_spans
      | None -> Alcotest.fail "no vm:alloc_at:spanmap site")

(* Two ranges of one range lock share a span label; releasing the first
   range taken must close that range's own span, not the innermost span
   with the label.  One cpu, so every clock below is pinned. *)
let test_range_spans_close_their_own_range () =
  let module K = Mach_ksync.Ksync in
  let cfg = { Config.default with Config.cpus = 1 } in
  ignore
    (Engine.run ~cfg (fun () ->
         let l = K.Rlock.make ~name:"two" () in
         let a = K.Rlock.acquire l ~lo:0 ~hi:4 Mach_locks.Range_lock.Write in
         let b = K.Rlock.acquire l ~lo:8 ~hi:12 Mach_locks.Range_lock.Write in
         K.Rlock.release l a;
         K.Rlock.release l b));
  match Span.last () with
  | None -> Alcotest.fail "no span view latched"
  | Some v ->
      let spans =
        List.concat_map snd v.Span.v_flight
        |> List.filter (fun fs -> fs.Span.f_label = "lock:two")
        |> List.map (fun fs -> (fs.Span.f_t0, fs.Span.f_t1))
      in
      Alcotest.(check (list (pair int int)))
        "each range closes its own span, in release order"
        [ (350, 490); (420, 560) ] spans;
      let site =
        List.find (fun s -> s.Span.s_label = "lock:two") v.Span.v_sites
      in
      check_int "longest hold" 140 site.Span.s_max

(* The section 7 three-processor interrupt deadlock (lib/chaos): the
   post-mortem must carry the open-span dump naming the held lock. *)
let test_section7_deadlock_flight_dump () =
  let module Chaos = Mach_chaos.Chaos in
  let module Fault = Mach_chaos.Chaos_fault in
  let r =
    Chaos.run_one ~cpus:4 ~seed:1 ~faults:(Fault.mix [])
      (Mach_kernel.Scenarios.get "interrupt-deadlock").run
  in
  check_bool "the seeded run deadlocks" true (Chaos.detected r.Chaos.detection);
  check_bool "report names the waits-for cycle" true
    (contains r.Chaos.report "waits-for cycle");
  check_bool "report carries the open-span dump" true
    (contains r.Chaos.report "open spans at the hang");
  check_bool "the dump names the held section 7 lock" true
    (contains r.Chaos.report "lock:the-lock")

(* Span records in the drop accounting: overflow is counted by the kind
   of the record it evicts. *)
let test_drop_stats_split () =
  let mk_span i = Event.Span_close { kind = "lock"; site = "lock:l"; dur = i } in
  let mk_instant i = Event.Cell_set { cell = "x"; value = i } in
  (* per-cpu ring capacity is 10 (30 over 3 rings): 12 instants overflow
     by 2, then 10 spans evict the remaining 10 instants, then 5 more
     spans evict 5 spans — the counters classify the EVICTED record. *)
  let on = Trace.make ~cpus:2 ~capacity:30 () in
  for i = 0 to 11 do
    Trace.record on ~step:i ~clock:i ~cpu:0 ~context:"t" (mk_instant i)
  done;
  for i = 0 to 9 do
    Trace.record on ~step:i ~clock:i ~cpu:0 ~context:"t" (mk_span i)
  done;
  let d = Trace.drop_stats on in
  check_int "overflow events after phase 2" 12 d.Trace.dropped_events;
  check_int "overflow spans after phase 2" 0 d.Trace.dropped_spans;
  for i = 10 to 14 do
    Trace.record on ~step:i ~clock:i ~cpu:0 ~context:"t" (mk_span i)
  done;
  let d = Trace.drop_stats on in
  check_int "overflow spans after phase 3" 5 d.Trace.dropped_spans

(* Span_close records survive to the Chrome export as complete spans. *)
let test_chrome_export_has_spans () =
  let t = Trace.make ~cpus:2 ~capacity:100 () in
  Trace.record t ~step:1 ~clock:120 ~cpu:0 ~context:"thr"
    (Event.Span_close { kind = "ipc"; site = "ipc:send:p"; dur = 100 });
  let text = Json.to_string (Trace.chrome_json (Trace.events t)) in
  check_bool "span name present" true (contains text "span:ipc:send:p");
  check_bool "Span_close record present" true (contains text "Span_close")

let () =
  let open Alcotest in
  run "obs"
    [
      ( "lock stats",
        [
          test_case "first_attempt_rate edge cases" `Quick
            test_first_attempt_rate_edges;
        ] );
      ( "histogram",
        [
          test_case "bucket boundaries" `Quick test_hist_bucket_boundaries;
          test_case "percentiles on a known distribution" `Quick
            test_hist_percentiles_known_distribution;
          test_case "merge and reset" `Quick test_hist_merge_and_reset;
          test_case "buckets off the scanned heap" `Quick
            test_hist_storage_off_heap;
        ] );
      ( "trace",
        [
          test_case "overflow accounting" `Quick test_trace_overflow;
          test_case "untraced run makes no trace" `Quick
            test_untraced_run_makes_no_trace;
          test_case "chrome export round-trip" `Quick
            test_chrome_export_round_trip;
          test_case "traced run emits typed lock events" `Quick
            test_traced_run_has_typed_lock_events;
        ] );
      ( "json",
        [ test_case "parser accepts/rejects" `Quick test_json_parser ] );
      ( "metrics + profile",
        [
          test_case "registry counters and shards" `Quick test_metrics_registry;
          test_case "classes and waits-for edges" `Quick
            test_profile_classes_and_edges;
          test_case "released threads are forgotten" `Quick
            test_held_record;
        ] );
      ( "spans",
        [
          QCheck_alcotest.to_alcotest span_pairing_prop;
          QCheck_alcotest.to_alcotest cp_sums_prop;
          test_case "spans-on stats byte-identical to spans-off" `Quick
            test_spans_do_not_perturb_schedule;
          test_case "blocked-by edges pinned on the contention run" `Quick
            test_blocked_by_edges_pinned;
          test_case "live tables reset between runs (no leak)" `Quick
            test_spans_reset_between_runs;
          test_case "vm_allocate_at spans pair on every path" `Quick
            test_alloc_at_span_pairing;
          test_case "section 7 deadlock report carries the span dump" `Quick
            test_section7_deadlock_flight_dump;
          test_case "drop accounting splits spans from instants" `Quick
            test_drop_stats_split;
          test_case "chrome export carries causal spans" `Quick
            test_chrome_export_has_spans;
          test_case "a range lock's ranges close their own spans" `Quick
            test_range_spans_close_their_own_range;
          test_case "a latched view survives later runs" `Quick
            test_span_latch_recycles;
          test_case "cached records never outlive their run" `Quick
            test_cached_records_per_run;
          test_case "the flight ring keeps the newest spans" `Quick
            test_flight_ring_wraps;
        ] );
    ]
