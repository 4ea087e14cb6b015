(* The lock-free timing facility (section 2's one exception to
   multiprocessor locking): single-writer discipline, checked multi-word
   reads, and the torn-read anti-test. *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module Timer = Mach_kern.Timer
open Test_support

let test_basic_counting () =
  in_sim (fun () ->
      let t = Timer.create ~owner_cpu:(Engine.current_cpu ()) () in
      check_int "zero" 0 (Timer.read t);
      Timer.tick t ~cycles:100;
      check_int "accumulates" 100 (Timer.read t);
      (* force carries *)
      for _ = 1 to 50 do
        Timer.tick t ~cycles:100
      done;
      check_int "carries counted" 5100 (Timer.read t))

let test_single_writer_enforced () =
  match
    Engine.run_outcome (fun () ->
        let t = Timer.create ~owner_cpu:63 () in
        Timer.tick t ~cycles:1)
  with
  | Engine.Panicked msg ->
      check_bool "names the discipline" true (contains msg "single writer")
  | _ -> Alcotest.fail "tick from the wrong cpu must panic"

let test_checked_read_never_torn () =
  (* A writer bound to cpu 0 ticks through many carries; readers on other
     cpus use the checked protocol until they see the final total.  Values
     must be monotonic and exact at the end, on every explored schedule.
     The reader pauses only after a read that fell short: once the writer
     is done, a loop that went on pausing a fixed number of times would be
     a hung wait. *)
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 25 (fun i -> i + 1))
      (fun () ->
        let t = Timer.create ~owner_cpu:0 () in
        let total_ticks = 40 in
        let per_tick = 700 (* forces frequent carries: modulus is 1024 *) in
        let writer =
          Engine.spawn ~name:"writer" ~bound:0 (fun () ->
              for _ = 1 to total_ticks do
                Timer.tick t ~cycles:per_tick;
                Engine.pause ()
              done)
        in
        let reader =
          Engine.spawn ~name:"reader" ~bound:1 (fun () ->
              let rec poll last =
                let v = Timer.read t in
                if v < last then
                  Engine.fatal "checked read went backwards (torn)";
                if v mod per_tick <> 0 then
                  Engine.fatal "checked read returned a torn value";
                if v < total_ticks * per_tick then begin
                  Engine.pause ();
                  poll v
                end
              in
              poll 0)
        in
        Engine.join writer;
        Engine.join reader;
        if Timer.read t <> total_ticks * per_tick then
          Engine.fatal "final total wrong")
  in
  check_bool "checked reads are exact on all schedules" true
    (Explore.all_completed v)

let test_unchecked_read_tears () =
  (* The anti-test: the naive reader observes an inconsistent value on
     some schedule (value not a multiple of the tick size: a (high, low)
     pair from different generations). *)
  let saw_torn = ref false in
  let seeds = List.init 60 (fun i -> i + 1) in
  List.iter
    (fun seed ->
      if not !saw_torn then
        ignore
          (Engine.run_outcome
             ~cfg:(Mach_sim.Sim_config.exploration ~cpus:3 ~seed ())
             (fun () ->
               let t = Timer.create ~owner_cpu:0 () in
               let per_tick = 700 in
               let writer =
                 Engine.spawn ~name:"writer" ~bound:0 (fun () ->
                     for _ = 1 to 40 do
                       Timer.tick t ~cycles:per_tick;
                       Engine.pause ()
                     done)
               in
               let reader =
                 Engine.spawn ~name:"reader" ~bound:1 (fun () ->
                     for _ = 1 to 60 do
                       let v = Timer.read_unchecked t in
                       if v mod per_tick <> 0 then saw_torn := true;
                       Engine.pause ()
                     done)
               in
               Engine.join writer;
               Engine.join reader)))
    seeds;
  check_bool "naive reads tear on some schedule" true !saw_torn

let test_usage_aggregation () =
  ignore
    (Engine.run
       ~cfg:{ Mach_sim.Sim_config.default with Mach_sim.Sim_config.cpus = 4 }
       (fun () ->
         let u = Timer.Usage.create ~cpus:4 in
         let workers =
           List.init 4 (fun cpu ->
               Engine.spawn ~bound:cpu (fun () ->
                   for _ = 1 to 25 do
                     Timer.Usage.charge_current_cpu u ~cycles:100;
                     Engine.pause ()
                   done))
         in
         List.iter Engine.join workers;
         check_int "total across cpus" (4 * 25 * 100) (Timer.Usage.total u)))

let () =
  Alcotest.run "timer"
    [
      ( "facility",
        [
          Alcotest.test_case "basic counting" `Quick test_basic_counting;
          Alcotest.test_case "single-writer discipline" `Quick
            test_single_writer_enforced;
          Alcotest.test_case "usage aggregation" `Quick
            test_usage_aggregation;
        ] );
      ( "torn reads",
        [
          Alcotest.test_case "checked read never torn" `Slow
            test_checked_read_never_torn;
          Alcotest.test_case "unchecked read tears" `Quick
            test_unchecked_read_tears;
        ] );
    ]
