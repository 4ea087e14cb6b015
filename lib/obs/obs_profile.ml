(* The contention profiler: per-lock-class aggregation of acquisition
   outcomes, wait/hold time, and a waits-for edge list.

   Individual locks are too numerous to report on (every vm object carries
   several), so locks aggregate into *classes* derived from their names by
   deleting digits: "slock12" and "slock40" are both class "slock",
   "lock3.interlock" is "lock.interlock", "evt-bucket17" is "evt-bucket".
   The class plays the role the declaration site plays in the paper's
   Appendix A macros.

   The waits-for list records, for each contended acquisition, an edge
   from the most recently acquired still-held lock class to the wanted
   class; the lock layer keeps the per-thread record of held locks
   (Mach_core.Lock_events) and passes that holder class in.  A cycle in
   that list is the shape of the section 4 deadlock ("a thread holding A
   spins for B while another holding B spins for A"), and the
   three-processor interrupt deadlock of section 7 shows up as the
   barrier cell being wanted while a lock class is held. *)

type class_stats = {
  cls : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable hold_cycles : int;
  wait_hist : Obs_histogram.t;
}

let mu = Mutex.create ()
let classes_tbl : (string, class_stats) Hashtbl.t = Hashtbl.create 64
let edges_tbl : (string * string, int ref) Hashtbl.t = Hashtbl.create 64

let class_of_name name =
  let buf = Buffer.create (String.length name) in
  String.iter (fun c -> if c < '0' || c > '9' then Buffer.add_char buf c) name;
  if Buffer.length buf = 0 then "lock" else Buffer.contents buf

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let class_stats_locked cls =
  match Hashtbl.find_opt classes_tbl cls with
  | Some cs -> cs
  | None ->
      let cs =
        {
          cls;
          acquisitions = 0;
          contended = 0;
          wait_cycles = 0;
          hold_cycles = 0;
          wait_hist = Obs_histogram.make ();
        }
      in
      Hashtbl.add classes_tbl cls cs;
      cs

let note_acquire ~cls ~holder ~contended ~wait_cycles =
  locked (fun () ->
      let cs = class_stats_locked cls in
      cs.acquisitions <- cs.acquisitions + 1;
      if contended then cs.contended <- cs.contended + 1;
      if wait_cycles > 0 then cs.wait_cycles <- cs.wait_cycles + wait_cycles;
      Obs_histogram.record cs.wait_hist wait_cycles;
      if contended then
        match holder with
        | Some h when h <> cls -> (
            let key = (h, cls) in
            match Hashtbl.find_opt edges_tbl key with
            | Some r -> Stdlib.incr r
            | None -> Hashtbl.add edges_tbl key (ref 1))
        | _ -> ())

let note_release ~cls ~held_cycles =
  locked (fun () ->
      let cs = class_stats_locked cls in
      if held_cycles > 0 then cs.hold_cycles <- cs.hold_cycles + held_cycles)

let first_attempt_rate cs =
  if cs.acquisitions = 0 then 1.0
  else
    float_of_int (cs.acquisitions - cs.contended)
    /. float_of_int cs.acquisitions

let classes () =
  locked (fun () -> Hashtbl.fold (fun _ cs acc -> cs :: acc) classes_tbl [])
  |> List.sort (fun a b -> String.compare a.cls b.cls)

let top ~n =
  let by_wait =
    List.sort
      (fun a b ->
        match compare b.wait_cycles a.wait_cycles with
        | 0 -> compare b.acquisitions a.acquisitions
        | c -> c)
      (classes ())
  in
  List.filteri (fun i _ -> i < n) by_wait

let edges () =
  locked (fun () ->
      Hashtbl.fold (fun (a, b) n acc -> (a, b, !n) :: acc) edges_tbl [])
  |> List.sort (fun (_, _, x) (_, _, y) -> compare y x)

let reset () =
  locked (fun () ->
      Hashtbl.reset classes_tbl;
      Hashtbl.reset edges_tbl)

let pp_report ?(top_n = 10) ppf () =
  let tops = top ~n:top_n in
  if tops = [] then Format.fprintf ppf "(no lock activity recorded)@."
  else begin
    Format.fprintf ppf "%-22s %9s %9s %7s %11s %11s %8s %8s@." "lock class"
      "acquires" "contended" "1st-try" "wait-cycles" "hold-cycles" "p50-wait"
      "p99-wait";
    List.iter
      (fun cs ->
        Format.fprintf ppf "%-22s %9d %9d %7.3f %11d %11d %8d %8d@." cs.cls
          cs.acquisitions cs.contended (first_attempt_rate cs) cs.wait_cycles
          cs.hold_cycles
          (Obs_histogram.percentile cs.wait_hist 50.0)
          (Obs_histogram.percentile cs.wait_hist 99.0))
      tops;
    match edges () with
    | [] -> ()
    | es ->
        Format.fprintf ppf "@.waits-for edges (holder -> wanted, count):@.";
        List.iter
          (fun (a, b, n) -> Format.fprintf ppf "  %s -> %s  (%d)@." a b n)
          es
  end

let to_json () =
  let open Obs_json in
  Obj
    [
      ( "classes",
        List
          (List.map
             (fun cs ->
               Obj
                 [
                   ("class", String cs.cls);
                   ("acquisitions", Int cs.acquisitions);
                   ("contended", Int cs.contended);
                   ("first_attempt_rate", Float (first_attempt_rate cs));
                   ("wait_cycles", Int cs.wait_cycles);
                   ("hold_cycles", Int cs.hold_cycles);
                   ("wait", Obs_histogram.to_json cs.wait_hist);
                 ])
             (classes ())) );
      ( "waits_for",
        List
          (List.map
             (fun (a, b, n) ->
               Obj
                 [
                   ("holder", String a); ("wanted", String b); ("count", Int n);
                 ])
             (edges ())) );
    ]
