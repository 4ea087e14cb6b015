(* The contention profiler and the lock-order record (see the
   interface).  Locks are too numerous to report on one by one, so they
   aggregate into classes: the class plays the role the declaration site
   plays in the paper's Appendix A macros. *)

type class_stats = {
  cls : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable hold_cycles : int;
  wait_hist : Obs_histogram.t;
}

(* Contended acquisitions with the held class innermost, and the first
   blocking attempt's (thread, held lock, wanted lock). *)
type edge = {
  mutable count : int;
  mutable witness : (string * string * string) option;
}

let mu = Mutex.create ()
let classes_tbl : (string, class_stats) Hashtbl.t = Hashtbl.create 64
let order_tbl : (string * string, edge) Hashtbl.t = Hashtbl.create 64
let noted = ref [] (* findings the lock layer made itself, newest first *)
let gen = Atomic.make 0
let generation () = Atomic.get gen

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

let edge_locked key =
  match Hashtbl.find_opt order_tbl key with
  | Some e -> e
  | None ->
      let e = { count = 0; witness = None } in
      Hashtbl.add order_tbl key e;
      e

(* The cold step: a lock site resolves its class once per generation
   and records into the record it got, under the mutex but with no
   table lookup and no closure. *)
let resolve cls = locked (fun () -> class_stats_locked cls)

let placeholder =
  {
    cls = "";
    acquisitions = 0;
    contended = 0;
    wait_cycles = 0;
    hold_cycles = 0;
    wait_hist = Obs_histogram.make ();
  }

let note_acquire cs ~holder ~contended ~wait_cycles =
  Mutex.lock mu;
  cs.acquisitions <- cs.acquisitions + 1;
  if contended then begin
    cs.contended <- cs.contended + 1;
    match holder with
    | Some h when not (String.equal h cs.cls) ->
        let e = edge_locked (h, cs.cls) in
        e.count <- e.count + 1
    | _ -> ()
  end;
  if wait_cycles > 0 then cs.wait_cycles <- cs.wait_cycles + wait_cycles;
  Obs_histogram.record cs.wait_hist wait_cycles;
  Mutex.unlock mu

let note_release cs ~held_cycles =
  if held_cycles > 0 then begin
    Mutex.lock mu;
    cs.hold_cycles <- cs.hold_cycles + held_cycles;
    Mutex.unlock mu
  end

let note_attempt ~held ~wanted ~witness =
  locked (fun () ->
      let e = edge_locked (held, wanted) in
      if Option.is_none e.witness then e.witness <- Some witness)

let note_finding f =
  locked (fun () -> if not (List.mem f !noted) then noted := f :: !noted)

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
      Hashtbl.fold
        (fun (a, b) e acc ->
          if e.count > 0 then (a, b, e.count) :: acc else acc)
        order_tbl [])
  |> List.sort (fun (_, _, x) (_, _, y) -> compare y x)

(* A path of edges from [src] to [dst], depth first. *)
let rec path es seen src dst =
  if String.equal src dst then Some []
  else if List.mem src !seen then None
  else begin
    seen := src :: !seen;
    List.find_map
      (fun ((a, b, _) as e) ->
        if String.equal a src then
          Option.map (List.cons e) (path es seen b dst)
        else None)
      es
  end

(* A witnessed edge (a, b) closes a cycle when a path leads from b back
   to a; the cycle is reported from the edge leaving its least class, so
   every strongly connected set of classes shows one.  A lock and its
   own interlock nest both ways by construction (the complex and range
   locks take their interlock to change their state): no order. *)
let order_findings () =
  let own x y = String.equal y (x ^ ".interlock") in
  let es =
    locked (fun () ->
        Hashtbl.fold
          (fun (a, b) e acc ->
            match e.witness with
            | Some w when not (own a b || own b a) -> (a, b, w) :: acc
            | _ -> acc)
          order_tbl [])
    |> List.sort compare
  in
  let cycle ((a, b, _) as e) =
    match path es (ref []) b a with
    | Some back when List.for_all (fun (x, _, _) -> x > a) back ->
        let es = e :: back in
        let wit (_, _, (t, h, w)) =
          Printf.sprintf "%s held %s, wanted %s" t h w
        in
        Some
          (Printf.sprintf "order cycle: %s -> %s (%s)"
             (String.concat " -> " (List.map (fun (x, _, _) -> x) es))
             a
             (String.concat "; " (List.map wit es)))
    | _ -> None
  in
  List.filter_map cycle es @ List.rev (locked (fun () -> !noted))

let reset () =
  locked (fun () ->
      Hashtbl.reset classes_tbl;
      Hashtbl.reset order_tbl;
      noted := [];
      Atomic.incr gen)

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
    let section title = function
      | [] -> ()
      | lines ->
          Format.fprintf ppf "@.%s:@." title;
          List.iter (Format.fprintf ppf "  %s@.") lines
    in
    section "waits-for edges (holder -> wanted, count)"
      (List.map
         (fun (a, b, n) -> Printf.sprintf "%s -> %s  (%d)" a b n)
         (edges ()));
    section "potential deadlocks (learned lock order, same-spl rule)"
      (order_findings ())
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
