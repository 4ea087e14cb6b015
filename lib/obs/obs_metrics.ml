(* The kernel-wide metrics registry: named counters and latency
   histograms.  Writes go to per-cpu shards (cpu index masked into a fixed
   shard count) and are merged at read time, so the hot update path is one
   array-indexed atomic add with no shared cache line between cpus. *)

let shards = 16 (* power of two *)
let shard_of cpu = (if cpu < 0 then 0 else cpu) land (shards - 1)

type counter = { c_name : string; c_shards : int Atomic.t array }
type histogram = { h_name : string; h_shards : Obs_histogram.t array }

type entry = Counter of counter | Histogram of histogram

let entry_name = function Counter c -> c.c_name | Histogram h -> h.h_name

(* Registration is rare (first use of a name) and guarded by a real mutex
   so native-domain users are safe; updates touch only the entry. *)
let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let intern name mk classify =
  Mutex.lock registry_mu;
  let entry =
    match Hashtbl.find_opt registry name with
    | Some e -> e
    | None ->
        let e = mk () in
        Hashtbl.add registry name e;
        e
  in
  Mutex.unlock registry_mu;
  match classify entry with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs_metrics: %S already registered with another type"
           name)

let counter name =
  intern name
    (fun () ->
      Counter
        { c_name = name; c_shards = Array.init shards (fun _ -> Atomic.make 0) })
    (function Counter c -> Some c | _ -> None)

let histogram name =
  intern name
    (fun () ->
      Histogram
        {
          h_name = name;
          h_shards = Array.init shards (fun _ -> Obs_histogram.make ());
        })
    (function Histogram h -> Some h | _ -> None)

let add cpu c n = ignore (Atomic.fetch_and_add c.c_shards.(shard_of cpu) n)
let incr cpu c = add cpu c 1

let counter_value c =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_shards

let observe cpu h v = Obs_histogram.record h.h_shards.(shard_of cpu) v

let merged h =
  let out = Obs_histogram.make () in
  Array.iter (fun s -> Obs_histogram.merge_into ~dst:out s) h.h_shards;
  out

(* ------------------------------------------------------------------ *)
(* Reading the whole registry                                           *)
(* ------------------------------------------------------------------ *)

let entries () =
  Mutex.lock registry_mu;
  let es = Hashtbl.fold (fun _ e acc -> e :: acc) registry [] in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> String.compare (entry_name a) (entry_name b)) es

let reset () =
  List.iter
    (function
      | Counter c -> Array.iter (fun a -> Atomic.set a 0) c.c_shards
      | Histogram h -> Array.iter Obs_histogram.reset h.h_shards)
    (entries ())

let pp ppf () =
  let es = entries () in
  if es = [] then Format.fprintf ppf "(no metrics registered)@."
  else
    List.iter
      (fun e ->
        match e with
        | Counter c ->
            Format.fprintf ppf "%-28s %d@." c.c_name (counter_value c)
        | Histogram h ->
            Format.fprintf ppf "%-28s %a@." h.h_name Obs_histogram.pp
              (merged h))
      es

let to_json () =
  let open Obs_json in
  Obj
    (List.map
       (fun e ->
         match e with
         | Counter c -> (c.c_name, Int (counter_value c))
         | Histogram h -> (h.h_name, Obs_histogram.to_json (merged h)))
       (entries ()))
