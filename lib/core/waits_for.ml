(* Runtime waits-for graph.

   The lock layers (through Lock_events), Event and rendezvous points
   (Tlb_shootdown) report exact per-instance wait edges here; the hold
   edges are Lock_events' record of held locks.  The engine's deadlock
   detector walks both (together with its own frame-stack and
   pending-interrupt edges) to explain a hang as a cycle or an orphaned
   waiter instead of a raw thread dump.

   All edge state is domain-local: one simulation runs per domain, and
   parallel seed sweeps (Sim_explore ?domains) must not see each other's
   edges.  Tracking is off by default and gated per call site, so the
   hot path costs one domain-local read when disabled. *)

type resource =
  | Slock of { uid : int; name : string }
  | Clock of { uid : int; name : string }
  | Event of { id : int }
  | Rendezvous of { name : string }
  | Range of { uid : int; name : string; lo : int; hi : int }

let res_label = function
  | Slock { name; _ } -> "simple lock " ^ name
  | Clock { name; _ } -> "complex lock " ^ name
  | Event { id } -> "event " ^ string_of_int id
  | Rendezvous { name } -> "rendezvous " ^ name
  | Range { name; lo; hi; _ } ->
      if lo = 0 && hi = max_int then "range lock " ^ name ^ " [whole]"
      else Printf.sprintf "range lock %s [%#x,%#x)" name lo hi

(* Stable node identifier for graph construction (distinct constructors
   use distinct prefixes so a simple lock and a complex lock with equal
   uids never collide).  Range nodes are per-(lock, range): waiters on
   [lo, hi) point at the holders of exactly that range. *)
let res_id = function
  | Slock { uid; _ } -> "S" ^ string_of_int uid
  | Clock { uid; _ } -> "C" ^ string_of_int uid
  | Event { id } -> "E" ^ string_of_int id
  | Rendezvous { name } -> "R" ^ name
  | Range { uid; lo; hi; _ } -> Printf.sprintf "G%d:%d:%d" uid lo hi

type state = {
  waits : (int, (string * resource) list) Hashtbl.t; (* tid -> edges *)
  last_event : (int, int) Hashtbl.t; (* tid -> last event woken from *)
  mutable tracking : bool;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        waits = Hashtbl.create 64;
        last_event = Hashtbl.create 64;
        tracking = false;
      })

let st () = Domain.DLS.get state_key
let tracking () = (st ()).tracking
let set_tracking b = (st ()).tracking <- b

let reset () =
  let s = st () in
  Hashtbl.reset s.waits;
  Hashtbl.reset s.last_event

let () = Run_reset.register reset

let note_wait ~tid ~tname res =
  let s = st () in
  let cur = Option.value ~default:[] (Hashtbl.find_opt s.waits tid) in
  Hashtbl.replace s.waits tid ((tname, res) :: cur)

let rec remove_first p = function
  | [] -> []
  | x :: rest -> if p x then rest else x :: remove_first p rest

let note_wait_done ~tid res =
  let s = st () in
  (match res with
  | Event { id } -> Hashtbl.replace s.last_event tid id
  | _ -> ());
  match Hashtbl.find_opt s.waits tid with
  | None -> ()
  | Some l -> (
      match remove_first (fun (_, r) -> r = res) l with
      | [] -> Hashtbl.remove s.waits tid
      | l' -> Hashtbl.replace s.waits tid l')

let waits () =
  let s = st () in
  Hashtbl.fold
    (fun tid l acc ->
      List.fold_left (fun acc (tname, r) -> (tid, tname, r) :: acc) acc l)
    s.waits []
  |> List.sort compare

let waits_of ~tid =
  match Hashtbl.find_opt (st ()).waits tid with
  | None -> []
  | Some l -> List.rev l

let last_event ~tid = Hashtbl.find_opt (st ()).last_event tid

(* Event ids of complex locks (and other event-backed protocols) alias a
   higher-level resource: the detector follows the alias so a cycle
   through a complex lock names the lock, not the anonymous event.
   Registration happens at lock creation (cold path) and locks may cross
   domains, hence a mutex rather than domain-local state. *)

let alias_mu = Mutex.create ()
let aliases : (int, resource) Hashtbl.t = Hashtbl.create 64

let note_event_resource ~event res =
  Mutex.lock alias_mu;
  Hashtbl.replace aliases event res;
  Mutex.unlock alias_mu

let event_resource ~event =
  Mutex.lock alias_mu;
  let r = Hashtbl.find_opt aliases event in
  Mutex.unlock alias_mu;
  r
