(* Runtime waits-for graph: the resources.

   The lock layers (through Lock_events), Event and rendezvous points
   (Tlb_shootdown) record exact per-instance wait edges on the waiting
   thread's context (Thread_ctx); the hold edges are the lock holds on
   the same contexts.  The engine's deadlock detector walks both
   (together with its own frame-stack and pending-interrupt edges) to
   explain a hang as a cycle or an orphaned waiter instead of a raw
   thread dump.

   The engine turns tracking on for every simulated run; native machines,
   which run no detector, leave it off, and each call site checks it
   (one domain-local read).  The flag is domain-local because parallel
   seed sweeps (Sim_explore ?domains) run one simulation per domain. *)

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
   [lo, hi) point at the holders of exactly that range.  Uids are
   process-wide and zero-padded, so ids sort as their uids do whatever
   their width (the detector starts its cycle search in id order). *)
let res_id = function
  | Slock { uid; _ } -> Printf.sprintf "S%09d" uid
  | Clock { uid; _ } -> Printf.sprintf "C%09d" uid
  | Event { id } -> "E" ^ string_of_int id
  | Rendezvous { name } -> "R" ^ name
  | Range { uid; lo; hi; _ } -> Printf.sprintf "G%09d:%d:%d" uid lo hi

let tracking_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let tracking () = !(Domain.DLS.get tracking_key)
let set_tracking b = Domain.DLS.get tracking_key := b

(* Event ids of complex locks (and other event-backed protocols) alias a
   higher-level resource: the detector follows the alias so a cycle
   through a complex lock names the lock, not the anonymous event.  Event
   ids belong to one run in one domain (they restart at every run), so
   the aliases are domain-local and cleared with the run. *)

let aliases_key : (int, resource) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let aliases () = Domain.DLS.get aliases_key
let () = Run_reset.register (fun () -> Hashtbl.reset (aliases ()))

let note_event_resource ~event res = Hashtbl.replace (aliases ()) event res
let event_resource ~event = Hashtbl.find_opt (aliases ()) event
