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
   [lo, hi) point at the holders of exactly that range. *)
let res_id = function
  | Slock { uid; _ } -> "S" ^ string_of_int uid
  | Clock { uid; _ } -> "C" ^ string_of_int uid
  | Event { id } -> "E" ^ string_of_int id
  | Rendezvous { name } -> "R" ^ name
  | Range { uid; lo; hi; _ } -> Printf.sprintf "G%d:%d:%d" uid lo hi

let tracking_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let tracking () = !(Domain.DLS.get tracking_key)
let set_tracking b = Domain.DLS.get tracking_key := b

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
