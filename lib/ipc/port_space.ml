module K = Mach_ksync.Ksync

(* A port name space: integer port names translated to ports, the
   per-request step the RPC path pays before it can send (the paper's
   section 10 "determine the object from the port" has a sibling on the
   client side: determine the port from the name).  The table holds one
   reference per registered port; [lookup] clones a reference under the
   shard lock — the table's reference is the guarantee the clone needs —
   so a looked-up port cannot vanish between translation and send.

   The namespace is S independent shards, each a hash table under its own
   simple lock; a name's shard is a fixed multiplicative hash, so two
   requests for different names contend only when they collide.  S = 1 is
   the single global registry (the coarse baseline E20 measures against).

   Lock order: a shard lock is taken strictly BEFORE any port lock (the
   only port operations under a shard lock are reference clones/releases,
   never port-lock acquisitions), so shard-then-port nesting in callers
   can never close a cycle against the table. *)

type shard = {
  s_lock : K.Slock.t;
  s_tbl : (int, Port.t) Hashtbl.t;
}

type t = {
  sp_name : string;
  shards : shard array;
  (* Simulated cost of the table walk itself (hash + chain), charged
     while the shard lock is held: the translation work the lock
     serializes, not just the lock handoff. *)
  walk_cycles : int;
}

type insert_error = [ `Name_in_use ]

let create ?(name = "space") ?(shards = 1) ?(walk_cycles = 0) () =
  if shards < 1 then invalid_arg "Port_space.create: shards must be >= 1";
  {
    sp_name = name;
    shards =
      Array.init shards (fun i ->
          {
            s_lock =
              K.Slock.make ~name:(Printf.sprintf "%s.shard%d" name i) ();
            s_tbl = Hashtbl.create 32;
          });
    walk_cycles;
  }

let name t = t.sp_name

(* Fibonacci-style multiplicative hash: deterministic across runs and
   spreads consecutive names (the common allocation pattern) across
   shards instead of clustering them. *)
let shard_of t pname =
  let h = pname * 0x9E3779B1 land max_int in
  t.shards.(h mod Array.length t.shards)

let walk t = if t.walk_cycles > 0 then K.Machine.cycles t.walk_cycles

let insert t ~pname port =
  let s = shard_of t pname in
  K.Slock.lock s.s_lock;
  walk t;
  let r =
    if Hashtbl.mem s.s_tbl pname then Error `Name_in_use
    else begin
      (* The table's reference: cloned from the caller's (a caller
         without a reference could not name the port at all). *)
      Port.reference port;
      Hashtbl.replace s.s_tbl pname port;
      Ok ()
    end
  in
  K.Slock.unlock s.s_lock;
  r

let lookup t ~pname =
  let s = shard_of t pname in
  K.Slock.lock s.s_lock;
  walk t;
  match Hashtbl.find_opt s.s_tbl pname with
  | None ->
      K.Slock.unlock s.s_lock;
      None
  | Some p ->
      if Port.is_active p then begin
        (* Translation proper: clone a reference under the shard lock
           (the table's reference guarantees the port is live). *)
        Port.reference p;
        K.Slock.unlock s.s_lock;
        Some p
      end
      else begin
        (* Dead name: the port was destroyed while still registered.
           Purge lazily; the table's reference is released OUTSIDE the
           shard lock (section 8: never release a reference you cannot
           prove is not the last one while holding a lock the destroy
           path may want). *)
        Hashtbl.remove s.s_tbl pname;
        K.Slock.unlock s.s_lock;
        Port.release p;
        None
      end

let remove t ~pname =
  let s = shard_of t pname in
  K.Slock.lock s.s_lock;
  walk t;
  match Hashtbl.find_opt s.s_tbl pname with
  | None ->
      K.Slock.unlock s.s_lock;
      false
  | Some p ->
      Hashtbl.remove s.s_tbl pname;
      K.Slock.unlock s.s_lock;
      Port.release p;
      true

let size t =
  Array.fold_left
    (fun acc s ->
      K.Slock.lock s.s_lock;
      let n = Hashtbl.length s.s_tbl in
      K.Slock.unlock s.s_lock;
      acc + n)
    0 t.shards

let clear t =
  Array.iter
    (fun s ->
      K.Slock.lock s.s_lock;
      let ports = Hashtbl.fold (fun _ p acc -> p :: acc) s.s_tbl [] in
      Hashtbl.reset s.s_tbl;
      K.Slock.unlock s.s_lock;
      (* Table references dropped outside the shard lock, as in lookup. *)
      List.iter Port.release ports)
    t.shards
