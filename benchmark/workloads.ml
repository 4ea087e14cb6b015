(* The four workloads, driven only through the public interfaces of the
   kernel, IPC, VM, model-checker and simulator libraries.

   Every input (RPC targets, allocation sizes, cache offsets) comes
   from the benchmark's own PRNG seeded by [--seed]; the libraries only
   ever see the generated values.  A workload is prepared once per
   process and then run as identical episodes: a simulated run repeats
   exactly, so every repetition must reproduce the first one's
   simulated numbers, and only host time varies.

   Simulated time is read with [Sim_engine.now_cycles], a pure read of
   the running cpu's clock: it charges no cycles and is no preemption
   point, so the timestamps of the traced leg leave the run unchanged.
   Simulated values use 1 cycle = 1 ns. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space
module Mig = Mach_ipc.Mig
module Kobj = Mach_ksync.Kobj
module Kernel = Mach_kernel.Kernel
module Scenarios = Mach_kernel.Scenarios
module Chaos_scenarios = Mach_chaos.Chaos_scenarios
module Vm_page = Mach_vm.Vm_page
module Vm_cache = Mach_vm.Vm_cache
module Mc = Mach_mc.Mc
module Buf = Ledger.Buf
module Spans = Ledger.Spans

(* Plain: untraced, spans on (the shipped configuration).  Traced: the
   benchmark also records every layer boundary.  Spans_off: untraced
   with the library's own spans off, for [obs.spans_overhead]. *)
type leg = Plain | Traced | Spans_off

type episode = {
  ops : int;  (** operations attempted *)
  failed : int;  (** operations that failed or returned a wrong result *)
  problems : string list;  (** failed checks, for the report *)
  stats : Engine.stats option;  (** [None] for the model checker *)
  steps : int;  (** engine steps, or model-checker transitions *)
  setup_s : float;  (** host seconds to boot and build the initial state *)
  wall_s : float;  (** host seconds of the measured phase *)
  lat : int array;  (** per-operation latency in cycles, in op order *)
  window : int;  (** cycles from the earliest op start to the latest end *)
  layers : (string * float) list;  (** per-layer metrics (traced leg) *)
  spans : Spans.t option;  (** traced leg *)
}

let now = Engine.now_cycles

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* Run [body] on a fresh simulated machine in the shipped configuration.
   [body] calls its argument once its initial state is built, which
   splits host time into set-up and measured phase. *)
let simulate ~cpus ~seed leg body =
  let cfg =
    { (Config.bench ~cpus ()) with Config.seed; spans = leg <> Spans_off }
  in
  let t0 = Unix.gettimeofday () in
  let t_setup = ref t0 in
  let outcome =
    Engine.run_outcome ~cfg (fun () ->
        body (fun () -> t_setup := Unix.gettimeofday ()))
  in
  let t1 = Unix.gettimeofday () in
  let setup_s = !t_setup -. t0 and wall_s = t1 -. !t_setup in
  let abort =
    match outcome with
    | Engine.Completed _ -> None
    | Engine.Deadlocked (_, r) -> Some ("deadlock: " ^ first_line r)
    | Engine.Panicked r -> Some ("panic: " ^ first_line r)
    | Engine.Hit_step_limit -> Some "step limit"
  in
  let stats =
    match outcome with Engine.Completed st -> Some st | _ -> None
  in
  (stats, setup_s, wall_s, abort)

(* Assemble an episode; a run the engine aborted fails every operation. *)
let finish ~ops ~failed ~problems (stats, setup_s, wall_s, abort) ~starts
    ~stops ~layers ~spans =
  let failed, problems =
    match abort with
    | Some why -> (ops, why :: problems)
    | None -> (failed, problems)
  in
  let lat = Array.mapi (fun i s -> s - starts.(i)) stops in
  let window =
    if ops = 0 then 0
    else
      Array.fold_left max min_int stops - Array.fold_left min max_int starts
  in
  {
    ops;
    failed;
    problems;
    stats;
    steps = (match stats with Some s -> s.Engine.steps | None -> 0);
    setup_s;
    wall_s;
    lat;
    window;
    layers;
    spans;
  }

(* Fisher-Yates, in place; returns its argument. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let seg_metrics prefix durs =
  let s = Ledger.sorted durs in
  [
    (prefix ^ "_p50_cycles", float_of_int (Ledger.percentile s 50.));
    (prefix ^ "_p99_cycles", float_of_int (Ledger.percentile s 99.));
  ]

(* ------------------------------------------------------------------ *)
(* rpc-echo: the E20 serving path at 64 cpus                            *)
(* ------------------------------------------------------------------ *)

let rpc_segments =
  [| "translate"; "request"; "routine"; "reply"; "release" |]

let rpc_echo ~seed ~quick =
  let cpus = 64 and servers = 8 and clients = 56 and spin = 8192 in
  let calls = if quick then 2 else 20 in
  let n = clients * calls in
  let rng = Random.State.make [| seed |] in
  (* As in E20 every client cycles through the 8 servers, 7 clients per
     server at each step; the seed chooses which clients share a
     starting server. *)
  let start = shuffle rng (Array.init clients (fun i -> i mod servers)) in
  let target =
    Array.init n (fun r ->
        1 + ((start.(r / calls) + (r mod calls)) mod servers))
  in
  let episode leg ~setup_only =
    let ops = if setup_only then 0 else n in
    let traced = leg = Traced in
    (* Six timestamps per request: lookup start/end and Mig.call return
       and release end on the client, handler entry/exit on the server.
       The five segments between them telescope to the client total. *)
    let ts = Array.make (6 * ops) 0 in
    let cpu = Array.make (2 * ops) 0 in
    let failed = ref 0 and problems = ref [] in
    let problem s = problems := s :: !problems in
    let run =
      simulate ~cpus ~seed leg (fun setup_done ->
          let space =
            Port_space.create ~name:"bench.space" ~shards:8 ~walk_cycles:64 ()
          in
          let reg = Mig.make_registry () in
          (* The request id travels in the message, so the server's
             timestamps attach to their request. *)
          Mig.register reg ~id:1 ~name:"echo" (fun obj args ->
              let t2 = now () in
              match (obj, args) with
              | Some _, [ _; _; Port.Int rid ] ->
                  Engine.cycles 4;
                  if traced then begin
                    ts.((6 * rid) + 2) <- t2;
                    ts.((6 * rid) + 3) <- now ();
                    cpu.((2 * rid) + 1) <- Engine.current_cpu ()
                  end;
                  Ok args
              | _ -> Error Mig.err_bad_arguments);
          let ports =
            Array.init servers (fun j ->
                let p =
                  Port.create ~name:(Printf.sprintf "svc%d" j) ~queue_limit:16
                    ()
                in
                let obj =
                  Kobj.make ~name:(Printf.sprintf "svcobj%d" j) Kobj.No_payload
                in
                (* Keep the creator's object reference for the final
                   audit; the port's pointer takes its own. *)
                Kobj.reference obj;
                Port.set_object p obj;
                (match Port_space.insert space ~pname:(j + 1) p with
                | Ok () -> ()
                | Error `Name_in_use -> problem "duplicate port name");
                (p, obj))
          in
          let server_threads =
            Array.to_list
              (Array.mapi
                 (fun j (p, _) ->
                   Engine.spawn ~name:(Printf.sprintf "server%d" j) (fun () ->
                       Mig.serve_loop ~batch:8 ~spin reg p))
                 ports)
          in
          setup_done ();
          let client i () =
            let reply_port = Port.create ~name:"reply" ~queue_limit:1 () in
            for k = 0 to calls - 1 do
              let rid = (i * calls) + k in
              let t0 = now () in
              ts.(6 * rid) <- t0;
              match Port_space.lookup space ~pname:target.(rid) with
              | None ->
                  incr failed;
                  ts.((6 * rid) + 5) <- now ()
              | Some port -> (
                  let t1 = now () in
                  let r =
                    Mig.call ~poll:spin ~reply_port port ~id:1
                      [ Port.Int i; Port.Int k; Port.Int rid ]
                  in
                  let t4 = now () in
                  Port.release port;
                  ts.((6 * rid) + 5) <- now ();
                  if traced then begin
                    ts.((6 * rid) + 1) <- t1;
                    ts.((6 * rid) + 4) <- t4;
                    cpu.(2 * rid) <- Engine.current_cpu ()
                  end;
                  match r with
                  | Ok [ Port.Int a; Port.Int b; Port.Int c ]
                    when a = i && b = k && c = rid ->
                      ()
                  | _ -> incr failed)
            done;
            Port.destroy reply_port;
            if Port.ref_count reply_port <> 1 then
              problem "reply port leaked a reference";
            Port.release reply_port
          in
          let client_threads =
            if ops = 0 then []
            else
              List.init clients (fun i ->
                  Engine.spawn ~name:(Printf.sprintf "client%d" i) (client i))
          in
          List.iter Engine.join client_threads;
          for j = 1 to servers do
            ignore (Port_space.remove space ~pname:j)
          done;
          let drained =
            Array.fold_left (fun acc (p, _) -> acc + Mig.drain p) 0 ports
          in
          if drained <> 0 then
            problem (Printf.sprintf "%d requests drained in flight" drained);
          List.iter Engine.join server_threads;
          Array.iter
            (fun (p, obj) ->
              if Port.ref_count p <> 1 then
                problem
                  (Printf.sprintf "port %s refcount %d at shutdown"
                     (Port.name p) (Port.ref_count p));
              if Kobj.ref_count obj <> 1 then
                problem
                  (Printf.sprintf "object %s refcount %d at shutdown"
                     (Kobj.name obj) (Kobj.ref_count obj));
              Port.release p;
              Kobj.release obj)
            ports)
    in
    let starts = Array.init ops (fun r -> ts.(6 * r)) in
    let stops = Array.init ops (fun r -> ts.((6 * r) + 5)) in
    let layers, spans =
      if not traced then ([], None)
      else begin
        let names = Array.append [| "rpc" |] rpc_segments in
        let sp = Spans.create ~names ~capacity:(6 * ops) in
        let seg = Array.map (fun _ -> Array.make ops 0) rpc_segments in
        let residual = ref 0 and negative = ref 0 and total = ref 0 in
        for r = 0 to ops - 1 do
          let t k = ts.((6 * r) + k) in
          let root =
            Spans.add sp ~name:0 ~start:(t 0) ~stop:(t 5) ~cpu:cpu.(2 * r)
              ~parent:(-1)
          in
          let covered = ref 0 in
          for k = 0 to 4 do
            let d = t (k + 1) - t k in
            seg.(k).(r) <- d;
            covered := !covered + d;
            if d < 0 then incr negative;
            let c = if k = 2 then cpu.((2 * r) + 1) else cpu.(2 * r) in
            ignore
              (Spans.add sp ~name:(k + 1) ~start:(t k) ~stop:(t (k + 1))
                 ~cpu:c ~parent:root)
          done;
          total := !total + (stops.(r) - starts.(r));
          residual := !residual + abs (stops.(r) - starts.(r) - !covered)
        done;
        let per_seg k nm =
          let pre = "ipc." ^ nm in
          seg_metrics pre seg.(k)
          @ [
              ( pre ^ "_share",
                float_of_int (Ledger.sum seg.(k)) /. float_of_int !total );
            ]
        in
        ( List.concat (Array.to_list (Array.mapi per_seg rpc_segments))
          @ [
              ("ipc.ledger_residual_cycles", float_of_int !residual);
              ("ipc.negative_segments", float_of_int !negative);
            ],
          Some sp )
      end
    in
    finish ~ops ~failed:!failed ~problems:!problems run ~starts ~stops
      ~layers ~spans
  in
  episode

(* ------------------------------------------------------------------ *)
(* kernel-mix: the Kernel facade at 16 cpus                             *)
(* ------------------------------------------------------------------ *)

let kernel_ops =
  [|
    "task_create";
    "vm_allocate";
    "vm_wire";
    "task_info";
    "vm_deallocate";
    "null";
    "task_terminate";
  |]

let kernel_mix ~seed ~quick =
  let cpus = 16 and clients = 12 in
  let loops = if quick then 1 else 48 in
  let per_client = 2 + (5 * loops) in
  let n = clients * per_client in
  let rng = Random.State.make [| seed |] in
  (* Each client allocates every size 1-8 equally often, in a seeded
     order, so the seed changes the interleaving but not the work. *)
  let size =
    Array.concat
      (List.init clients (fun _ ->
           shuffle rng (Array.init loops (fun l -> 1 + (l mod 8)))))
  in
  let episode leg ~setup_only =
    let ops = if setup_only then 0 else n in
    let kind = Array.make ops 0 and cpu = Array.make ops 0 in
    let starts = Array.make ops 0 and stops = Array.make ops 0 in
    let failed = ref 0 and problems = ref [] in
    let problem s = problems := s :: !problems in
    let run =
      simulate ~cpus ~seed leg (fun setup_done ->
          let k = Kernel.start ~pages:512 () in
          setup_done ();
          let client i () =
            let next = ref (i * per_client) in
            (* Time one public call as operation [op]; [ok] judges its
               result. *)
            let timed op f ok =
              let j = !next in
              incr next;
              kind.(j) <- op;
              cpu.(j) <- Engine.current_cpu ();
              starts.(j) <- now ();
              let r = f () in
              stops.(j) <- now ();
              if not (ok r) then incr failed;
              r
            in
            let is_ok = Result.is_ok in
            match timed 0 (fun () -> Kernel.rpc_task_create k) is_ok with
            | Error e -> problem ("task_create: " ^ e)
            | Ok port ->
                for l = 0 to loops - 1 do
                  let sz = size.((i * loops) + l) in
                  let va =
                    match
                      timed 1 (fun () -> Kernel.rpc_vm_allocate port ~size:sz)
                        is_ok
                    with
                    | Ok va -> va
                    | Error _ -> 0
                  in
                  ignore
                    (timed 2
                       (fun () -> Kernel.rpc_vm_wire port ~va ~pages:sz)
                       is_ok);
                  ignore
                    (timed 3
                       (fun () -> Mig.call port ~id:Kernel.Op.task_info [])
                       (function
                         | Ok [ _; Port.Int mapped; _ ] -> mapped = sz
                         | _ -> false));
                  ignore
                    (timed 4
                       (fun () ->
                         Mig.call port ~id:Kernel.Op.vm_deallocate
                           [ Port.Int va ])
                       is_ok);
                  ignore (timed 5 (fun () -> Kernel.rpc_null k) is_ok)
                done;
                ignore
                  (timed 6 (fun () -> Kernel.rpc_task_terminate port) is_ok);
                (match Kernel.rpc_vm_allocate port ~size:1 with
                | Ok _ -> problem "a call on a terminated task's port succeeded"
                | Error _ -> ());
                Port.release port
          in
          let threads =
            if ops = 0 then []
            else
              List.init clients (fun i ->
                  Engine.spawn ~name:(Printf.sprintf "client%d" i) (client i))
          in
          List.iter Engine.join threads;
          Kernel.shutdown k)
    in
    let layers, spans =
      if leg <> Traced then ([], None)
      else begin
        let sp = Spans.create ~names:kernel_ops ~capacity:ops in
        for j = 0 to ops - 1 do
          ignore
            (Spans.add sp ~name:kind.(j) ~start:starts.(j) ~stop:stops.(j)
               ~cpu:cpu.(j) ~parent:(-1))
        done;
        let per_op op nm =
          let durs = Buf.create () in
          Array.iteri
            (fun j kd -> if kd = op then Buf.add durs (stops.(j) - starts.(j)))
            kind;
          seg_metrics ("kernel." ^ nm) (Buf.contents durs)
        in
        (List.concat (Array.to_list (Array.mapi per_op kernel_ops)), Some sp)
      end
    in
    finish ~ops ~failed:!failed ~problems:!problems run ~starts ~stops
      ~layers ~spans
  in
  episode

(* ------------------------------------------------------------------ *)
(* cache-read: the scache-locked page cache at 64 cpus                  *)
(* ------------------------------------------------------------------ *)

let cache_read ~seed ~quick =
  let cpus = 64 and workers = 64 and pages = 64 and write_every = 32 in
  let per_worker = if quick then 4 else 16 in
  let n = workers * per_worker in
  let rng = Random.State.make [| seed |] in
  let offset = Array.init n (fun _ -> Random.State.int rng pages) in
  (* One op in [write_every] evicts and refills the worker's own stripe
     page, staggered across workers so writers do not convoy. *)
  let is_write j =
    ((j mod per_worker) + 1 + (j / per_worker * 7)) mod write_every = 0
  in
  let episode leg ~setup_only =
    let ops = if setup_only then 0 else n in
    let traced = leg = Traced in
    let starts = Array.make ops 0 and stops = Array.make ops 0 in
    let mids = Array.make ops 0 in
    let failed = ref 0 and problems = ref [] in
    let problem s = problems := s :: !problems in
    let lookup_hits = ref 0 and raced = ref 0 and fills = ref 0 in
    let hits = ref 0 and misses = ref 0 in
    let run =
      simulate ~cpus ~seed leg (fun setup_done ->
          let pool =
            Vm_page.create ~name:"bench.pool" ~pages:(pages + 4) ()
          in
          let cache =
            Vm_cache.create ~name:"bench.cache" ~pool ~size:pages ()
          in
          for o = 0 to pages - 1 do
            match Vm_cache.lookup_or_fill cache ~offset:o with
            | Ok _ -> ()
            | Error _ -> problem "warm fill failed"
          done;
          let hits0 = Vm_cache.hits cache in
          let misses0 = Vm_cache.misses cache in
          setup_done ();
          let worker w () =
            for j = w * per_worker to ((w + 1) * per_worker) - 1 do
              starts.(j) <- now ();
              if is_write j then begin
                if not (Vm_cache.evict cache ~offset:w) then incr failed;
                if traced then mids.(j) <- now ();
                incr fills;
                match Vm_cache.lookup_or_fill cache ~offset:w with
                | Ok _ -> ()
                | Error _ -> incr failed
              end
              else begin
                match Vm_cache.lookup cache ~offset:offset.(j) with
                | Some _ -> incr lookup_hits
                | None -> incr raced (* raced its owner's eviction *)
              end;
              stops.(j) <- now ()
            done
          in
          let threads =
            if ops = 0 then []
            else
              List.init workers (fun w ->
                  Engine.spawn ~name:(Printf.sprintf "cache%d" w) (worker w))
          in
          List.iter Engine.join threads;
          hits := Vm_cache.hits cache - hits0;
          misses := Vm_cache.misses cache - misses0;
          if Vm_cache.resident cache <> pages then
            problem
              (Printf.sprintf "%d of %d pages resident at the end"
                 (Vm_cache.resident cache) pages);
          Vm_cache.terminate cache)
    in
    (* Every probe is counted by the cache exactly once, except a lookup
       that raced an eviction, which the cache does not count. *)
    if !hits + !misses <> !lookup_hits + !fills then
      problem
        (Printf.sprintf "cache counted %d probes, benchmark issued %d"
           (!hits + !misses) (!lookup_hits + !fills));
    let layers, spans =
      if not traced then ([], None)
      else begin
        let names = [| "write"; "lookup"; "evict"; "refill" |] in
        let sp = Spans.create ~names ~capacity:(3 * ops) in
        let lookups = Buf.create () in
        let evicts = Buf.create () and refills = Buf.create () in
        for j = 0 to ops - 1 do
          let cpu = j / per_worker in
          if is_write j then begin
            let root =
              Spans.add sp ~name:0 ~start:starts.(j) ~stop:stops.(j) ~cpu
                ~parent:(-1)
            in
            ignore
              (Spans.add sp ~name:2 ~start:starts.(j) ~stop:mids.(j) ~cpu
                 ~parent:root);
            ignore
              (Spans.add sp ~name:3 ~start:mids.(j) ~stop:stops.(j) ~cpu
                 ~parent:root);
            Buf.add evicts (mids.(j) - starts.(j));
            Buf.add refills (stops.(j) - mids.(j))
          end
          else begin
            ignore
              (Spans.add sp ~name:1 ~start:starts.(j) ~stop:stops.(j) ~cpu
                 ~parent:(-1));
            Buf.add lookups (stops.(j) - starts.(j))
          end
        done;
        let p50_mean pre b =
          let a = Buf.contents b in
          let mean =
            float_of_int (Ledger.sum a) /. float_of_int (max 1 (Array.length a))
          in
          [
            ( pre ^ "_p50_cycles",
              float_of_int (Ledger.percentile (Ledger.sorted a) 50.) );
            (pre ^ "_mean_cycles", mean);
          ]
        in
        let probes = !hits + !misses + !raced in
        ( seg_metrics "vm_cache.lookup" (Buf.contents lookups)
          @ p50_mean "vm_cache.refill" refills
          @ p50_mean "vm_cache.evict" evicts
          @ [
              ( "vm_cache.hit_ratio",
                float_of_int !hits /. float_of_int (max 1 probes) );
              ("vm_cache.raced_misses", float_of_int !raced);
            ],
          Some sp )
      end
    in
    finish ~ops ~failed:!failed ~problems:!problems run ~starts ~stops
      ~layers ~spans
  in
  episode

(* ------------------------------------------------------------------ *)
(* mc-verify: the model checker over the tier-1 matrix                 *)
(* ------------------------------------------------------------------ *)

type verdict = Verified | Finds_failure

(* (name, cpus, preemption bound, expected verdict, scenario).  The
   3-cpu scache-rrw cell is capped at 3 preemptions here (about 1.6 s
   instead of 30 s exhaustive) so one pass over the matrix fits in a
   timed run; tier-1 [test_mc] keeps the exhaustive cell. *)
let mc_cells =
  [
    ( "same-spl", 2, None, Verified,
      fun () -> Scenarios.same_spl_holder ~disciplined:true () );
    ( "same-spl-buggy", 2, None, Finds_failure,
      fun () -> Scenarios.same_spl_holder ~disciplined:false () );
    ("handoff", 2, None, Verified, Chaos_scenarios.lost_wakeup_handoff);
    ( "herd", 2, Some 2, Verified,
      fun () -> Chaos_scenarios.wakeup_herd ~sleepers:2 () );
    ( "interrupt-disciplined", 3, Some 2, Verified,
      Scenarios.interrupt_barrier_scenario ~disciplined:true );
    ( "interrupt-deadlock", 3, None, Finds_failure,
      Scenarios.interrupt_barrier_scenario ~disciplined:false );
    ("range-overlap", 2, None, Verified, Scenarios.range_overlap);
    ("range-disjoint", 2, None, Verified, Scenarios.range_disjoint);
    ("scache-rw", 2, None, Verified, Scenarios.scache_rw);
    ("scache-ww", 2, None, Verified, Scenarios.scache_ww);
    ("scache-rr", 2, None, Verified, Scenarios.scache_rr);
    ( "scache-rrw", 3, Some 3, Verified,
      fun () -> ignore (Scenarios.scache_rrw ()) );
  ]

(* Model checking is exhaustive, so this workload has no seeded input. *)
let mc_verify ~seed:_ ~quick =
  let cells = Array.of_list mc_cells in
  let cap b =
    if quick then Some (match b with Some b -> min b 1 | None -> 1) else b
  in
  let episode leg ~setup_only =
    let lat = Buf.create () in
    let failed = ref 0 and problems = ref [] in
    let transitions = ref 0 and executions = ref 0 in
    let choice_points = ref 0 and pruned = ref 0 in
    let sp =
      Spans.create
        ~names:(Array.map (fun (nm, _, _, _, _) -> nm) cells)
        ~capacity:(Array.length cells)
    in
    let t0 = Unix.gettimeofday () in
    let host = ref 0 in
    Array.iteri
      (fun k (name, cpus, bound, expect, scenario) ->
        (* An execution's latency is the simulated clock at which the
           scenario's main thread returns. *)
        let body () =
          scenario ();
          Buf.add lat (now ())
        in
        let c0 = Unix.gettimeofday () in
        if setup_only then
          (* Set-up: boot every cell once, one schedule each. *)
          ignore
            (Mc.check ~cpus ~mode:Mc.Dpor ?bound ~domains:1 ~max_executions:1
               ~minimize:false body)
        else begin
          let r =
            Mc.check ~cpus ~mode:Mc.Dpor ?bound:(cap bound) ~domains:1 body
          in
          let ok =
            match expect with
            | Verified -> r.Mc.verified
            | Finds_failure -> r.Mc.failure <> None
          in
          if not ok then begin
            incr failed;
            problems := Printf.sprintf "%s: wrong verdict" name :: !problems
          end;
          let s = r.Mc.stats in
          transitions := !transitions + s.Mc.transitions;
          executions := !executions + s.Mc.executions;
          choice_points := !choice_points + s.Mc.choice_points;
          pruned := !pruned + s.Mc.pruned
        end;
        (* Cell spans are in host microseconds. *)
        let us = int_of_float ((Unix.gettimeofday () -. c0) *. 1e6) in
        ignore
          (Spans.add sp ~name:k ~start:!host ~stop:(!host + us) ~cpu:0
             ~parent:(-1));
        host := !host + us)
      cells;
    let t1 = Unix.gettimeofday () in
    let lat = if setup_only then [||] else Buf.contents lat in
    {
      ops = (if setup_only then 0 else Array.length cells);
      failed = !failed;
      problems = !problems;
      stats = None;
      steps = !transitions;
      setup_s = (if setup_only then t1 -. t0 else 0.);
      wall_s = (if setup_only then 0. else t1 -. t0);
      lat;
      window = Ledger.sum lat;
      layers =
        (if leg = Traced && not setup_only then
           [
             ("mc.executions", float_of_int !executions);
             ("mc.transitions", float_of_int !transitions);
             ("mc.choice_points", float_of_int !choice_points);
             ("mc.pruned", float_of_int !pruned);
           ]
         else []);
      spans = (if leg = Traced then Some sp else None);
    }
  in
  episode

let all =
  [
    ("rpc-echo", rpc_echo);
    ("kernel-mix", kernel_mix);
    ("cache-read", cache_read);
    ("mc-verify", mc_verify);
  ]
