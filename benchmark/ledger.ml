(* Exact statistics over the benchmark's own samples, and the span store
   of the traced leg.

   Latencies are kept per operation in arrays sized before a leg starts,
   so a percentile here is the exact order statistic, not an
   [Obs_histogram] bucket bound. *)

(* Nearest-rank percentile of a sorted array ([p] in (0, 100]). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let sum a = Array.fold_left ( + ) 0 a

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so the spread printed here matches one recomputed in Python
   from the same values. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Quartile distance as a share of the median. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let q1, q3 = quartiles xs in
      let m = median xs in
      if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* A growable int buffer for sample counts not known in advance (the
   model checker's executions). *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(* Spans of the traced leg: name, start, end, cpu and parent, in
   parallel arrays.  A root span is one client operation; its children
   are the layer segments of that operation, including the server-side
   routine span, which the request id carried in the message ties to
   its client's root. *)
module Spans = struct
  type t = {
    names : string array;
    mutable n : int;
    name : int array;
    start : int array;
    stop : int array;
    cpu : int array;
    parent : int array;
  }

  let create ~names ~capacity =
    {
      names;
      n = 0;
      name = Array.make capacity 0;
      start = Array.make capacity 0;
      stop = Array.make capacity 0;
      cpu = Array.make capacity 0;
      parent = Array.make capacity 0;
    }

  let add t ~name ~start ~stop ~cpu ~parent =
    let i = t.n in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.cpu.(i) <- cpu;
    t.parent.(i) <- parent;
    t.n <- i + 1;
    i

  (* Self time: a span's duration minus the durations of its children. *)
  let self_times t =
    let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
    done;
    self

  (* Per name: count, p50 and p99 duration, total and self cycles. *)
  let table t =
    let self = self_times t in
    Array.to_list
      (Array.mapi
         (fun k nm ->
           let durs = Buf.create () in
           let total = ref 0 and self_sum = ref 0 in
           for i = 0 to t.n - 1 do
             if t.name.(i) = k then begin
               let d = t.stop.(i) - t.start.(i) in
               Buf.add durs d;
               total := !total + d;
               self_sum := !self_sum + self.(i)
             end
           done;
           let s = sorted (Buf.contents durs) in
           ( nm,
             Array.length s,
             percentile s 50.,
             percentile s 99.,
             !total,
             !self_sum ))
         t.names)

  let print t =
    Printf.printf "  %-22s %8s %10s %10s %14s %14s\n" "span" "count" "p50" "p99"
      "total" "self";
    List.iter
      (fun (nm, c, p50, p99, total, self) ->
        if c > 0 then
          Printf.printf "  %-22s %8d %10d %10d %14d %14d\n" nm c p50 p99 total
            self)
      (table t)

  let write t path =
    let oc = open_out path in
    output_string oc "{\"spans\":[";
    for i = 0 to t.n - 1 do
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":%S,\"start\":%d,\"end\":%d,\"cpu\":%d,\"parent\":%d}"
        t.names.(t.name.(i)) t.start.(i) t.stop.(i) t.cpu.(i) t.parent.(i)
    done;
    output_string oc "]}\n";
    close_out oc
end
