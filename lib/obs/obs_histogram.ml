(* Log-bucketed (HDR-style) histogram of non-negative integers.

   Layout: 32 sub-buckets per power of two.  Values below 64 are recorded
   exactly (bucket width 1); above that, bucket width doubles with each
   power of two, bounding the relative quantization error at 1/32.  With
   62-bit values the bucket array tops out below 1920 entries, so a
   histogram is one flat array of counts — cheap enough to put one in
   every lock-class profile.

   The counts live in a bigarray, outside the OCaml heap: the major GC
   never marks them.  The metrics registry alone holds 16 shards of
   every named histogram, and as plain int arrays their 1,920 words each
   were almost all of a model-checking process's live heap, marked again
   by every major cycle.  [record] compiles to inline loads and stores;
   only [make] and [reset] call into the runtime (to fill). *)

let sub_buckets = 32 (* must be a power of two *)
let sub_bits = 5
let n_buckets = 1920

let msb_position v =
  (* position of the highest set bit; v > 0 *)
  let rec go v acc = if v = 0 then acc - 1 else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_index v =
  let v = if v < 0 then 0 else v in
  if v < sub_buckets then v
  else
    let b = msb_position v - sub_bits in
    (b * sub_buckets) + (v lsr b)

let bucket_bounds i =
  let b = Int.max 0 ((i / sub_buckets) - 1) in
  let sub = i - (b * sub_buckets) in
  (sub lsl b, ((sub + 1) lsl b) - 1)

type buckets = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  buckets : buckets;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let make () =
  let buckets = Bigarray.(Array1.create Int C_layout n_buckets) in
  Bigarray.Array1.fill buckets 0;
  { buckets; count = 0; sum = 0; min_v = max_int; max_v = 0 }

let record_n t v ~n =
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let i = bucket_index v in
    t.buckets.{i} <- t.buckets.{i} + n;
    t.count <- t.count + n;
    t.sum <- t.sum + (v * n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v ~n:1

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v

let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* Value at or below which at least p% of recorded values fall; reported
   as the bucket's upper bound (clamped to the observed maximum), so the
   answer is exact for values below 64 and within 1/32 above. *)
let percentile t p =
  if t.count = 0 then 0
  else begin
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count)))
    in
    let rec walk i seen =
      if i >= n_buckets then t.max_v
      else
        let seen = seen + t.buckets.{i} in
        if seen >= rank then Stdlib.min (snd (bucket_bounds i)) t.max_v
        else walk (i + 1) seen
    in
    walk 0 0
  end

let merge_into ~dst src =
  for i = 0 to n_buckets - 1 do
    let n = src.buckets.{i} in
    if n > 0 then dst.buckets.{i} <- dst.buckets.{i} + n
  done;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.count > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let reset t =
  Bigarray.Array1.fill t.buckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let pp ppf t =
  if t.count = 0 then Format.pp_print_string ppf "(empty)"
  else
    Format.fprintf ppf
      "n=%d mean=%.1f min=%d p50=%d p90=%d p99=%d max=%d" t.count (mean t)
      (min_value t) (percentile t 50.0) (percentile t 90.0)
      (percentile t 99.0) t.max_v

let to_json t =
  let open Obs_json in
  Obj
    [
      ("count", Int t.count);
      ("sum", Int t.sum);
      ("mean", Float (mean t));
      ("min", Int (min_value t));
      ("p50", Int (percentile t 50.0));
      ("p90", Int (percentile t 90.0));
      ("p99", Int (percentile t 99.0));
      ("max", Int t.max_v);
    ]
