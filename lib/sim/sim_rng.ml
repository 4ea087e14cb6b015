(* The SplitMix64 state lives unboxed in an 8-byte buffer: a draw reads
   and writes it in place and allocates nothing. *)
type t = Bytes.t

let make seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int (seed lxor 0x5DEECE66D));
  t

let copy = Bytes.copy

let[@inline] next_int64 t =
  let open Int64 in
  let z = add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] next t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Sim_rng.int: bound must be positive";
  next t mod bound

let bool t = next t land 1 = 1
let float t = float_of_int (next t) /. 4611686018427387904.0

let pick t = function
  | [] -> invalid_arg "Sim_rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let tagged = List.map (fun x -> (next t, x)) l in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged)
