(* xoshiro256** seeded via SplitMix64.

   The four state words live in an int64 bigarray rather than mutable
   record fields: bigarray loads and stores compile to unboxed moves,
   where every store to a mutable [int64] field allocates a fresh box —
   and [next] runs several times per simulated instruction. The update
   math is unchanged, so streams are bit-identical to the record-based
   implementation this replaced. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make4 s0 s1 s2 s3 : t =
  let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout 4 in
  Bigarray.Array1.unsafe_set a 0 s0;
  Bigarray.Array1.unsafe_set a 1 s1;
  Bigarray.Array1.unsafe_set a 2 s2;
  Bigarray.Array1.unsafe_set a 3 s3;
  a

(* SplitMix64: expands a 64-bit seed into well-distributed state words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    make4 1L 2L 3L 4L
  else make4 s0 s1 s2 s3

(* Local rotate so [next] stays free of cross-module calls; [n] is a
   nonzero literal at both uses.

   [rotl], [next], [float] and [bernoulli] are [@inline]: inlined at a
   call site in another module (which needs the .cmx, i.e. a build
   without -opaque), the int64 words and the float never leave
   registers, so a draw allocates nothing. Called out of line, each
   returns a fresh box. *)
let[@inline] rotl w n =
  Int64.logor (Int64.shift_left w n) (Int64.shift_right_logical w (64 - n))

let[@inline] next (t : t) =
  let open Int64 in
  let s0 = Bigarray.Array1.unsafe_get t 0
  and s1 = Bigarray.Array1.unsafe_get t 1
  and s2 = Bigarray.Array1.unsafe_get t 2
  and s3 = Bigarray.Array1.unsafe_get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bigarray.Array1.unsafe_set t 0 s0;
  Bigarray.Array1.unsafe_set t 1 s1;
  Bigarray.Array1.unsafe_set t 2 s2;
  Bigarray.Array1.unsafe_set t 3 s3;
  result

let split t = create (next t)

let state (t : t) =
  [|
    Bigarray.Array1.unsafe_get t 0;
    Bigarray.Array1.unsafe_get t 1;
    Bigarray.Array1.unsafe_get t 2;
    Bigarray.Array1.unsafe_get t 3;
  |]

let set_state (t : t) words =
  if Array.length words <> 4 then invalid_arg "Rng.set_state: want 4 words";
  if Array.for_all (Int64.equal 0L) words then
    invalid_arg "Rng.set_state: all-zero xoshiro state";
  for i = 0 to 3 do
    Bigarray.Array1.unsafe_set t i words.(i)
  done

let copy (t : t) =
  make4
    (Bigarray.Array1.unsafe_get t 0)
    (Bigarray.Array1.unsafe_get t 1)
    (Bigarray.Array1.unsafe_get t 2)
    (Bigarray.Array1.unsafe_get t 3)

let int64_bounded t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Rng.int64_bounded";
  (* Rejection sampling over 63 random bits to avoid modulo bias: accept
     [r] iff it falls below the largest multiple of [bound] that fits in
     2^63, i.e. iff [r - (r mod bound) <= 2^63 - bound]. *)
  let limit = Int64.sub Int64.max_int (Int64.sub bound 1L) in
  let rec go () =
    let r = Int64.shift_right_logical (next t) 1 in
    let v = Int64.rem r bound in
    if Int64.compare (Int64.sub r v) limit > 0 then go () else v
  in
  go ()

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (int64_bounded t (Int64.of_int bound))

let[@inline] float t =
  (* 53 random bits into the mantissa. *)
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L
let[@inline] bernoulli t p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose";
  a.(int t (Array.length a))

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric";
  if p >= 1.0 then 0
  else
    let u = float t in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
