(* Reference QARMA-128: the cell-array cipher written step by step as the
   construction reads (16 cells of 8 bits, AddRoundTweakey / tau / M /
   S-box rounds, keyed pseudo-reflector, mirrored backward rounds). It
   shares no code with the table-driven Ptg_crypto.Qarma beyond Block128
   and the key's (w0, k0) material, so the two agree only if both follow
   the same construction. The differential tests and the reference MAC
   fold below are its only users. *)

open Ptg_crypto

(* sigma_1, the 4-bit S-box recommended in the QARMA paper. *)
let sigma1 = [| 0xa; 0xd; 0xe; 0x6; 0xf; 0x7; 0x3; 0x5; 0x9; 0x8; 0x0; 0xc; 0xb; 0x1; 0x2; 0x4 |]

(* 8-bit cell S-box: sigma_1 on each nibble, then a nibble swap. *)
let sbox =
  Array.init 256 (fun x ->
      let hi = sigma1.(x lsr 4) and lo = sigma1.(x land 0xf) in
      (lo lsl 4) lor hi)

let invert p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i j -> inv.(j) <- i) p;
  inv

let sbox_inv = invert sbox

(* The Midori cell shuffle used by QARMA: new.(i) = old.(tau.(i)). *)
let tau = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]
let tau_inv = invert tau
let permute p cells = Array.init 16 (fun i -> cells.(p.(i)))
let substitute table cells = Array.map (fun c -> table.(c)) cells
let xor a b = Array.map2 ( lxor ) a b

(* Involutory diffusion matrix M = circ(0, rho^1, rho^4, rho^5) over 8-bit
   cells, applied column-wise on the 4x4 state (cell index = 4*row + col). *)
let mix cells =
  let rot = Ptg_util.Bits.rotl8 in
  Array.init 16 (fun i ->
      let row = i / 4 and col = i mod 4 in
      let c j = cells.((((row + j) land 3) * 4) + col) in
      rot (c 1) 1 lxor rot (c 2) 4 lxor rot (c 3) 5)

(* Tweak schedule: cell permutation h, then an 8-bit maximal LFSR
   (x^8 + x^4 + x^3 + x^2 + 1) on a fixed subset of cells. *)
let h_perm = [| 6; 5; 14; 15; 0; 1; 2; 3; 7; 12; 13; 4; 8; 9; 10; 11 |]
let lfsr_cells = [| 0; 1; 3; 4; 8; 11; 13 |]

let lfsr x =
  let fb = (x lxor (x lsr 2) lxor (x lsr 3) lxor (x lsr 4)) land 1 in
  (x lsr 1) lor (fb lsl 7)

let lfsr_inv = invert (Array.init 256 lfsr)

let tweak_update t =
  let t = permute h_perm t in
  Array.iter (fun i -> t.(i) <- lfsr t.(i)) lfsr_cells;
  t

let tweak_update_inv t =
  let t = Array.copy t in
  Array.iter (fun i -> t.(i) <- lfsr_inv.(t.(i))) lfsr_cells;
  permute (invert h_perm) t

(* The SHA-512 round constants, paired into 128-bit words; alpha is the
   17th pair. *)
let constant_words =
  [|
    0x428a2f98d728ae22L; 0x7137449123ef65cdL; 0xb5c0fbcfec4d3b2fL; 0xe9b5dba58189dbbcL;
    0x3956c25bf348b538L; 0x59f111f1b605d019L; 0x923f82a4af194f9bL; 0xab1c5ed5da6d8118L;
    0xd807aa98a3030242L; 0x12835b0145706fbeL; 0x243185be4ee4b28cL; 0x550c7dc3d5ffb4e2L;
    0x72be5d74f27b896fL; 0x80deb1fe3b1696b1L; 0x9bdc06a725c71235L; 0xc19bf174cf692694L;
    0xe49b69c19ef14ad2L; 0xefbe4786384f25e3L; 0x0fc19dc68b8cd5b5L; 0x240ca1cc77ac9c65L;
    0x2de92c6f592b0275L; 0x4a7484aa6ea6e483L; 0x5cb0a9dcbd41fbd4L; 0x76f988da831153b5L;
    0x983e5152ee66dfabL; 0xa831c66d2db43210L; 0xb00327c898fb213fL; 0xbf597fc7beef0ee4L;
    0xc6e00bf33da88fc2L; 0xd5a79147930aa725L; 0x06ca6351e003826fL; 0x142929670a0e6e70L;
  |]

let round_constant i =
  Block128.to_cells
    (Block128.make ~hi:constant_words.(2 * i) ~lo:constant_words.((2 * i) + 1))

let alpha = Block128.make ~hi:0x27b70a8546d22ffcL ~lo:0x2e1b21385c26c926L

type key = {
  rounds : int;
  w0 : int array;
  w1 : int array;
  k0 : int array;  (* forward round key *)
  k0a : int array; (* backward round key: k0 xor alpha *)
  k1 : int array;  (* reflector key: M(k0) *)
}

let expand key =
  let w0, k0 = Qarma.key_material key in
  let w1 = Block128.logxor (Block128.rotr1 w0) (Block128.shift_right_127 w0) in
  {
    rounds = Qarma.rounds key;
    w0 = Block128.to_cells w0;
    w1 = Block128.to_cells w1;
    k0 = Block128.to_cells k0;
    k0a = Block128.to_cells (Block128.logxor k0 alpha);
    k1 = mix (Block128.to_cells k0);
  }

(* [r] rounds of: s ^= k ^ t_i ^ rc_i; (tau; M unless i = 0); S. Returns
   the state and t_r. *)
let forward_half k s t r =
  let s = ref s and t = ref t in
  for i = 0 to r - 1 do
    s := xor !s (xor k (xor !t (round_constant i)));
    if i > 0 then s := mix (permute tau !s);
    s := substitute sbox !s;
    t := tweak_update !t
  done;
  !s

(* The mirror image, from t_r down: S^-1; (M; tau^-1 unless i = 0);
   s ^= k ^ t_i ^ rc_i. *)
let backward_half k s t_r r =
  let s = ref s and t = ref t_r in
  for i = r - 1 downto 0 do
    t := tweak_update_inv !t;
    s := substitute sbox_inv !s;
    if i > 0 then s := permute tau_inv (mix !s);
    s := xor !s (xor k (xor !t (round_constant i)))
  done;
  !s

let rec iterate f n x = if n = 0 then x else iterate f (n - 1) (f x)

let encrypt key ~tweak p =
  let k = expand key in
  let t0 = Block128.to_cells tweak in
  let t_r = iterate tweak_update k.rounds t0 in
  let s = forward_half k.k0 (xor (Block128.to_cells p) k.w0) t0 k.rounds in
  (* Centre: whitening, then the keyed pseudo-reflector. *)
  let s = xor s (xor k.w1 t_r) in
  let s = permute tau_inv (xor (mix (permute tau s)) k.k1) in
  Block128.of_cells (xor (backward_half k.k0a s t_r k.rounds) k.w1)

let decrypt key ~tweak c =
  let k = expand key in
  let t0 = Block128.to_cells tweak in
  let t_r = iterate tweak_update k.rounds t0 in
  let s = forward_half k.k0a (xor (Block128.to_cells c) k.w1) t0 k.rounds in
  let s = permute tau_inv (mix (xor (permute tau s) k.k1)) in
  let s = xor s (xor k.w1 t_r) in
  Block128.of_cells (xor (backward_half k.k0 s t_r k.rounds) k.w0)

(* The PT-Guard MAC as the paper states it: XOR over the four chunks of
   Q(C_i xor A_i), A_i = { hi = i; lo = addr }, top 32 bits dropped. *)
let mac key ~addr line =
  let acc = ref Block128.zero in
  for i = 0 to 3 do
    let a = Block128.make ~hi:(Int64.of_int i) ~lo:addr in
    let chunk = Block128.make ~hi:line.((2 * i) + 1) ~lo:line.(2 * i) in
    acc := Block128.logxor !acc (encrypt key ~tweak:a (Block128.logxor chunk a))
  done;
  { Mac.hi32 = Int64.logand !acc.Block128.hi 0xFFFFFFFFL; lo = !acc.Block128.lo }
