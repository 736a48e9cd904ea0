(* QARMA-128 reflector cipher, table-driven. See the .mli for the
   construction and DESIGN.md for why tables rather than bit-slicing.

   The state is four 32-bit column words: column [c] packs cells c, 4+c,
   8+c and 12+c (rows 0..3) from the top byte down, cell index 4*row+col.
   The cipher's steps regroup into units that each gather 16 bytes
   through a cell permutation and rebuild four columns from lookups:

   - forward unit: S-box, xor the round-key byte, then one lookup in
     [mcol], the column contribution of that byte under M (the gather
     through [tau] does the cell shuffle);
   - backward unit: gather through [tau_inv], xor the round-key byte,
     then one lookup in [mscol] = M o S^-1.

   Encryption is: whitening, [r] forward units (the last one is the
   centre's M), [r - 1] backward units (the first one carries the
   reflector key), and a final S^-1 gather with the output whitening.
   Decryption is the same program under k0a/k0 swapped and w0/w1
   swapped; only the centre's constants differ. A [schedule] holds every
   unit's key bytes for one (key, tweak), so a fixed tweak is scheduled
   once. The pure cell-array cipher lives in test/crypto/qarma_ref.ml as
   the differential oracle. *)

external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

(* sigma_1, the 4-bit S-box recommended in the QARMA paper. *)
let sigma1 = [| 0xa; 0xd; 0xe; 0x6; 0xf; 0x7; 0x3; 0x5; 0x9; 0x8; 0x0; 0xc; 0xb; 0x1; 0x2; 0x4 |]

(* 8-bit cell S-box: sigma_1 on each nibble, then a nibble swap so the two
   halves of a cell diffuse into each other across rounds. *)
let sbox =
  Array.init 256 (fun x ->
      let hi = sigma1.(x lsr 4) and lo = sigma1.(x land 0xf) in
      (lo lsl 4) lor hi)

let sbox_inv =
  let inv = Array.make 256 0 in
  Array.iteri (fun i y -> inv.(y) <- i) sbox;
  inv

(* The Midori cell shuffle used by QARMA: new.(i) = old.(tau.(i)). *)
let tau = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]

let tau_inv =
  let inv = Array.make 16 0 in
  Array.iteri (fun i j -> inv.(j) <- i) tau;
  inv

(* Involutory diffusion matrix M = circ(0, rho^1, rho^4, rho^5) over 8-bit
   cells, applied per column: out row i = rho(in row i+1) ^ rho^4(in row
   i+2) ^ rho^5(in row i+3). [mcol.(256 j + x)] is the column word that
   byte [x] in row [j] contributes. *)
let mcol =
  let rot = Ptg_util.Bits.rotl8 in
  Array.init 1024 (fun i ->
      let j = i lsr 8 and x = i land 0xff in
      let at row v = v lsl (24 - (8 * (row land 3))) in
      at (j + 3) (rot x 1) lor at (j + 2) (rot x 4) lor at (j + 1) (rot x 5))

let mscol = Array.init 1024 (fun i -> mcol.((i land 0x300) lor sbox_inv.(i land 0xff)))

let mix cells =
  let out = Array.make 16 0 in
  for c = 0 to 3 do
    let w = ref 0 in
    for j = 0 to 3 do
      w := !w lxor mcol.((256 * j) + cells.((4 * j) + c))
    done;
    for j = 0 to 3 do
      out.((4 * j) + c) <- (!w lsr (24 - (8 * j))) land 0xff
    done
  done;
  out

(* The tweak LFSR x^8 + x^4 + x^3 + x^2 + 1, as a table. *)
let lfsr =
  Array.init 256 (fun x ->
      let fb = (x lxor (x lsr 2) lxor (x lsr 3) lxor (x lsr 4)) land 1 in
      (x lsr 1) lor (fb lsl 7))

(* Tweak update t_{i+1} from t_i (cells at [src], written at [dst]): the
   cell permutation h = [6 5 14 15 0 1 2 3 7 12 13 4 8 9 10 11] (new cell
   k = old cell h k), then the LFSR on cells 0 1 3 4 8 11 13. *)
let tweak_update tw src dst =
  set tw dst (get lfsr (get tw (src + 6)));
  set tw (dst + 1) (get lfsr (get tw (src + 5)));
  set tw (dst + 2) (get tw (src + 14));
  set tw (dst + 3) (get lfsr (get tw (src + 15)));
  set tw (dst + 4) (get lfsr (get tw src));
  set tw (dst + 5) (get tw (src + 1));
  set tw (dst + 6) (get tw (src + 2));
  set tw (dst + 7) (get tw (src + 3));
  set tw (dst + 8) (get lfsr (get tw (src + 7)));
  set tw (dst + 9) (get tw (src + 12));
  set tw (dst + 10) (get tw (src + 13));
  set tw (dst + 11) (get lfsr (get tw (src + 4)));
  set tw (dst + 12) (get tw (src + 8));
  set tw (dst + 13) (get lfsr (get tw (src + 9)));
  set tw (dst + 14) (get tw (src + 10));
  set tw (dst + 15) (get tw (src + 11))

(* Nothing-up-my-sleeve round constants: the SHA-512 round constants
   (fractional parts of cube roots of the first primes), paired into
   128-bit words. 16 round constants; [alpha] is the next pair. *)
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

let max_rounds = 16

(* Round constant i as cells, at [16 i]. *)
let rc_cells =
  Array.concat
    (List.init max_rounds (fun i ->
         Block128.to_cells
           (Block128.make ~hi:constant_words.(2 * i) ~lo:constant_words.((2 * i) + 1))))

let alpha = Block128.make ~hi:0x27b70a8546d22ffcL ~lo:0x2e1b21385c26c926L

(* One direction's key material, as cells. A forward unit xors [fk] (k xor
   rc_i), a backward unit [bk]; the centre forward unit's key is
   [centre_f] and the first backward unit's is [centre_b] (already in
   post-tau^-1 order), with the last tweak t_r joining the former when
   [tweak_in_centre_f] and the latter otherwise. *)
type half = {
  fk : int array;
  bk : int array;
  w_in : int array;
  w_out : int array;
  centre_f : int array;
  centre_b : int array;
  tweak_in_centre_f : bool;
}

type key = { rounds : int; w0 : Block128.t; k0 : Block128.t; enc : half; dec : half }

let default_rounds = 8

let expand_key ?(rounds = default_rounds) ~w0 k0 =
  if rounds < 1 || rounds > max_rounds then invalid_arg "Qarma.expand_key: rounds";
  (* Orthomorphism o(w) = (w >>> 1) xor (w >> 127). *)
  let w1 = Block128.logxor (Block128.rotr1 w0) (Block128.shift_right_127 w0) in
  let w0c = Block128.to_cells w0 and w1c = Block128.to_cells w1 in
  let k0c = Block128.to_cells k0 in
  let k0ac = Block128.to_cells (Block128.logxor k0 alpha) in
  let round_keys k = Array.init (16 * rounds) (fun i -> k.(i land 15) lxor rc_cells.(i)) in
  let after_tau_inv k = Array.init 16 (fun d -> k.(tau_inv.(d))) in
  {
    rounds;
    w0;
    k0;
    (* Centre: xor (w1 ^ t_r); tau; M; xor k1 (= M k0); tau^-1. *)
    enc =
      { fk = round_keys k0c; bk = round_keys k0ac; w_in = w0c; w_out = w1c;
        centre_f = w1c; centre_b = after_tau_inv (mix k0c); tweak_in_centre_f = true };
    (* Its inverse: tau; M; xor M(k1) = k0; tau^-1; xor (w1 ^ t_r). *)
    dec =
      { fk = round_keys k0ac; bk = round_keys k0c; w_in = w1c; w_out = w0c;
        centre_f = Array.make 16 0;
        centre_b = Array.map2 ( lxor ) (after_tau_inv k0c) w1c;
        tweak_in_centre_f = false };
  }

let key_of_rng ?rounds rng =
  let block () =
    Block128.make ~hi:(Ptg_util.Rng.next rng) ~lo:(Ptg_util.Rng.next rng)
  in
  expand_key ?rounds ~w0:(block ()) (block ())

let rounds k = k.rounds
let key_material k = (k.w0, k.k0)

(* A schedule holds one (key, tweak)'s round-key bytes in [kb], 16 per
   unit in cell order: the r forward units, then the r - 1 backward units
   and the final gather. A forward unit xors its bytes before its tau
   gather, a backward unit after its tau^-1 gather. [wr] holds the input
   and output whitening as row words, [tw] the tweak cells of the current
   round while filling. Bytes keep a schedule small enough for the minor
   heap. *)
type schedule = { mutable nr : int; kb : Bytes.t; wr : int array; tw : int array }

(* Byte access typed as int (a char is an immediate int); stored values
   are always below 256. *)
external kget : Bytes.t -> int -> int = "%bytes_unsafe_get"
external kset : Bytes.t -> int -> int -> unit = "%bytes_unsafe_set"

let make_schedule rounds =
  { nr = rounds; kb = Bytes.make (32 * rounds) '\000'; wr = Array.make 8 0;
    tw = Array.make 32 0 }

(* Row word j of the 16 cells [a.(d) ^ b.(d) ^ c.(d)]. *)
let row3 a b c j =
  let w = ref 0 in
  for d = 4 * j to (4 * j) + 3 do
    w := (!w lsl 8) lor (get a d lxor get b d lxor get c d)
  done;
  !w

let fill sch key h ~t_hi ~t_lo =
  let r = key.rounds in
  sch.nr <- r;
  let kb = sch.kb and tw = sch.tw and fk = h.fk and bk = h.bk in
  for i = 0 to 7 do
    let sh = 56 - (8 * i) in
    set tw i (Int64.to_int (Int64.shift_right_logical t_hi sh) land 0xff);
    set tw (i + 8) (Int64.to_int (Int64.shift_right_logical t_lo sh) land 0xff)
  done;
  for j = 0 to 3 do
    set sch.wr j (row3 h.w_in fk tw j);
    set sch.wr (4 + j) (row3 h.w_out bk tw j)
  done;
  (* Round i's forward key goes to unit i - 1, its backward key to unit
     2r - i; t_i alternates between the two halves of [tw]. *)
  for i = 1 to r - 1 do
    let src = 16 * ((i - 1) land 1) and dst = 16 * (i land 1) in
    tweak_update tw src dst;
    let o = 16 * i and of_ = 16 * (i - 1) and ob = 16 * ((2 * r) - i) in
    for d = 0 to 15 do
      let t = get tw (dst + d) in
      kset kb (of_ + d) (get fk (o + d) lxor t);
      kset kb (ob + d) (get bk (o + d) lxor t)
    done
  done;
  let dst = 16 * (r land 1) in
  tweak_update tw (16 - dst) dst;
  let o = 16 * (r - 1) in
  let tf = if h.tweak_in_centre_f then -1 else 0 in
  for d = 0 to 15 do
    let t = get tw (dst + d) in
    kset kb (o + d) (get h.centre_f d lxor (t land tf));
    kset kb (o + 16 + d) (get h.centre_b d lxor (t land lnot tf))
  done

(* Where a one-cell tweak difference goes in one tweak update: the cell
   it moves to, plus 16 if it passes through the LFSR there. Read off
   [tweak_update] itself. *)
let tweak_walk =
  Array.init 16 (fun c ->
      let tw = Array.make 32 0 in
      tw.(c) <- 1;
      tweak_update tw 0 16;
      let k = ref 0 in
      while tw.(16 + !k) = 0 do incr k done;
      !k lor if tw.(16 + !k) = 1 then 0 else 16)

(* The encryption schedule [sch] becomes that of its tweak with [v] xored
   into cell [cell]. The tweak schedule is linear and moves cells one to
   one, so the difference touches one byte per round. *)
let retweak sch ~cell v =
  let r = sch.nr and kb = sch.kb and wr = sch.wr in
  let row = cell lsr 2 and d0 = v lsl (24 - (8 * (cell land 3))) in
  set wr row (get wr row lxor d0);
  set wr (4 + row) (get wr (4 + row) lxor d0);
  let c = ref cell and d = ref v in
  for i = 1 to r do
    let w = get tweak_walk !c in
    c := w land 15;
    if w >= 16 then d := get lfsr !d;
    (* t_i feeds round i's forward and backward units; t_r the centre's
       forward unit. *)
    let o1 = (16 * (i - 1)) + !c in
    kset kb o1 (kget kb o1 lxor !d);
    if i < r then begin
      let o2 = (16 * ((2 * r) - i)) + !c in
      kset kb o2 (kget kb o2 lxor !d)
    end
  done

let schedule key ~t_hi ~t_lo =
  let sch = make_schedule key.rounds in
  fill sch key key.enc ~t_hi ~t_lo;
  sch

(* The last block's output, as four 32-bit row words (hi = rows 0-1). *)
type scratch = {
  own : schedule;
  mutable r0 : int;
  mutable r1 : int;
  mutable r2 : int;
  mutable r3 : int;
}

let scratch () = { own = make_schedule max_rounds; r0 = 0; r1 = 0; r2 = 0; r3 = 0 }

(* One output column of a unit. [x0]..[x3] carry the source cells of rows
   0..3 in their low byte. A forward unit's key byte belongs to the source
   cell ([c0]..[c3]); a backward unit's to the output cell, [o] for row
   0. *)
let[@inline] fcol kb o x0 c0 x1 c1 x2 c2 x3 c3 =
  get mcol (get sbox (x0 land 0xff) lxor kget kb (o + c0))
  lxor get mcol (256 + (get sbox (x1 land 0xff) lxor kget kb (o + c1)))
  lxor get mcol (512 + (get sbox (x2 land 0xff) lxor kget kb (o + c2)))
  lxor get mcol (768 + (get sbox (x3 land 0xff) lxor kget kb (o + c3)))

let[@inline] bcol kb o a b c d =
  get mscol (a land 0xff lxor kget kb o)
  lxor get mscol (256 + (b land 0xff lxor kget kb (o + 4)))
  lxor get mscol (512 + (c land 0xff lxor kget kb (o + 8)))
  lxor get mscol (768 + (d land 0xff lxor kget kb (o + 12)))

(* Final gather: S^-1 of the tau^-1-gathered cell [x] xor its key byte. *)
let[@inline] fin kb o x = get sbox_inv (x land 0xff lxor kget kb o)

(* Output row word j: cells 4j..4j+3 from [a]..[d], then the output
   whitening [w]. *)
let[@inline] frow kb o j w a b c d =
  let oj = o + (4 * j) in
  (fin kb oj a lsl 24) lor (fin kb (oj + 1) b lsl 16) lor (fin kb (oj + 2) c lsl 8)
  lor fin kb (oj + 3) d
  lxor w

let final sc sch o s0 s1 s2 s3 =
  let kb = sch.kb and wr = sch.wr in
  sc.r0 <- frow kb o 0 (get wr 4) (s0 lsr 24) (s1 lsr 16) s3 (s2 lsr 8);
  sc.r1 <- frow kb o 1 (get wr 5) s1 (s0 lsr 8) (s2 lsr 24) (s3 lsr 16);
  sc.r2 <- frow kb o 2 (get wr 6) (s3 lsr 8) s2 (s0 lsr 16) (s1 lsr 24);
  sc.r3 <- frow kb o 3 (get wr 7) (s2 lsr 16) (s3 lsr 24) (s1 lsr 8) s0

let rec bwd sc sch kb o stop s0 s1 s2 s3 =
  if o = stop then final sc sch o s0 s1 s2 s3
  else
    bwd sc sch kb (o + 16) stop
      (bcol kb o (s0 lsr 24) s1 (s3 lsr 8) (s2 lsr 16))
      (bcol kb (o + 1) (s1 lsr 16) (s0 lsr 8) s2 (s3 lsr 24))
      (bcol kb (o + 2) s3 (s2 lsr 24) (s0 lsr 16) (s1 lsr 8))
      (bcol kb (o + 3) (s2 lsr 8) (s3 lsr 16) (s1 lsr 24) s0)

let rec fwd sc sch kb o stop s0 s1 s2 s3 =
  if o = stop then bwd sc sch kb o (stop + stop - 16) s0 s1 s2 s3
  else
    fwd sc sch kb (o + 16) stop
      (fcol kb o (s0 lsr 24) 0 (s2 lsr 8) 10 (s1 lsr 16) 5 s3 15)
      (fcol kb o (s3 lsr 8) 11 (s1 lsr 24) 1 s2 14 (s0 lsr 16) 4)
      (fcol kb o (s2 lsr 16) 6 s0 12 (s3 lsr 24) 3 (s1 lsr 8) 9)
      (fcol kb o s1 13 (s3 lsr 16) 7 (s0 lsr 8) 8 (s2 lsr 24) 2)

(* Whitening on row words, then the first forward unit, which gathers
   from the row layout into columns. *)
let run sc sch ~p_hi ~p_lo =
  let kb = sch.kb and wr = sch.wr in
  let s0 = Int64.to_int (Int64.shift_right_logical p_hi 32) lxor get wr 0
  and s1 = Int64.to_int p_hi land 0xffff_ffff lxor get wr 1
  and s2 = Int64.to_int (Int64.shift_right_logical p_lo 32) lxor get wr 2
  and s3 = Int64.to_int p_lo land 0xffff_ffff lxor get wr 3 in
  fwd sc sch kb 16 (16 * sch.nr)
    (fcol kb 0 (s0 lsr 24) 0 (s2 lsr 8) 10 (s1 lsr 16) 5 s3 15)
    (fcol kb 0 s2 11 (s0 lsr 16) 1 (s3 lsr 8) 14 (s1 lsr 24) 4)
    (fcol kb 0 (s1 lsr 8) 6 (s3 lsr 24) 12 s0 3 (s2 lsr 16) 9)
    (fcol kb 0 (s3 lsr 16) 13 s1 7 (s2 lsr 24) 8 (s0 lsr 8) 2)

let encrypt_scheduled = run

let encrypt_raw sc key ~t_hi ~t_lo ~p_hi ~p_lo =
  fill sc.own key key.enc ~t_hi ~t_lo;
  run sc sc.own ~p_hi ~p_lo

let encrypt_retweaked sc ~cell v ~p_hi ~p_lo =
  retweak sc.own ~cell v;
  run sc sc.own ~p_hi ~p_lo

let out_hi sc = Int64.logor (Int64.shift_left (Int64.of_int sc.r0) 32) (Int64.of_int sc.r1)
let out_lo sc = Int64.logor (Int64.shift_left (Int64.of_int sc.r2) 32) (Int64.of_int sc.r3)

let cipher_with h sc key ~tweak b =
  fill sc.own key (h key) ~t_hi:tweak.Block128.hi ~t_lo:tweak.Block128.lo;
  run sc sc.own ~p_hi:b.Block128.hi ~p_lo:b.Block128.lo;
  Block128.make ~hi:(out_hi sc) ~lo:(out_lo sc)

let encrypt_with sc key ~tweak p = cipher_with (fun k -> k.enc) sc key ~tweak p
let decrypt_with sc key ~tweak c = cipher_with (fun k -> k.dec) sc key ~tweak c
