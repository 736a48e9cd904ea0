(* QARMA-128 reflector cipher, table-driven. See the .mli for the
   construction and DESIGN.md for why tables rather than bit-slicing.

   The state is four 32-bit column words: column [c] packs cells c, 4+c,
   8+c and 12+c (rows 0..3) from the top byte down, cell index 4*row+col.
   The cipher's steps regroup into units that each gather 16 bytes
   through a cell permutation and rebuild four columns from lookups:

   - forward unit: one lookup per byte in [ms] = M o S, xored with the
     unit's four key words (the gather through [tau] does the cell
     shuffle). M is linear over GF(2), so M(tau(S(x) xor k)) =
     M(tau(S(x))) xor M(tau(k)), and the schedule keeps M(tau(k)) as
     column words;
   - backward unit: xor the key words into the state, then gather
     through [tau_inv] with one lookup in [msinv] = M o S^-1. The key
     xor moves ahead of the gather, so its words hold k permuted back
     through tau.

   Both kinds of unit build column c's key word from the key cells
   tau(c), tau(4+c), tau(8+c), tau(12+c); a forward word is M of the
   backward one. Encryption is: whitening, [r] forward units (the last
   one is the centre's M), [r - 1] backward units (the first one carries
   the reflector key), and a final S^-1 gather with the output
   whitening. Decryption is the same program under k0a/k0 swapped and
   w0/w1 swapped; only the centre's constants differ. A [schedule] holds
   every unit's key words for one (key, tweak), so a fixed tweak is
   scheduled once. The pure cell-array cipher lives in
   test/crypto/qarma_ref.ml as the differential oracle. *)

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

(* Column tables of whole units: [ms.(256 j + x)] = mcol of S(x) in row
   j, [msinv] the same through S^-1. *)
let through box = Array.init 1024 (fun i -> mcol.((i land 0x300) lor box.(i land 0xff)))
let ms = through sbox
let msinv = through sbox_inv

(* M applied to column word [w]. *)
let[@inline] mword w =
  get mcol (w lsr 24)
  lxor get mcol (256 + ((w lsr 16) land 0xff))
  lxor get mcol (512 + ((w lsr 8) land 0xff))
  lxor get mcol (768 + (w land 0xff))

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

(* Unit word [c] of the 16 cells at [a.(b)..]: the cells tau(c),
   tau(4+c), tau(8+c), tau(12+c) from the top byte down. A backward unit
   xors it into the state before its gather; [mword] of it is a forward
   unit's. *)
let[@inline] gather a b c0 c1 c2 c3 =
  (get a (b + c0) lsl 24) lor (get a (b + c1) lsl 16) lor (get a (b + c2) lsl 8)
  lor get a (b + c3)

(* One direction's key part of a schedule. [hk] holds every unit's key
   words without the tweak, 4 per unit in schedule order (below), and
   [hw] the input and output whitening's as row words. The last tweak t_r
   joins the centre forward unit when [tweak_in_centre_f] and the centre
   backward unit otherwise. *)
type half = { hk : int array; hw : int array; tweak_in_centre_f : bool }

type key = { rounds : int; w0 : Block128.t; k0 : Block128.t; enc : half; dec : half }

let default_rounds = 8

(* [fk] and [bk] are 16 cells per round (k xor rc_i); a forward unit
   xors [fk], a backward unit [bk]. The centre forward unit's key is
   [centre_f], the first backward unit's [centre_b] (already in
   post-tau^-1 order). *)
let half ~rounds:r ~fk ~bk ~w_in ~w_out ~centre_f ~centre_b ~tweak_in_centre_f =
  let hk = Array.make (8 * r) 0 in
  let words o a b f =
    set hk o (f (gather a b 0 10 5 15));
    set hk (o + 1) (f (gather a b 11 1 14 4));
    set hk (o + 2) (f (gather a b 6 12 3 9));
    set hk (o + 3) (f (gather a b 13 7 8 2))
  in
  (* Round i's forward key goes to unit i - 1, its backward key to unit
     2r - i. *)
  for i = 1 to r - 1 do
    words (4 * (i - 1)) fk (16 * i) mword;
    words (4 * ((2 * r) - i)) bk (16 * i) Fun.id
  done;
  words (4 * (r - 1)) centre_f 0 mword;
  words (4 * r) centre_b 0 Fun.id;
  let row a j = gather a (4 * j) 0 1 2 3 in
  let hw =
    Array.init 8 (fun j ->
        if j < 4 then row w_in j lxor row fk j else row w_out (j - 4) lxor row bk (j - 4))
  in
  { hk; hw; tweak_in_centre_f }

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
      half ~rounds ~fk:(round_keys k0c) ~bk:(round_keys k0ac) ~w_in:w0c ~w_out:w1c
        ~centre_f:w1c ~centre_b:(after_tau_inv (mix k0c)) ~tweak_in_centre_f:true;
    (* Its inverse: tau; M; xor M(k1) = k0; tau^-1; xor (w1 ^ t_r). *)
    dec =
      half ~rounds ~fk:(round_keys k0ac) ~bk:(round_keys k0c) ~w_in:w1c ~w_out:w0c
        ~centre_f:(Array.make 16 0)
        ~centre_b:(Array.map2 ( lxor ) (after_tau_inv k0c) w1c)
        ~tweak_in_centre_f:false;
  }

let key_of_rng ?rounds rng =
  let block () =
    Block128.make ~hi:(Ptg_util.Rng.next rng) ~lo:(Ptg_util.Rng.next rng)
  in
  expand_key ?rounds ~w0:(block ()) (block ())

let rounds k = k.rounds
let key_material k = (k.w0, k.k0)

(* A schedule holds one (key, tweak)'s key words in [kw], 4 per unit:
   the r forward units, then the r - 1 backward units and the final
   gather. [wr] holds the input and output whitening as row words, [tw]
   the tweak cells of the current round while filling. *)
type schedule = { mutable nr : int; kw : int array; wr : int array; tw : int array }

let make_schedule rounds =
  { nr = rounds; kw = Array.make (8 * rounds) 0; wr = Array.make 8 0; tw = Array.make 32 0 }

(* Column [c]'s word of t_i into the forward unit at [fo] and the
   backward unit at [bo], masked by [mf] and [mb] (all ones, except at
   the centre where t_r joins one side only). *)
let[@inline] pair kw hk fo bo mf mb g =
  set kw fo (get hk fo lxor (mword g land mf));
  set kw bo (get hk bo lxor (g land mb))

let[@inline] round_words kw hk fo bo mf mb tw b =
  pair kw hk fo bo mf mb (gather tw b 0 10 5 15);
  pair kw hk (fo + 1) (bo + 1) mf mb (gather tw b 11 1 14 4);
  pair kw hk (fo + 2) (bo + 2) mf mb (gather tw b 6 12 3 9);
  pair kw hk (fo + 3) (bo + 3) mf mb (gather tw b 13 7 8 2)

let fill sch key h ~t_hi ~t_lo =
  let r = key.rounds in
  sch.nr <- r;
  let kw = sch.kw and tw = sch.tw and hk = h.hk and hw = h.hw and wr = sch.wr in
  let t0 = Int64.to_int (Int64.shift_right_logical t_hi 32)
  and t1 = Int64.to_int t_hi land 0xffff_ffff
  and t2 = Int64.to_int (Int64.shift_right_logical t_lo 32)
  and t3 = Int64.to_int t_lo land 0xffff_ffff in
  for i = 0 to 3 do
    let sh = 24 - (8 * i) in
    set tw i ((t0 lsr sh) land 0xff);
    set tw (i + 4) ((t1 lsr sh) land 0xff);
    set tw (i + 8) ((t2 lsr sh) land 0xff);
    set tw (i + 12) ((t3 lsr sh) land 0xff)
  done;
  set wr 0 (get hw 0 lxor t0);
  set wr 1 (get hw 1 lxor t1);
  set wr 2 (get hw 2 lxor t2);
  set wr 3 (get hw 3 lxor t3);
  set wr 4 (get hw 4 lxor t0);
  set wr 5 (get hw 5 lxor t1);
  set wr 6 (get hw 6 lxor t2);
  set wr 7 (get hw 7 lxor t3);
  (* t_i alternates between the two halves of [tw]. *)
  for i = 1 to r - 1 do
    let src = 16 * ((i - 1) land 1) and dst = 16 * (i land 1) in
    tweak_update tw src dst;
    round_words kw hk (4 * (i - 1)) (4 * ((2 * r) - i)) (-1) (-1) tw dst
  done;
  let dst = 16 * (r land 1) in
  tweak_update tw (16 - dst) dst;
  let tf = if h.tweak_in_centre_f then -1 else 0 in
  round_words kw hk (4 * (r - 1)) (4 * r) tf (lnot tf) tw dst

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
   one, so the difference touches one word per unit: cell e sits in
   column word p land 3, row p lsr 2, for p = tau^-1(e). *)
let patch sch ~cell v =
  let r = sch.nr and kw = sch.kw and wr = sch.wr in
  let row = cell lsr 2 and d0 = v lsl (24 - (8 * (cell land 3))) in
  set wr row (get wr row lxor d0);
  set wr (4 + row) (get wr (4 + row) lxor d0);
  let c = ref cell and d = ref v in
  for i = 1 to r do
    let w = get tweak_walk !c in
    c := w land 15;
    if w >= 16 then d := get lfsr !d;
    let p = get tau_inv !c in
    let j = p lsr 2 and col = p land 3 in
    (* t_i feeds round i's forward and backward units; t_r the centre's
       forward unit. *)
    let o1 = (4 * (i - 1)) + col in
    set kw o1 (get kw o1 lxor get mcol ((256 * j) + !d));
    if i < r then begin
      let o2 = (4 * ((2 * r) - i)) + col in
      set kw o2 (get kw o2 lxor (!d lsl (24 - (8 * j))))
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

(* One output column of a unit from the source cells of rows 0..3 (in
   the low byte of [x0]..[x3]). *)
let[@inline] fcol kw o x0 x1 x2 x3 =
  get ms (x0 land 0xff)
  lxor get ms (256 + (x1 land 0xff))
  lxor get ms (512 + (x2 land 0xff))
  lxor get ms (768 + (x3 land 0xff))
  lxor get kw o

let[@inline] bcol x0 x1 x2 x3 =
  get msinv (x0 land 0xff)
  lxor get msinv (256 + (x1 land 0xff))
  lxor get msinv (512 + (x2 land 0xff))
  lxor get msinv (768 + (x3 land 0xff))

(* Final gather: output row word from cells [a]..[d] through S^-1, then
   the output whitening [w]. *)
let[@inline] fin x = get sbox_inv (x land 0xff)

let[@inline] frow w a b c d =
  ((fin a lsl 24) lor (fin b lsl 16) lor (fin c lsl 8) lor fin d) lxor w

let final sc sch s0 s1 s2 s3 =
  let wr = sch.wr in
  sc.r0 <- frow (get wr 4) (s0 lsr 24) (s1 lsr 16) s3 (s2 lsr 8);
  sc.r1 <- frow (get wr 5) s1 (s0 lsr 8) (s2 lsr 24) (s3 lsr 16);
  sc.r2 <- frow (get wr 6) (s3 lsr 8) s2 (s0 lsr 16) (s1 lsr 24);
  sc.r3 <- frow (get wr 7) (s2 lsr 16) (s3 lsr 24) (s1 lsr 8) s0

let rec bwd sc sch kw o stop s0 s1 s2 s3 =
  let s0 = s0 lxor get kw o
  and s1 = s1 lxor get kw (o + 1)
  and s2 = s2 lxor get kw (o + 2)
  and s3 = s3 lxor get kw (o + 3) in
  if o = stop then final sc sch s0 s1 s2 s3
  else
    bwd sc sch kw (o + 4) stop
      (bcol (s0 lsr 24) s1 (s3 lsr 8) (s2 lsr 16))
      (bcol (s1 lsr 16) (s0 lsr 8) s2 (s3 lsr 24))
      (bcol s3 (s2 lsr 24) (s0 lsr 16) (s1 lsr 8))
      (bcol (s2 lsr 8) (s3 lsr 16) (s1 lsr 24) s0)

let rec fwd sc sch kw o stop s0 s1 s2 s3 =
  if o = stop then bwd sc sch kw o (stop + stop - 4) s0 s1 s2 s3
  else
    fwd sc sch kw (o + 4) stop
      (fcol kw o (s0 lsr 24) (s2 lsr 8) (s1 lsr 16) s3)
      (fcol kw (o + 1) (s3 lsr 8) (s1 lsr 24) s2 (s0 lsr 16))
      (fcol kw (o + 2) (s2 lsr 16) s0 (s3 lsr 24) (s1 lsr 8))
      (fcol kw (o + 3) s1 (s3 lsr 16) (s0 lsr 8) (s2 lsr 24))

(* Whitening on row words, then the first forward unit, which gathers
   from the row layout into columns. *)
let run sc sch s0 s1 s2 s3 =
  let kw = sch.kw and wr = sch.wr in
  let s0 = s0 lxor get wr 0 and s1 = s1 lxor get wr 1 in
  let s2 = s2 lxor get wr 2 and s3 = s3 lxor get wr 3 in
  fwd sc sch kw 4 (4 * sch.nr)
    (fcol kw 0 (s0 lsr 24) (s2 lsr 8) (s1 lsr 16) s3)
    (fcol kw 1 s2 (s0 lsr 16) (s3 lsr 8) (s1 lsr 24))
    (fcol kw 2 (s1 lsr 8) (s3 lsr 24) s0 (s2 lsr 16))
    (fcol kw 3 (s3 lsr 16) s1 (s2 lsr 24) (s0 lsr 8))

(* Plaintext halves into row words at the call site, so a caller's
   unboxed int64s stay unboxed. *)
let[@inline] encrypt_scheduled sc sch ~p_hi ~p_lo =
  run sc sch
    (Int64.to_int (Int64.shift_right_logical p_hi 32))
    (Int64.to_int p_hi land 0xffff_ffff)
    (Int64.to_int (Int64.shift_right_logical p_lo 32))
    (Int64.to_int p_lo land 0xffff_ffff)

let tweak sc key ~t_hi ~t_lo = fill sc.own key key.enc ~t_hi ~t_lo
let retweak sc ~cell v = patch sc.own ~cell v
let[@inline] encrypt sc ~p_hi ~p_lo = encrypt_scheduled sc sc.own ~p_hi ~p_lo

let encrypt_raw sc key ~t_hi ~t_lo ~p_hi ~p_lo =
  tweak sc key ~t_hi ~t_lo;
  encrypt sc ~p_hi ~p_lo

let encrypt_retweaked sc ~cell v ~p_hi ~p_lo =
  retweak sc ~cell v;
  encrypt sc ~p_hi ~p_lo

let[@inline] out_hi sc =
  Int64.logor (Int64.shift_left (Int64.of_int sc.r0) 32) (Int64.of_int sc.r1)

let[@inline] out_lo sc =
  Int64.logor (Int64.shift_left (Int64.of_int sc.r2) 32) (Int64.of_int sc.r3)

let cipher_with h sc key ~tweak b =
  fill sc.own key (h key) ~t_hi:tweak.Block128.hi ~t_lo:tweak.Block128.lo;
  encrypt_scheduled sc sc.own ~p_hi:b.Block128.hi ~p_lo:b.Block128.lo;
  Block128.make ~hi:(out_hi sc) ~lo:(out_lo sc)

let encrypt_with sc key ~tweak p = cipher_with (fun k -> k.enc) sc key ~tweak p
let decrypt_with sc key ~tweak c = cipher_with (fun k -> k.dec) sc key ~tweak c
