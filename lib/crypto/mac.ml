type t = { hi32 : int64; lo : int64 }

let zero = { hi32 = 0L; lo = 0L }
let equal a b = Int64.equal a.hi32 b.hi32 && Int64.equal a.lo b.lo
let is_well_formed m = Int64.logand m.hi32 0xFFFFFFFF00000000L = 0L

let hamming a b =
  Ptg_util.Bits.hamming a.hi32 b.hi32 + Ptg_util.Bits.hamming a.lo b.lo

let soft_match ~k a b =
  if k < 0 then invalid_arg "Mac.soft_match: negative k";
  hamming a b <= k

type ctx = Qarma.scratch

let ctx = Qarma.scratch

(* Chunk i enciphers C_i xor A_i under tweak A_i = { hi = i; lo = addr },
   which binds the MAC to both the line's physical address and the
   chunk's position within the line. A_0 is expanded once; A_i differs
   from A_(i-1) only in tweak cell 7 (the low byte of [hi]). The halves
   flow through bare int64s. *)
let compute_with ctx key ~addr line =
  if Array.length line <> 8 then invalid_arg "Mac.compute: line must be 8 words";
  let acc_hi = ref 0L and acc_lo = ref 0L in
  for i = 0 to 3 do
    let a_hi = Int64.of_int i in
    let p_hi = Int64.logxor line.((2 * i) + 1) a_hi
    and p_lo = Int64.logxor line.(2 * i) addr in
    if i = 0 then Qarma.encrypt_raw ctx key ~t_hi:a_hi ~t_lo:addr ~p_hi ~p_lo
    else Qarma.encrypt_retweaked ctx ~cell:7 (i lxor (i - 1)) ~p_hi ~p_lo;
    acc_hi := Int64.logxor !acc_hi (Qarma.out_hi ctx);
    acc_lo := Int64.logxor !acc_lo (Qarma.out_lo ctx)
  done;
  { hi32 = Int64.logand !acc_hi 0xFFFFFFFFL; lo = !acc_lo }

(* A fresh scratch per call: [compute] is reached from pool workers
   (every rekey's [compute_zero]) and from any thread, so it must never
   share one. The hot paths keep their own [ctx]. *)
let compute key ~addr line = compute_with (ctx ()) key ~addr line

let compute_zero key = compute key ~addr:0L (Array.make 8 0L)

let truncate ~width m =
  if width < 1 || width > 96 then invalid_arg "Mac.truncate: width";
  if width >= 96 then m
  else if width > 64 then
    { m with hi32 = Int64.logand m.hi32 (Ptg_util.Bits.mask (width - 64)) }
  else { hi32 = 0L; lo = Int64.logand m.lo (Ptg_util.Bits.mask width) }

let split12 m =
  Array.init 8 (fun i ->
      let lo_bit = i * 12 in
      let piece =
        if lo_bit + 12 <= 64 then
          Ptg_util.Bits.extract m.lo ~lo:lo_bit ~hi:(lo_bit + 11)
        else if lo_bit >= 64 then
          Ptg_util.Bits.extract m.hi32 ~lo:(lo_bit - 64) ~hi:(lo_bit - 64 + 11)
        else begin
          (* Slice straddling the 64-bit boundary (slice 5: bits 60..71). *)
          let low_part = Ptg_util.Bits.extract m.lo ~lo:lo_bit ~hi:63 in
          let nlow = 64 - lo_bit in
          let high_part = Ptg_util.Bits.extract m.hi32 ~lo:0 ~hi:(11 - nlow) in
          Int64.logor low_part (Int64.shift_left high_part nlow)
        end
      in
      Int64.to_int piece)

let join12 pieces =
  if Array.length pieces <> 8 then invalid_arg "Mac.join12: need 8 pieces";
  let lo = ref 0L and hi32 = ref 0L in
  Array.iteri
    (fun i p ->
      if p < 0 || p > 0xfff then invalid_arg "Mac.join12: piece out of range";
      let v = Int64.of_int p in
      let lo_bit = i * 12 in
      if lo_bit + 12 <= 64 then lo := Int64.logor !lo (Int64.shift_left v lo_bit)
      else if lo_bit >= 64 then
        hi32 := Int64.logor !hi32 (Int64.shift_left v (lo_bit - 64))
      else begin
        let nlow = 64 - lo_bit in
        lo := Int64.logor !lo (Int64.shift_left v lo_bit);
        hi32 := Int64.logor !hi32 (Int64.shift_right_logical v nlow)
      end)
    pieces;
  { hi32 = Int64.logand !hi32 0xFFFFFFFFL; lo = !lo }

(* Slice i covers MAC bits 12i..12i+11; slice 5 straddles [lo] and
   [hi32]. Both directions work on bare int64s, so the layouts' per-line
   loops allocate nothing but their output. *)
let piece12 m i =
  let b = 12 * i in
  let v =
    if b + 12 <= 64 then Int64.shift_right_logical m.lo b
    else if b >= 64 then Int64.shift_right_logical m.hi32 (b - 64)
    else Int64.logor (Int64.shift_right_logical m.lo b) (Int64.shift_left m.hi32 (64 - b))
  in
  Int64.to_int v land 0xfff

let gather12 piece (line : int64 array) =
  let lo = ref 0L and hi = ref 0L in
  for i = 0 to 7 do
    let p = Int64.of_int (piece line.(i) land 0xfff) and b = 12 * i in
    if b < 64 then lo := Int64.logor !lo (Int64.shift_left p b);
    if b + 12 > 64 then
      hi :=
        Int64.logor !hi
          (if b >= 64 then Int64.shift_left p (b - 64) else Int64.shift_right_logical p (64 - b))
  done;
  { hi32 = !hi; lo = !lo }

let flip_bit m i =
  if i < 0 || i > 95 then invalid_arg "Mac.flip_bit: bit index";
  if i < 64 then { m with lo = Ptg_util.Bits.flip m.lo i }
  else { m with hi32 = Ptg_util.Bits.flip m.hi32 (i - 64) }

let pp fmt m = Format.fprintf fmt "0x%08Lx%s" m.hi32 (Ptg_util.Bits.to_hex m.lo)
