type t = { hi32 : int64; lo : int64 }

let zero = { hi32 = 0L; lo = 0L }
let equal a b = Int64.equal a.hi32 b.hi32 && Int64.equal a.lo b.lo
let is_well_formed m = Int64.logand m.hi32 0xFFFFFFFF00000000L = 0L

let hamming a b =
  Ptg_util.Bits.hamming a.hi32 b.hi32 + Ptg_util.Bits.hamming a.lo b.lo

let soft_match ~k a b =
  if k < 0 then invalid_arg "Mac.soft_match: negative k";
  hamming a b <= k

(* Word [i] of a 64-byte line, little-endian (see Ptg_pte.Line), for
   loops that checked the line's length first. *)
external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word line i =
  let w = unsafe_get64 line (8 * i) in
  if Sys.big_endian then swap64 w else w

let check fn line = if Bytes.length line <> 64 then invalid_arg (fn ^ ": line must be 8 words")

(* The scratch, and which chunk tweak A_i its schedule holds: that of
   chunk [chunk] at [addr] under [key], or none while [chunk] < 0. *)
type ctx = {
  sc : Qarma.scratch;
  mutable key : Qarma.key;
  mutable addr : int64;
  mutable chunk : int;
}

let no_key = Qarma.expand_key ~rounds:1 ~w0:Block128.zero Block128.zero
let ctx () = { sc = Qarma.scratch (); key = no_key; addr = 0L; chunk = -1 }

(* Point the schedule at A_i. The A_i of one (key, addr) differ only in
   tweak cell 7 (the low byte of [hi]), so moving between them patches
   one word per unit; any other tweak is expanded afresh. *)
let retune ctx key ~addr i =
  if ctx.chunk >= 0 && ctx.key == key && Int64.equal ctx.addr addr then
    Qarma.retweak ctx.sc ~cell:7 (i lxor ctx.chunk)
  else begin
    Qarma.tweak ctx.sc key ~t_hi:(Int64.of_int i) ~t_lo:addr;
    ctx.key <- key;
    ctx.addr <- addr
  end;
  ctx.chunk <- i

(* The chunk formula, the only one: chunk i of a line is the 16-byte
   block C_i = (hi = word 2i+1, lo = word 2i), enciphered as
   Q(C_i xor A_i) under tweak A_i = { hi = i; lo = addr }, which binds
   the MAC to both the line's physical address and the chunk's position
   within the line. Inlined, so the halves flow through bare int64s. *)
let[@inline] chunk ctx key ~addr i ~hi ~lo =
  if not (ctx.chunk = i && ctx.key == key && Int64.equal ctx.addr addr) then
    retune ctx key ~addr i;
  Qarma.encrypt ctx.sc ~p_hi:(Int64.logxor hi (Int64.of_int i)) ~p_lo:(Int64.logxor lo addr)

let[@inline] out_hi ctx = Qarma.out_hi ctx.sc
let[@inline] out_lo ctx = Qarma.out_lo ctx.sc

let[@inline] of_fold ~hi ~lo = { hi32 = Int64.logand hi 0xFFFFFFFFL; lo }

let compute_with ctx key ~addr line =
  check "Mac.compute" line;
  let acc_hi = ref 0L and acc_lo = ref 0L in
  for i = 0 to 3 do
    chunk ctx key ~addr i ~hi:(word line ((2 * i) + 1)) ~lo:(word line (2 * i));
    acc_hi := Int64.logxor !acc_hi (out_hi ctx);
    acc_lo := Int64.logxor !acc_lo (out_lo ctx)
  done;
  of_fold ~hi:!acc_hi ~lo:!acc_lo

(* A fresh ctx per call: [compute] is reached from pool workers
   (every rekey's [compute_zero]) and from any thread, so it must never
   share one. The hot paths keep their own [ctx]. *)
let compute key ~addr line = compute_with (ctx ()) key ~addr line

let compute_zero key = compute key ~addr:0L (Bytes.make 64 '\000')

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
let[@inline] piece12 m i =
  let b = 12 * i in
  let v =
    if b + 12 <= 64 then Int64.shift_right_logical m.lo b
    else if b >= 64 then Int64.shift_right_logical m.hi32 (b - 64)
    else Int64.logor (Int64.shift_right_logical m.lo b) (Int64.shift_left m.hi32 (64 - b))
  in
  Int64.to_int v land 0xfff

let[@inline] slice piece line i = piece (Int64.to_int (word line i)) land 0xfff

let gather12 piece line =
  check "Mac.gather12" line;
  (* Slices 0..4 fill MAC bits 0..59, an OCaml int; slice 5 straddles
     [lo] and [hi32]. *)
  let low =
    slice piece line 0
    lor (slice piece line 1 lsl 12)
    lor (slice piece line 2 lsl 24)
    lor (slice piece line 3 lsl 36)
    lor (slice piece line 4 lsl 48)
  and p5 = slice piece line 5 in
  {
    lo = Int64.logor (Int64.of_int low) (Int64.shift_left (Int64.of_int (p5 land 0xf)) 60);
    hi32 =
      Int64.of_int ((p5 lsr 4) lor (slice piece line 6 lsl 8) lor (slice piece line 7 lsl 20));
  }

let flip_bit m i =
  if i < 0 || i > 95 then invalid_arg "Mac.flip_bit: bit index";
  if i < 64 then { m with lo = Ptg_util.Bits.flip m.lo i }
  else { m with hi32 = Ptg_util.Bits.flip m.hi32 (i - 64) }

let pp fmt m = Format.fprintf fmt "0x%08Lx%s" m.hi32 (Ptg_util.Bits.to_hex m.lo)
