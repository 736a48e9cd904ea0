let bit i =
  if i < 0 || i > 63 then invalid_arg "Bits.bit";
  Int64.shift_left 1L i

let get w i = Int64.logand (Int64.shift_right_logical w i) 1L = 1L
let set w i = Int64.logor w (bit i)
let clear w i = Int64.logand w (Int64.lognot (bit i))
let flip w i = Int64.logxor w (bit i)
let assign w i b = if b then set w i else clear w i

let mask n =
  if n < 0 || n > 64 then invalid_arg "Bits.mask";
  if n = 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L

let field_mask ~lo ~hi =
  if lo < 0 || hi > 63 || lo > hi then invalid_arg "Bits.field_mask";
  Int64.shift_left (mask (hi - lo + 1)) lo

let extract w ~lo ~hi =
  Int64.logand (Int64.shift_right_logical w lo) (mask (hi - lo + 1))

let insert w ~lo ~hi v =
  let m = field_mask ~lo ~hi in
  Int64.logor
    (Int64.logand w (Int64.lognot m))
    (Int64.logand (Int64.shift_left v lo) m)

let[@inline] popcount w =
  (* SWAR popcount: classic bit-twiddling, avoids a 64-iteration loop. *)
  let open Int64 in
  let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    add
      (logand w 0x3333333333333333L)
      (logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul w 0x0101010101010101L) 56)

let hamming a b = popcount (Int64.logxor a b)
let parity w = popcount w land 1 = 1

let rotl w n =
  let n = n land 63 in
  if n = 0 then w
  else Int64.logor (Int64.shift_left w n) (Int64.shift_right_logical w (64 - n))

let rotr w n = rotl w (64 - (n land 63))

let rotl8 x n =
  let n = n land 7 in
  let x = x land 0xff in
  if n = 0 then x else ((x lsl n) lor (x lsr (8 - n))) land 0xff

let bytes_of_int64_le w =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 w;
  b

let int64_of_bytes_le b ~off = Bytes.get_int64_le b off
(* Two lowercase hex digits per byte value, at [2 x]. *)
let hex_pairs =
  String.init 512 (fun i ->
      "0123456789abcdef".[if i land 1 = 0 then i lsr 5 else (i lsr 1) land 0xf])

let to_hex w =
  let b = Bytes.create 16 in
  for i = 0 to 7 do
    let x = 2 * (Int64.to_int (Int64.shift_right_logical w (56 - (8 * i))) land 0xff) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_pairs x);
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_pairs (x + 1))
  done;
  Bytes.unsafe_to_string b

let pp_hex fmt w = Format.fprintf fmt "0x%s" (to_hex w)
let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let r = ref 0 in
  while 1 lsl !r < n do incr r done;
  !r
