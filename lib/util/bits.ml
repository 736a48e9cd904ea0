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
let to_hex w = Printf.sprintf "%016Lx" w
let pp_hex fmt w = Format.fprintf fmt "0x%s" (to_hex w)
