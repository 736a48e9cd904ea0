type t = { hi : int64; lo : int64 }

let zero = { hi = 0L; lo = 0L }
let make ~hi ~lo = { hi; lo }
let logxor a b = { hi = Int64.logxor a.hi b.hi; lo = Int64.logxor a.lo b.lo }
let logand a b = { hi = Int64.logand a.hi b.hi; lo = Int64.logand a.lo b.lo }
let lognot a = { hi = Int64.lognot a.hi; lo = Int64.lognot a.lo }
let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let compare a b =
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let of_int64 lo = { hi = 0L; lo }

let popcount a = Ptg_util.Bits.popcount a.hi + Ptg_util.Bits.popcount a.lo
let hamming a b = popcount (logxor a b)

let rotr1 a =
  let lo_bit0 = Int64.logand a.lo 1L in
  let hi_bit0 = Int64.logand a.hi 1L in
  {
    hi = Int64.logor (Int64.shift_right_logical a.hi 1) (Int64.shift_left lo_bit0 63);
    lo = Int64.logor (Int64.shift_right_logical a.lo 1) (Int64.shift_left hi_bit0 63);
  }

let shift_right_127 a = { hi = 0L; lo = Int64.shift_right_logical a.hi 63 }

let to_cells a =
  Array.init 16 (fun i ->
      let half, idx = if i < 8 then (a.hi, i) else (a.lo, i - 8) in
      Int64.to_int (Int64.logand (Int64.shift_right_logical half ((7 - idx) * 8)) 0xffL))

let of_cells cells =
  if Array.length cells <> 16 then invalid_arg "Block128.of_cells: length";
  let pack off =
    let acc = ref 0L in
    for i = 0 to 7 do
      let c = cells.(off + i) in
      if c < 0 || c > 0xff then invalid_arg "Block128.of_cells: cell range";
      acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int c)
    done;
    !acc
  in
  { hi = pack 0; lo = pack 8 }

let to_hex a = Ptg_util.Bits.to_hex a.hi ^ Ptg_util.Bits.to_hex a.lo
let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
