type t = bytes

let words = 8
let size_bytes = 64
let[@inline] get line i = Bytes.get_int64_le line (8 * i)
let[@inline] set line i w = Bytes.set_int64_le line (8 * i) w

external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] unsafe_get line i =
  let w = unsafe_get64 line (8 * i) in
  if Sys.big_endian then swap64 w else w

let[@inline] unsafe_set line i w = unsafe_set64 line (8 * i) (if Sys.big_endian then swap64 w else w)

let[@inline] check fn line =
  if Bytes.length line <> size_bytes then invalid_arg (fn ^ ": line must be 64 bytes")
let create () = Bytes.make size_bytes '\000'
let copy = Bytes.copy

let equal a b = Bytes.length a = size_bytes && Bytes.equal a b

let of_words a =
  if Array.length a <> words then invalid_arg "Line.of_words: need 8 words";
  let line = Bytes.create size_bytes in
  Array.iteri (set line) a;
  line

let to_words line = Array.init words (get line)

let init f =
  let line = Bytes.create size_bytes in
  for i = 0 to words - 1 do
    unsafe_set line i (f i)
  done;
  line

let map f line =
  check "Line.map" line;
  init (fun i -> f (unsafe_get line i))

let keep mask line =
  check "Line.keep" line;
  let out = Bytes.create size_bytes in
  for i = 0 to words - 1 do
    unsafe_set out i (Int64.logand (unsafe_get line i) mask)
  done;
  out

let zero_under mask line =
  check "Line.zero_under" line;
  let ok = ref true and i = ref 0 in
  while !ok && !i < words do
    ok := Int64.equal (Int64.logand (unsafe_get line !i) mask) 0L;
    incr i
  done;
  !ok

let is_zero a = zero_under (-1L) a

let hamming a b =
  let acc = ref 0 in
  for i = 0 to words - 1 do
    acc := !acc + Ptg_util.Bits.hamming (get a i) (get b i)
  done;
  !acc

let check_bit fn i = if i < 0 || i > 511 then invalid_arg ("Line." ^ fn ^ ": bit index")

let flip_unchecked line i = set line (i / 64) (Ptg_util.Bits.flip (get line (i / 64)) (i mod 64))

let flip_bit line i =
  check_bit "flip_bit" i;
  let out = Bytes.copy line in
  flip_unchecked out i;
  out

let flip_bit_in_place line i =
  check_bit "flip_bit" i;
  flip_unchecked line i

let get_bit line i =
  check_bit "get_bit" i;
  Ptg_util.Bits.get (get line (i / 64)) (i mod 64)

let set_bit line i b =
  check_bit "set_bit" i;
  let out = Bytes.copy line in
  set out (i / 64) (Ptg_util.Bits.assign (get out (i / 64)) (i mod 64) b);
  out

let exists p line =
  check "Line.exists" line;
  let rec go i = i < words && (p (unsafe_get line i) || go (i + 1)) in
  go 0

let line_addr a = Int64.logand a (Int64.lognot 63L)

let pp fmt line =
  Format.fprintf fmt "@[<v>";
  for i = 0 to words - 1 do
    Format.fprintf fmt "[%d] %a@," i Ptg_util.Bits.pp_hex (get line i)
  done;
  Format.fprintf fmt "@]"
