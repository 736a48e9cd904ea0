type t = int64 array

let words = 8
let size_bytes = 64
let create () = Array.make words 0L
let copy = Array.copy

let equal a b =
  Array.length a = words && Array.length b = words
  && begin
       let ok = ref true in
       for i = 0 to words - 1 do
         if not (Int64.equal a.(i) b.(i)) then ok := false
       done;
       !ok
     end

let of_words a =
  if Array.length a <> words then invalid_arg "Line.of_words: need 8 words";
  Array.copy a

let map = Array.map

let keep mask line =
  let out = Array.make (Array.length line) 0L in
  for i = 0 to Array.length line - 1 do
    out.(i) <- Int64.logand line.(i) mask
  done;
  out

let zero_under mask line =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length line do
    ok := Int64.equal (Int64.logand line.(!i) mask) 0L;
    incr i
  done;
  !ok

let is_zero a = zero_under (-1L) a

let hamming a b =
  let acc = ref 0 in
  for i = 0 to words - 1 do
    acc := !acc + Ptg_util.Bits.hamming a.(i) b.(i)
  done;
  !acc

let flip_bit line i =
  if i < 0 || i > 511 then invalid_arg "Line.flip_bit: bit index";
  let out = Array.copy line in
  out.(i / 64) <- Ptg_util.Bits.flip out.(i / 64) (i mod 64);
  out

let get_bit line i =
  if i < 0 || i > 511 then invalid_arg "Line.get_bit: bit index";
  Ptg_util.Bits.get line.(i / 64) (i mod 64)

let set_bit line i b =
  if i < 0 || i > 511 then invalid_arg "Line.set_bit: bit index";
  let out = Array.copy line in
  out.(i / 64) <- Ptg_util.Bits.assign out.(i / 64) (i mod 64) b;
  out

let line_addr a = Int64.logand a (Int64.lognot 63L)

let pp fmt line =
  Format.fprintf fmt "@[<v>";
  Array.iteri (fun i w -> Format.fprintf fmt "[%d] %a@," i Ptg_util.Bits.pp_hex w) line;
  Format.fprintf fmt "@]"
