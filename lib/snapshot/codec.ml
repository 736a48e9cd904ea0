(* Little binary codec shared by every snapshot section: unsigned LEB128
   varints for lengths and counters, zigzag varints for signed ints,
   fixed 8-byte little-endian words for int64 payloads (addresses, RNG
   words, float bits). The framing and error style deliberately mirror
   [Mem_trace]'s trace format so corrupt inputs fail the same way
   everywhere: [Invalid_argument] naming the input and byte offset. *)

(* A growable byte array rather than a [Buffer.t], so a finished
   writer can be hashed and written out where its bytes lie. *)
type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(size = 4096) () = { buf = Bytes.create (max size 16); len = 0 }
let reset w = w.len <- 0
let contents w = Bytes.sub_string w.buf 0 w.len
let output oc w = Out_channel.output oc w.buf 0 w.len

(* Make room for [n] more bytes, doubling. *)
let room w n =
  if w.len + n > Bytes.length w.buf then begin
    let cap = ref (2 * Bytes.length w.buf) in
    while w.len + n > !cap do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let put_varint w n =
  if n < 0 then invalid_arg "Snapshot: negative varint";
  (* A non-negative 63-bit int takes at most 9 groups of 7 bits. *)
  room w 9;
  let buf = w.buf and n = ref n and pos = ref w.len in
  while !n >= 0x80 do
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7;
    incr pos
  done;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr !n);
  w.len <- !pos + 1

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (- (n land 1))

let put_int w n = put_varint w (zigzag n)

let put_bool w v =
  room w 1;
  Bytes.unsafe_set w.buf w.len (if v then '\001' else '\000');
  w.len <- w.len + 1

let put_i64 w (v : int64) =
  room w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let put_float w f = put_i64 w (Int64.bits_of_float f)

let put_raw w s =
  let n = String.length s in
  room w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let put_string w s =
  put_varint w (String.length s);
  put_raw w s

let put_list b put xs =
  put_varint b (List.length xs);
  List.iter (put b) xs

let put_array b put xs =
  put_varint b (Array.length xs);
  Array.iter (put b) xs

let put_option b put = function
  | None -> put_bool b false
  | Some v ->
      put_bool b true;
      put b v

type reader = { what : string; src : string; mutable pos : int }

let reader ~what src = { what; src; pos = 0 }

let truncated r =
  invalid_arg
    (Printf.sprintf "Snapshot.load: %s: truncated at byte %d" r.what r.pos)

let corrupt r msg =
  invalid_arg
    (Printf.sprintf "Snapshot.load: %s: %s at byte %d" r.what msg r.pos)

let get_u8 r =
  if r.pos >= String.length r.src then truncated r;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_varint r =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 62 then corrupt r "varint overflow";
    let byte = get_u8 r in
    n := !n lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := byte land 0x80 <> 0
  done;
  !n

let get_int r = unzigzag (get_varint r)

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt r (Printf.sprintf "bad boolean byte %d" n)

let get_i64 r =
  if r.pos + 8 > String.length r.src then truncated r;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let get_float r = Int64.float_of_bits (get_i64 r)

let get_raw r len =
  if len < 0 || len > String.length r.src - r.pos then truncated r;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let get_string r = get_raw r (get_varint r)

(* Every element takes at least one byte, so a count beyond the bytes
   left is corrupt: rejecting it up front keeps a damaged count from
   sizing an allocation. *)
let get_count r =
  let n = get_varint r in
  if n < 0 || n > String.length r.src - r.pos then truncated r;
  n

let get_list r get = List.init (get_count r) (fun _ -> get r)
let get_array r get = Array.init (get_count r) (fun _ -> get r)

let get_option r get = if get_bool r then Some (get r) else None

let expect_end r =
  if r.pos <> String.length r.src then
    corrupt r
      (Printf.sprintf "%d trailing bytes" (String.length r.src - r.pos))

(* FNV-1a 64 — the content hash of a snapshot's section region, of
   scenario cache keys and of ring positions. An index loop keeps the
   accumulator an unboxed [int64]; a closure over a ref (as with
   [String.iter]) would box one per byte. *)
let fnv1a64_bytes b pos len =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let fnv1a64 ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Codec.fnv1a64: range outside the string";
  fnv1a64_bytes (Bytes.unsafe_of_string s) pos len

let hash w ~from =
  if from < 0 || from > w.len then invalid_arg "Codec.hash: from";
  fnv1a64_bytes w.buf from (w.len - from)
