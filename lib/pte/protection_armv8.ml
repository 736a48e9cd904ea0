open Ptg_util

type config = { phys_addr_bits : int }

let make ~phys_addr_bits =
  if phys_addr_bits < 32 || phys_addr_bits > 40 then
    invalid_arg "Protection_armv8.make: phys_addr_bits must be in [32, 40]";
  { phys_addr_bits }

let default = make ~phys_addr_bits:40

(* The scattered 12-bit MAC slice: unused PFN bits 49:40 (PFN[37:28]) and
   9:8 (PFN[39:38]). *)
let mac_high_mask = Bits.field_mask ~lo:40 ~hi:49
let mac_low_mask = Bits.field_mask ~lo:8 ~hi:9
let mac_field_mask = Int64.logor mac_high_mask mac_low_mask
let identifier_field_mask = Bits.field_mask ~lo:55 ~hi:58

(* PFN bits a machine with M physical-address bits actually uses all live
   in the 49:12 range once M <= 40 (PFN[37:0]); bits beyond M-12 are
   zero. *)
let unused_low_pfn_mask cfg =
  if cfg.phys_addr_bits >= 40 then 0L
  else Bits.field_mask ~lo:cfg.phys_addr_bits ~hi:39

let protected_mask cfg =
  (* valid, block, attrs 5:2, AP 7:6; caching 11; used PFN (M-1):12;
     dirty 51, contiguous 52, XN 54:53; hardware attributes 62:59.
     Excluded: AF (bit 10), the MAC/identifier fields, reserved 50/63. *)
  let low = Bits.field_mask ~lo:0 ~hi:7 in
  let caching = Bits.bit 11 in
  let pfn = Bits.field_mask ~lo:12 ~hi:(cfg.phys_addr_bits - 1) in
  let high = Bits.field_mask ~lo:51 ~hi:54 in
  let hw = Bits.field_mask ~lo:59 ~hi:62 in
  List.fold_left Int64.logor 0L [ low; caching; pfn; high; hw ]

let protected_bits_per_pte cfg = Bits.popcount (protected_mask cfg)

let basic_pattern_mask cfg = Int64.logor mac_field_mask (unused_low_pfn_mask cfg)

let matches_basic_pattern cfg =
  let mask = basic_pattern_mask cfg in
  fun line -> Line.zero_under mask line

let matches_extended_pattern cfg =
  let mask = Int64.logor (basic_pattern_mask cfg) identifier_field_mask in
  fun line -> Line.zero_under mask line

(* A 12-bit MAC piece goes high-10 into bits 49:40 and low-2 into 9:8.
   Like the x86 helpers, these loops allocate at most their output. *)
let[@inline] embed_piece w piece =
  let piece = Int64.of_int piece in
  Int64.logor
    (Int64.logand w (Int64.lognot mac_field_mask))
    (Int64.logor
       (Int64.shift_left (Int64.shift_right_logical piece 2) 40)
       (Int64.shift_left (Int64.logand piece 3L) 8))

let extract_piece w =
  let w = w lsr 8 in
  ((w lsr 32) lsl 2) lor (w land 3)

let embed_mac line mac =
  Line.check "Protection_armv8.embed_mac" line;
  let out = Line.create () in
  for i = 0 to Line.words - 1 do
    Line.unsafe_set out i (embed_piece (Line.unsafe_get line i) (Ptg_crypto.Mac.piece12 mac i))
  done;
  out

let extract_mac line = Ptg_crypto.Mac.gather12 extract_piece line
let strip_mac line = Line.keep (Int64.lognot mac_field_mask) line

let masked_for_mac cfg =
  let mask = protected_mask cfg in
  fun line -> Line.keep mask line

let embed_identifier line ident =
  if Int64.logand ident (Int64.lognot (Bits.mask 32)) <> 0L then
    invalid_arg "Protection_armv8.embed_identifier: identifier wider than 32 bits";
  Line.check "Protection_armv8.embed_identifier" line;
  let out = Line.create () in
  for i = 0 to Line.words - 1 do
    let piece = Int64.logand (Int64.shift_right_logical ident (4 * i)) 0xfL in
    Line.unsafe_set out i
      (Int64.logor
         (Int64.logand (Line.unsafe_get line i) (Int64.lognot identifier_field_mask))
         (Int64.shift_left piece 55))
  done;
  out

let extract_identifier line =
  Line.check "Protection_armv8.extract_identifier" line;
  let acc = ref 0L in
  for i = 0 to Line.words - 1 do
    let piece = Int64.logand (Int64.shift_right_logical (Line.unsafe_get line i) 55) 0xfL in
    acc := Int64.logor !acc (Int64.shift_left piece (4 * i))
  done;
  !acc

let strip_identifier line = Line.keep (Int64.lognot identifier_field_mask) line
