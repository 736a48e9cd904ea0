open Ptg_util

type config = { phys_addr_bits : int }

let make ~phys_addr_bits =
  if phys_addr_bits < 32 || phys_addr_bits > 40 then
    invalid_arg "Protection.make: phys_addr_bits must be in [32, 40]";
  { phys_addr_bits }

let default = make ~phys_addr_bits:40

let mac_field_mask = Bits.field_mask ~lo:40 ~hi:51
let identifier_field_mask = Bits.field_mask ~lo:52 ~hi:58

let unused_pfn_mask cfg =
  if cfg.phys_addr_bits >= 40 then 0L
  else Bits.field_mask ~lo:cfg.phys_addr_bits ~hi:39

let protected_mask cfg =
  let flags = Int64.logand (Bits.field_mask ~lo:0 ~hi:8) (Int64.lognot (Bits.bit 5)) in
  let programmable = Bits.field_mask ~lo:9 ~hi:11 in
  let pfn = Bits.field_mask ~lo:12 ~hi:(cfg.phys_addr_bits - 1) in
  let keys_nx = Bits.field_mask ~lo:59 ~hi:63 in
  Int64.logor flags (Int64.logor programmable (Int64.logor pfn keys_nx))

let protected_bits_per_pte cfg = Bits.popcount (protected_mask cfg)

(* The per-line helpers below are loops over the 8 words that allocate
   at most their output line; the engine runs them on every access. *)

let basic_pattern_mask cfg = Int64.logor mac_field_mask (unused_pfn_mask cfg)

let matches_basic_pattern cfg =
  let mask = basic_pattern_mask cfg in
  fun line -> Line.zero_under mask line

let matches_extended_pattern cfg =
  let mask = Int64.logor (basic_pattern_mask cfg) identifier_field_mask in
  fun line -> Line.zero_under mask line

let embed_mac line mac =
  Line.check "Protection.embed_mac" line;
  let out = Line.create () in
  for i = 0 to Line.words - 1 do
    Line.unsafe_set out i
      (Int64.logor
         (Int64.logand (Line.unsafe_get line i) (Int64.lognot mac_field_mask))
         (Int64.shift_left (Int64.of_int (Ptg_crypto.Mac.piece12 mac i)) 40))
  done;
  out

let extract_mac line =
  Ptg_crypto.Mac.gather12 (fun w -> w lsr 40) line

let strip_mac line = Line.keep (Int64.lognot mac_field_mask) line

let masked_for_mac cfg =
  let mask = protected_mask cfg in
  fun line -> Line.keep mask line

let check_identifier ident =
  if Int64.logand ident (Int64.lognot (Bits.mask 56)) <> 0L then
    invalid_arg "Protection.split7: identifier wider than 56 bits"

let split7 ident =
  check_identifier ident;
  Array.init 8 (fun i -> Int64.to_int (Bits.extract ident ~lo:(i * 7) ~hi:((i * 7) + 6)))

let join7 pieces =
  if Array.length pieces <> 8 then invalid_arg "Protection.join7: need 8 pieces";
  let acc = ref 0L in
  Array.iteri
    (fun i p ->
      if p < 0 || p > 0x7f then invalid_arg "Protection.join7: piece out of range";
      acc := Int64.logor !acc (Int64.shift_left (Int64.of_int p) (i * 7)))
    pieces;
  !acc

let embed_identifier line ident =
  check_identifier ident;
  Line.check "Protection.embed_identifier" line;
  let out = Line.create () in
  for i = 0 to Line.words - 1 do
    let piece = Int64.logand (Int64.shift_right_logical ident (7 * i)) 0x7fL in
    Line.unsafe_set out i
      (Int64.logor
         (Int64.logand (Line.unsafe_get line i) (Int64.lognot identifier_field_mask))
         (Int64.shift_left piece 52))
  done;
  out

let extract_identifier line =
  Line.check "Protection.extract_identifier" line;
  let acc = ref 0L in
  for i = 0 to Line.words - 1 do
    let piece = Int64.logand (Int64.shift_right_logical (Line.unsafe_get line i) 52) 0x7fL in
    acc := Int64.logor !acc (Int64.shift_left piece (7 * i))
  done;
  !acc

let strip_identifier line = Line.keep (Int64.lognot identifier_field_mask) line

let pfn_out_of_bounds cfg pte =
  let max_pfn = Int64.shift_left 1L (cfg.phys_addr_bits - 12) in
  Int64.unsigned_compare (X86.pfn pte) max_pfn >= 0

let pp_table_iv cfg fmt () =
  let m = cfg.phys_addr_bits in
  Format.fprintf fmt
    "@[<v>Bits      Description                Protected?@,\
     8:0       Flags                      Yes (except accessed bit)@,\
     11:9      Programmable               Yes@,\
     %d:12     PFN                        Yes@,"
    (m - 1);
  if m < 40 then Format.fprintf fmt "39:%d     Ignored (Zeros)            -@," m;
  Format.fprintf fmt
    "51:40     MAC (1/8th portion)        -@,\
     58:52     Ignored (Zeros)            -@,\
     63:59     Prot. Keys / NX Flag       Yes@,\
     (protected bits per PTE: %d)@]"
    (protected_bits_per_pte cfg)
