(* The per-line layout helpers written through the piece arrays of
   Mac.split12/join12 and Protection.split7/join7, one Bits.insert or
   Bits.extract per word. These are the oracles the allocation-free loops
   in lib/pte are checked against (test_protection*.ml). *)

open Ptg_util
open Ptg_pte
open Ptg_crypto

let zero_under mask line = Array.for_all (fun w -> Int64.logand w mask = 0L) line
let clear mask line = Array.map (fun w -> Int64.logand w (Int64.lognot mask)) line

module X86 = struct
  let basic_pattern_mask cfg =
    Int64.logor Protection.mac_field_mask (Protection.unused_pfn_mask cfg)

  let matches_basic_pattern cfg line = zero_under (basic_pattern_mask cfg) line

  let matches_extended_pattern cfg line =
    zero_under (Int64.logor (basic_pattern_mask cfg) Protection.identifier_field_mask) line

  let embed_mac line mac =
    let pieces = Mac.split12 mac in
    Array.mapi (fun i w -> Bits.insert w ~lo:40 ~hi:51 (Int64.of_int pieces.(i))) line

  let extract_mac line =
    Mac.join12 (Array.map (fun w -> Int64.to_int (Bits.extract w ~lo:40 ~hi:51)) line)

  let strip_mac line = clear Protection.mac_field_mask line

  let masked_for_mac cfg line =
    let m = Protection.protected_mask cfg in
    Array.map (fun w -> Int64.logand w m) line

  let embed_identifier line ident =
    let pieces = Protection.split7 ident in
    Array.mapi (fun i w -> Bits.insert w ~lo:52 ~hi:58 (Int64.of_int pieces.(i))) line

  let extract_identifier line =
    Protection.join7 (Array.map (fun w -> Int64.to_int (Bits.extract w ~lo:52 ~hi:58)) line)

  let strip_identifier line = clear Protection.identifier_field_mask line
end

module Armv8 = struct
  let unused_low_pfn_mask (cfg : Protection_armv8.config) =
    if cfg.phys_addr_bits >= 40 then 0L else Bits.field_mask ~lo:cfg.phys_addr_bits ~hi:39

  let basic_pattern_mask cfg =
    Int64.logor Protection_armv8.mac_field_mask (unused_low_pfn_mask cfg)

  let matches_basic_pattern cfg line = zero_under (basic_pattern_mask cfg) line

  let matches_extended_pattern cfg line =
    zero_under
      (Int64.logor (basic_pattern_mask cfg) Protection_armv8.identifier_field_mask)
      line

  let embed_piece w piece =
    let piece = Int64.of_int piece in
    let w = Bits.insert w ~lo:40 ~hi:49 (Int64.shift_right_logical piece 2) in
    Bits.insert w ~lo:8 ~hi:9 (Int64.logand piece 3L)

  let extract_piece w =
    let high = Bits.extract w ~lo:40 ~hi:49 in
    let low = Bits.extract w ~lo:8 ~hi:9 in
    Int64.to_int (Int64.logor (Int64.shift_left high 2) low)

  let embed_mac line mac =
    let pieces = Mac.split12 mac in
    Array.mapi (fun i w -> embed_piece w pieces.(i)) line

  let extract_mac line = Mac.join12 (Array.map extract_piece line)
  let strip_mac line = clear Protection_armv8.mac_field_mask line

  let masked_for_mac cfg line =
    let m = Protection_armv8.protected_mask cfg in
    Array.map (fun w -> Int64.logand w m) line

  let embed_identifier line ident =
    Array.mapi
      (fun i w ->
        Bits.insert w ~lo:55 ~hi:58 (Bits.extract ident ~lo:(i * 4) ~hi:((i * 4) + 3)))
      line

  let extract_identifier line =
    let acc = ref 0L in
    Array.iteri
      (fun i w ->
        acc := Int64.logor !acc (Int64.shift_left (Bits.extract w ~lo:55 ~hi:58) (i * 4)))
      line;
    !acc

  let strip_identifier line = clear Protection_armv8.identifier_field_mask line
end
