open Ptg_util

let check_i = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_b = Alcotest.(check bool)

let test_bit_basics () =
  check_i64 "bit 0" 1L (Bits.bit 0);
  check_i64 "bit 63" Int64.min_int (Bits.bit 63);
  check_b "get set bit" true (Bits.get (Bits.bit 17) 17);
  check_b "get clear bit" false (Bits.get (Bits.bit 17) 16);
  check_i64 "set" 0b101L (Bits.set 0b001L 2);
  check_i64 "clear" 0b001L (Bits.clear 0b101L 2);
  check_i64 "flip on" 0b101L (Bits.flip 0b001L 2);
  check_i64 "flip off" 0b001L (Bits.flip 0b101L 2);
  check_i64 "assign true" 0b101L (Bits.assign 0b001L 2 true);
  check_i64 "assign false" 0b001L (Bits.assign 0b101L 2 false)

let test_bit_bounds () =
  Alcotest.check_raises "bit -1" (Invalid_argument "Bits.bit") (fun () ->
      ignore (Bits.bit (-1)));
  Alcotest.check_raises "bit 64" (Invalid_argument "Bits.bit") (fun () ->
      ignore (Bits.bit 64))

let test_mask () =
  check_i64 "mask 0" 0L (Bits.mask 0);
  check_i64 "mask 1" 1L (Bits.mask 1);
  check_i64 "mask 12" 0xFFFL (Bits.mask 12);
  check_i64 "mask 64" (-1L) (Bits.mask 64);
  Alcotest.check_raises "mask 65" (Invalid_argument "Bits.mask") (fun () ->
      ignore (Bits.mask 65))

let test_field_mask () =
  check_i64 "field 0..3" 0xFL (Bits.field_mask ~lo:0 ~hi:3);
  check_i64 "field 40..51 (MAC slice)" 0x000F_FF00_0000_0000L
    (Bits.field_mask ~lo:40 ~hi:51);
  check_i64 "field 52..58 (identifier slice)" 0x07F0_0000_0000_0000L
    (Bits.field_mask ~lo:52 ~hi:58);
  check_i64 "single bit field" (Bits.bit 63) (Bits.field_mask ~lo:63 ~hi:63)

let test_extract_insert () =
  let w = 0x1234_5678_9ABC_DEF0L in
  check_i64 "extract low nibble" 0L (Bits.extract w ~lo:0 ~hi:3);
  check_i64 "extract byte 7" 0x12L (Bits.extract w ~lo:56 ~hi:63);
  check_i64 "insert then extract" 0x5AL
    (Bits.extract (Bits.insert w ~lo:20 ~hi:27 0x5AL) ~lo:20 ~hi:27);
  (* insertion must not disturb other bits *)
  let w' = Bits.insert w ~lo:20 ~hi:27 0x5AL in
  check_i64 "insert preserves below" (Bits.extract w ~lo:0 ~hi:19)
    (Bits.extract w' ~lo:0 ~hi:19);
  check_i64 "insert preserves above" (Bits.extract w ~lo:28 ~hi:63)
    (Bits.extract w' ~lo:28 ~hi:63);
  (* overflowing value is truncated to the field *)
  check_i64 "insert truncates" 0xFL (Bits.extract (Bits.insert 0L ~lo:4 ~hi:7 0xFFL) ~lo:4 ~hi:7)

let test_popcount () =
  check_i "popcount 0" 0 (Bits.popcount 0L);
  check_i "popcount -1" 64 (Bits.popcount (-1L));
  check_i "popcount 0xF0F0" 8 (Bits.popcount 0xF0F0L);
  check_i "popcount min_int" 1 (Bits.popcount Int64.min_int)

let test_hamming_parity () =
  check_i "hamming self" 0 (Bits.hamming 0xABCDL 0xABCDL);
  check_i "hamming 1 bit" 1 (Bits.hamming 0L 0x800000L);
  check_i "hamming all" 64 (Bits.hamming 0L (-1L));
  check_b "parity odd" true (Bits.parity 0b111L);
  check_b "parity even" false (Bits.parity 0b110L)

let test_rot () =
  check_i64 "rotl 0" 0xDEADL (Bits.rotl 0xDEADL 0);
  check_i64 "rotl 64 = id" 0xDEADL (Bits.rotl 0xDEADL 64);
  check_i64 "rotl top bit" 1L (Bits.rotl Int64.min_int 1);
  check_i64 "rotr bottom bit" Int64.min_int (Bits.rotr 1L 1);
  check_i "rotl8 basic" 0b11 (Bits.rotl8 0b10000001 1);
  check_i "rotl8 id mod 8" 0xA5 (Bits.rotl8 0xA5 8)

let test_bytes_roundtrip () =
  let w = 0x0123_4567_89AB_CDEFL in
  check_i64 "bytes roundtrip" w (Bits.int64_of_bytes_le (Bits.bytes_of_int64_le w) ~off:0)

let test_hex () =
  Alcotest.(check string) "to_hex" "00000000deadbeef" (Bits.to_hex 0xDEADBEEFL)

let test_pow2 () =
  Alcotest.(check (list bool)) "is_pow2"
    [ false; false; true; true; false; true; false ]
    (List.map Bits.is_pow2 [ -4; 0; 1; 2; 3; 4096; 4097 ]);
  Alcotest.(check (list int)) "log2 of powers of two" [ 0; 1; 6; 15; 40 ]
    (List.map (fun k -> Bits.log2 (1 lsl k)) [ 0; 1; 6; 15; 40 ])

(* Properties *)
let prop_popcount_naive =
  QCheck2.Test.make ~name:"popcount matches naive loop" ~count:500
    QCheck2.Gen.int64 (fun w ->
      let naive = ref 0 in
      for i = 0 to 63 do
        if Bits.get w i then incr naive
      done;
      Bits.popcount w = !naive)

let prop_rot_inverse =
  QCheck2.Test.make ~name:"rotr undoes rotl" ~count:500
    QCheck2.Gen.(pair int64 (int_bound 200))
    (fun (w, n) -> Int64.equal (Bits.rotr (Bits.rotl w n) n) w)

let prop_insert_extract =
  QCheck2.Test.make ~name:"extract of insert returns value" ~count:500
    QCheck2.Gen.(triple int64 (int_bound 63) (int_bound 63))
    (fun (w, a, b) ->
      let lo = min a b and hi = max a b in
      let v = Int64.logand w (Bits.mask (hi - lo + 1)) in
      Int64.equal (Bits.extract (Bits.insert 0L ~lo ~hi v) ~lo ~hi) v)

let prop_flip_involution =
  QCheck2.Test.make ~name:"flip is an involution" ~count:500
    QCheck2.Gen.(pair int64 (int_bound 63))
    (fun (w, i) -> Int64.equal (Bits.flip (Bits.flip w i) i) w)

let suite =
  [
    Alcotest.test_case "bit basics" `Quick test_bit_basics;
    Alcotest.test_case "bit bounds" `Quick test_bit_bounds;
    Alcotest.test_case "mask" `Quick test_mask;
    Alcotest.test_case "field_mask" `Quick test_field_mask;
    Alcotest.test_case "extract/insert" `Quick test_extract_insert;
    Alcotest.test_case "popcount" `Quick test_popcount;
    Alcotest.test_case "hamming/parity" `Quick test_hamming_parity;
    Alcotest.test_case "rotations" `Quick test_rot;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "hex" `Quick test_hex;
    Alcotest.test_case "is_pow2/log2" `Quick test_pow2;
    QCheck_alcotest.to_alcotest prop_popcount_naive;
    QCheck_alcotest.to_alcotest prop_rot_inverse;
    QCheck_alcotest.to_alcotest prop_insert_extract;
    QCheck_alcotest.to_alcotest prop_flip_involution;
  ]
