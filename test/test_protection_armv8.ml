open Ptg_pte
open Ptg_crypto

let cfg = Protection_armv8.default

let descriptor_line () =
  Ptg_pte.Line.init (fun i ->
      Armv8.make ~writable:true ~user:true ~pfn:(Int64.of_int (0x7400 + i)) ())

let test_field_masks () =
  (* the MAC slice is the scattered unused-PFN headroom *)
  Alcotest.(check int) "12 MAC bits per descriptor" 12
    (Ptg_util.Bits.popcount Protection_armv8.mac_field_mask);
  Alcotest.(check bool) "includes split PFN[39:38] at 9:8" true
    (Ptg_util.Bits.get Protection_armv8.mac_field_mask 8
    && Ptg_util.Bits.get Protection_armv8.mac_field_mask 9);
  Alcotest.(check bool) "includes 49:40" true
    (Ptg_util.Bits.get Protection_armv8.mac_field_mask 40
    && Ptg_util.Bits.get Protection_armv8.mac_field_mask 49);
  Alcotest.(check int) "4 identifier bits" 4
    (Ptg_util.Bits.popcount Protection_armv8.identifier_field_mask)

let test_protected_mask () =
  Alcotest.(check int) "45 protected bits at M=40" 45
    (Protection_armv8.protected_bits_per_pte cfg);
  let m = Protection_armv8.protected_mask cfg in
  (* AF excluded, like x86's Accessed *)
  Alcotest.(check bool) "AF unprotected" false (Ptg_util.Bits.get m 10);
  (* XN and hardware attributes protected *)
  Alcotest.(check bool) "XN protected" true (Ptg_util.Bits.get m 53);
  Alcotest.(check bool) "hw attrs protected" true (Ptg_util.Bits.get m 59);
  (* MAC slice disjoint from protection *)
  Alcotest.(check int64) "mac and protected disjoint" 0L
    (Int64.logand m Protection_armv8.mac_field_mask)

let test_patterns () =
  let line = descriptor_line () in
  Alcotest.(check bool) "ARM PTE line matches basic" true
    (Protection_armv8.matches_basic_pattern cfg line);
  Alcotest.(check bool) "matches extended" true
    (Protection_armv8.matches_extended_pattern cfg line);
  (* a descriptor with PFN[38] set (bit 8) breaks the pattern at M=40 *)
  let big = Ptg_pte.Line.copy line in
  Ptg_pte.Line.set big 2 (Ptg_util.Bits.set (Ptg_pte.Line.get big 2) 8);
  Alcotest.(check bool) "split-high PFN bit breaks pattern" false
    (Protection_armv8.matches_basic_pattern cfg big)

let test_mac_roundtrip () =
  let line = descriptor_line () in
  let mac = { Mac.hi32 = 0x12345678L; lo = 0x9ABCDEF011223344L } in
  let embedded = Protection_armv8.embed_mac line mac in
  Alcotest.(check bool) "extract returns mac" true
    (Mac.equal (Protection_armv8.extract_mac embedded) mac);
  Alcotest.(check bool) "strip restores" true
    (Line.equal (Protection_armv8.strip_mac embedded) line);
  (* protected content untouched by the embed *)
  Alcotest.(check bool) "masked content invariant" true
    (Line.equal
       (Protection_armv8.masked_for_mac cfg line)
       (Protection_armv8.masked_for_mac cfg embedded))

let test_identifier_roundtrip () =
  let line = descriptor_line () in
  let ident = 0xDEADBEEFL in
  let embedded = Protection_armv8.embed_identifier line ident in
  Alcotest.(check int64) "identifier roundtrip" ident
    (Protection_armv8.extract_identifier embedded);
  Alcotest.(check bool) "strip restores" true
    (Line.equal (Protection_armv8.strip_identifier embedded) line);
  Alcotest.check_raises "width check"
    (Invalid_argument "Protection_armv8.embed_identifier: identifier wider than 32 bits")
    (fun () -> ignore (Protection_armv8.embed_identifier line 0x1_0000_0000L))

let test_end_to_end_verification () =
  (* The full PT-Guard flow on ARM descriptors: MAC over protected bits,
     embed, verify, detect a flip — using the crypto layer directly. *)
  let key = Qarma.expand_key ~w0:(Block128.of_int64 1L) (Block128.of_int64 2L) in
  let addr = 0xA000L in
  let line = descriptor_line () in
  let mac = Mac.compute key ~addr (Protection_armv8.masked_for_mac cfg line) in
  let stored = Protection_armv8.embed_mac line mac in
  (* clean verify *)
  let recomputed = Mac.compute key ~addr (Protection_armv8.masked_for_mac cfg stored) in
  Alcotest.(check bool) "clean ARM line verifies" true
    (Mac.equal recomputed (Protection_armv8.extract_mac stored));
  (* a flip in the split PFN field is caught *)
  let faulty = Line.flip_bit stored ((3 * 64) + 14) in
  let recomputed' = Mac.compute key ~addr (Protection_armv8.masked_for_mac cfg faulty) in
  Alcotest.(check bool) "PFN flip detected" false
    (Mac.equal recomputed' (Protection_armv8.extract_mac faulty));
  (* an AF flip is invisible, as designed *)
  let af = Line.flip_bit stored ((5 * 64) + 10) in
  let recomputed'' = Mac.compute key ~addr (Protection_armv8.masked_for_mac cfg af) in
  Alcotest.(check bool) "AF flip passes" true
    (Mac.equal recomputed'' (Protection_armv8.extract_mac af))

let gen_mac96 =
  QCheck2.Gen.map
    (fun (hi, lo) -> { Mac.hi32 = Int64.logand hi 0xFFFFFFFFL; lo })
    QCheck2.Gen.(pair int64 int64)

let prop_mac_roundtrip =
  QCheck2.Test.make ~name:"ARM embed/extract/strip roundtrip" ~count:300 gen_mac96
    (fun mac ->
      let line = descriptor_line () in
      let embedded = Protection_armv8.embed_mac line mac in
      Mac.equal (Protection_armv8.extract_mac embedded) mac
      && Line.equal (Protection_armv8.strip_mac embedded) line)

(* Lines biased towards the interesting cases: arbitrary bits, PTE-shaped
   words with the MAC and identifier fields clear, words that match every
   pattern at any M, and mixtures of the three. *)
let gen_line =
  let spare = Int64.logor Protection_armv8.mac_field_mask Protection_armv8.identifier_field_mask in
  let narrow = Protection_armv8.protected_mask (Protection_armv8.make ~phys_addr_bits:32) in
  let shaped = QCheck2.Gen.map (fun w -> Int64.logand w (Int64.lognot spare)) QCheck2.Gen.int64 in
  let fits = QCheck2.Gen.map (fun w -> Int64.logand w narrow) QCheck2.Gen.int64 in
  QCheck2.Gen.(
    oneofl [ int64; shaped; fits; oneof [ int64; shaped; fits ] ]
    >>= fun word -> array_size (return 8) word)
let gen_ident = QCheck2.Gen.map (fun x -> Int64.logand x 0xFFFF_FFFFL) QCheck2.Gen.int64

let prop_loops_match_oracle =
  QCheck2.Test.make ~name:"loop helpers = split12 oracle (ARMv8)" ~count:500
    QCheck2.Gen.(quad gen_line gen_mac96 gen_ident (int_range 32 40))
    (fun (a, mac, ident, m) ->
      let line = Line.of_words a in
      let module O = Layout_oracle.Armv8 in
      let cfg = Protection_armv8.make ~phys_addr_bits:m in
      Line.to_words (Protection_armv8.embed_mac line mac) = O.embed_mac a mac
      && Mac.equal (Protection_armv8.extract_mac line) (O.extract_mac a)
      && Line.to_words (Protection_armv8.strip_mac line) = O.strip_mac a
      && Line.to_words (Protection_armv8.masked_for_mac cfg line) = O.masked_for_mac cfg a
      && Line.to_words (Protection_armv8.embed_identifier line ident) = O.embed_identifier a ident
      && Int64.equal (Protection_armv8.extract_identifier line) (O.extract_identifier a)
      && Line.to_words (Protection_armv8.strip_identifier line) = O.strip_identifier a
      && Protection_armv8.matches_basic_pattern cfg line = O.matches_basic_pattern cfg a
      && Protection_armv8.matches_extended_pattern cfg line
         = O.matches_extended_pattern cfg a)

let suite =
  [
    Alcotest.test_case "field masks" `Quick test_field_masks;
    Alcotest.test_case "protected mask" `Quick test_protected_mask;
    Alcotest.test_case "patterns" `Quick test_patterns;
    Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
    Alcotest.test_case "identifier roundtrip" `Quick test_identifier_roundtrip;
    Alcotest.test_case "end-to-end verify on ARM" `Quick test_end_to_end_verification;
    QCheck_alcotest.to_alcotest prop_mac_roundtrip;
    QCheck_alcotest.to_alcotest prop_loops_match_oracle;
  ]
