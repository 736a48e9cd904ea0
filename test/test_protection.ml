open Ptg_pte
open Ptg_crypto

let cfg = Protection.default (* M = 40 *)

(* Table IV: with M = 40 the MAC protects 28 PFN bits + 16 flag bits. *)
let test_protected_mask_table_iv () =
  Alcotest.(check int) "44 protected bits at M=40" 44
    (Protection.protected_bits_per_pte cfg);
  let m = Protection.protected_mask cfg in
  (* flags 8:0 except accessed *)
  List.iter
    (fun b -> Alcotest.(check bool) (Printf.sprintf "bit %d protected" b) true (Ptg_util.Bits.get m b))
    [ 0; 1; 2; 3; 4; 6; 7; 8; 9; 10; 11; 12; 39; 59; 62; 63 ];
  (* accessed bit, MAC field, identifier field, beyond-M bits are not *)
  List.iter
    (fun b -> Alcotest.(check bool) (Printf.sprintf "bit %d unprotected" b) false (Ptg_util.Bits.get m b))
    [ 5; 40; 51; 52; 58 ]

let test_m32 () =
  let cfg32 = Protection.make ~phys_addr_bits:32 in
  Alcotest.(check int) "36 protected bits at M=32" 36
    (Protection.protected_bits_per_pte cfg32);
  let unused = Protection.unused_pfn_mask cfg32 in
  Alcotest.(check int64) "unused PFN bits 39:32" (Ptg_util.Bits.field_mask ~lo:32 ~hi:39) unused;
  Alcotest.(check int64) "no unused bits at M=40" 0L (Protection.unused_pfn_mask cfg)

let test_make_validation () =
  Alcotest.check_raises "M too small"
    (Invalid_argument "Protection.make: phys_addr_bits must be in [32, 40]")
    (fun () -> ignore (Protection.make ~phys_addr_bits:31))

let test_field_masks () =
  Alcotest.(check int64) "MAC field 51:40" (Ptg_util.Bits.field_mask ~lo:40 ~hi:51)
    Protection.mac_field_mask;
  Alcotest.(check int64) "identifier field 58:52" (Ptg_util.Bits.field_mask ~lo:52 ~hi:58)
    Protection.identifier_field_mask

let pte_line () =
  Ptg_pte.Line.init (fun i ->
      X86.make ~writable:true ~user:true ~accessed:(i mod 2 = 0)
        ~pfn:(Int64.of_int (0x8000 + i)) ())

let test_patterns () =
  let line = pte_line () in
  Alcotest.(check bool) "PTE line matches basic" true
    (Protection.matches_basic_pattern cfg line);
  Alcotest.(check bool) "PTE line matches extended" true
    (Protection.matches_extended_pattern cfg line);
  (* a bit in the MAC field breaks both *)
  let dirty_mac = Line.set_bit line (0 * 64 + 45) true in
  Alcotest.(check bool) "MAC-field bit breaks basic" false
    (Protection.matches_basic_pattern cfg dirty_mac);
  Alcotest.(check bool) "MAC-field bit breaks extended" false
    (Protection.matches_extended_pattern cfg dirty_mac);
  (* a bit in the identifier field breaks only the extended pattern *)
  let dirty_ident = Line.set_bit line (3 * 64 + 55) true in
  Alcotest.(check bool) "ident bit keeps basic" true
    (Protection.matches_basic_pattern cfg dirty_ident);
  Alcotest.(check bool) "ident bit breaks extended" false
    (Protection.matches_extended_pattern cfg dirty_ident);
  (* under M=32, a PFN bit beyond the machine breaks the pattern *)
  let cfg32 = Protection.make ~phys_addr_bits:32 in
  let big_pfn = Line.set_bit line (2 * 64 + 35) true in
  Alcotest.(check bool) "beyond-M PFN bit breaks basic (M=32)" false
    (Protection.matches_basic_pattern cfg32 big_pfn)

let test_mac_embed_extract_strip () =
  let line = pte_line () in
  let mac = { Mac.hi32 = 0x89ABCDEFL; lo = 0x0123456789ABCDEFL } in
  let embedded = Protection.embed_mac line mac in
  Alcotest.(check bool) "extract returns mac" true
    (Mac.equal (Protection.extract_mac embedded) mac);
  let stripped = Protection.strip_mac embedded in
  Alcotest.(check bool) "strip restores line" true (Line.equal stripped line);
  (* embedding never touches protected bits *)
  let m = Protection.protected_mask cfg in
  Array.iteri
    (fun i w ->
      Alcotest.(check int64) "protected bits preserved"
        (Int64.logand (Ptg_pte.Line.get line i) m) (Int64.logand w m))
    (Line.to_words embedded)

let test_masked_for_mac () =
  let line = pte_line () in
  let mac = { Mac.hi32 = 1L; lo = 2L } in
  let embedded = Protection.embed_mac line mac in
  (* the MAC input must be independent of the embedded MAC and accessed bits *)
  Alcotest.(check bool) "masked equal before/after embed" true
    (Line.equal (Protection.masked_for_mac cfg line) (Protection.masked_for_mac cfg embedded));
  let accessed_toggled =
    Line.map (fun w -> Ptg_util.Bits.flip w 5) line
  in
  Alcotest.(check bool) "accessed bit excluded from MAC input" true
    (Line.equal (Protection.masked_for_mac cfg line)
       (Protection.masked_for_mac cfg accessed_toggled))

let test_identifier_ops () =
  let line = pte_line () in
  let ident = 0x00AB_CDEF_1234_56L in
  let embedded = Protection.embed_identifier line ident in
  Alcotest.(check int64) "extract identifier" ident (Protection.extract_identifier embedded);
  Alcotest.(check bool) "strip restores" true
    (Line.equal (Protection.strip_identifier embedded) line);
  Alcotest.check_raises "identifier too wide"
    (Invalid_argument "Protection.split7: identifier wider than 56 bits") (fun () ->
      ignore (Protection.embed_identifier line (-1L)))

let test_split7_join7 () =
  let pieces = Protection.split7 0x7FL in
  Alcotest.(check int) "piece 0 full" 0x7F pieces.(0);
  Alcotest.(check int) "piece 1 empty" 0 pieces.(1);
  Alcotest.check_raises "join7 range"
    (Invalid_argument "Protection.join7: piece out of range") (fun () ->
      ignore (Protection.join7 (Array.make 8 128)))

let test_pfn_bounds () =
  let ok = X86.make ~pfn:0x0FFF_FFFFL () in
  Alcotest.(check bool) "in-bounds pfn" false (Protection.pfn_out_of_bounds cfg ok);
  let bad = X86.make ~pfn:0x1000_0000L () in
  Alcotest.(check bool) "out-of-bounds pfn (>= 2^28 at M=40)" true
    (Protection.pfn_out_of_bounds cfg bad);
  (* A line with a MAC embedded fails the bounds check — the OS-side
     detection path of Section IV-E. *)
  let embedded = Protection.embed_mac (pte_line ()) { Mac.hi32 = -1L |> Int64.logand 0xFFFFFFFFL; lo = -1L } in
  Alcotest.(check bool) "MAC in PFN trips bounds" true
    (Line.exists (Protection.pfn_out_of_bounds cfg) embedded)

let gen_mac96 =
  QCheck2.Gen.map
    (fun (hi, lo) -> { Mac.hi32 = Int64.logand hi 0xFFFFFFFFL; lo })
    QCheck2.Gen.(pair int64 int64)

let gen_ident = QCheck2.Gen.map (fun x -> Int64.logand x (Ptg_util.Bits.mask 56)) QCheck2.Gen.int64

let prop_embed_roundtrip =
  QCheck2.Test.make ~name:"embed mac+ident then extract+strip roundtrip" ~count:300
    QCheck2.Gen.(pair gen_mac96 gen_ident)
    (fun (mac, ident) ->
      let line = pte_line () in
      let stored = Protection.embed_identifier (Protection.embed_mac line mac) ident in
      Mac.equal (Protection.extract_mac stored) mac
      && Int64.equal (Protection.extract_identifier stored) ident
      && Line.equal (Protection.strip_identifier (Protection.strip_mac stored)) line)

let prop_split7_join7 =
  QCheck2.Test.make ~name:"join7 inverts split7" ~count:300 gen_ident (fun v ->
      Int64.equal (Protection.join7 (Protection.split7 v)) v)

(* Words biased towards the interesting cases: arbitrary bits, PTE-shaped
   words with the MAC and identifier fields clear, and words that match
   every pattern at any M. *)
(* Lines biased towards the interesting cases: arbitrary bits, PTE-shaped
   words with the MAC and identifier fields clear, words that match every
   pattern at any M, and mixtures of the three. *)
let gen_line =
  let spare = Int64.logor Protection.mac_field_mask Protection.identifier_field_mask in
  let narrow = Protection.protected_mask (Protection.make ~phys_addr_bits:32) in
  let shaped = QCheck2.Gen.map (fun w -> Int64.logand w (Int64.lognot spare)) QCheck2.Gen.int64 in
  let fits = QCheck2.Gen.map (fun w -> Int64.logand w narrow) QCheck2.Gen.int64 in
  QCheck2.Gen.(
    oneofl [ int64; shaped; fits; oneof [ int64; shaped; fits ] ]
    >>= fun word -> array_size (return 8) word)

let prop_loops_match_oracle =
  QCheck2.Test.make ~name:"loop helpers = split12/split7 oracle (x86)" ~count:500
    QCheck2.Gen.(quad gen_line gen_mac96 gen_ident (int_range 32 40))
    (fun (a, mac, ident, m) ->
      let line = Line.of_words a in
      let module O = Layout_oracle.X86 in
      let cfg = Protection.make ~phys_addr_bits:m in
      Line.to_words (Protection.embed_mac line mac) = O.embed_mac a mac
      && Mac.equal (Protection.extract_mac line) (O.extract_mac a)
      && Line.to_words (Protection.strip_mac line) = O.strip_mac a
      && Line.to_words (Protection.masked_for_mac cfg line) = O.masked_for_mac cfg a
      && Line.to_words (Protection.embed_identifier line ident) = O.embed_identifier a ident
      && Int64.equal (Protection.extract_identifier line) (O.extract_identifier a)
      && Line.to_words (Protection.strip_identifier line) = O.strip_identifier a
      && Protection.matches_basic_pattern cfg line = O.matches_basic_pattern cfg a
      && Protection.matches_extended_pattern cfg line = O.matches_extended_pattern cfg a)

let suite =
  [
    Alcotest.test_case "Table IV protected mask" `Quick test_protected_mask_table_iv;
    Alcotest.test_case "M = 32 variant" `Quick test_m32;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "field masks" `Quick test_field_masks;
    Alcotest.test_case "patterns" `Quick test_patterns;
    Alcotest.test_case "mac embed/extract/strip" `Quick test_mac_embed_extract_strip;
    Alcotest.test_case "masked_for_mac" `Quick test_masked_for_mac;
    Alcotest.test_case "identifier ops" `Quick test_identifier_ops;
    Alcotest.test_case "split7/join7" `Quick test_split7_join7;
    Alcotest.test_case "pfn bounds check" `Quick test_pfn_bounds;
    QCheck_alcotest.to_alcotest prop_embed_roundtrip;
    QCheck_alcotest.to_alcotest prop_split7_join7;
    QCheck_alcotest.to_alcotest prop_loops_match_oracle;
  ]
