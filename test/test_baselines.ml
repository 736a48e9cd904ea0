open Ptg_baselines

(* --- SecWalk-style EDC -------------------------------------------------- *)

let pte pfn = Ptg_pte.X86.make ~writable:true ~user:true ~pfn ()

let test_edc_roundtrip () =
  let p = pte 0x1234L in
  let prot = Secwalk.protect p in
  Alcotest.(check bool) "clean verifies" true (Secwalk.verify prot);
  Alcotest.(check int64) "strip restores content" p (Secwalk.strip prot);
  Alcotest.(check int) "edc width" 24 Secwalk.edc_bits

let test_edc_detects_low_weight () =
  (* every 1-flip and a sample of 2-flip patterns must be detected *)
  let p = Secwalk.protect (pte 0x4321L) in
  for bit = 0 to 39 do
    if Secwalk.verify (Ptg_util.Bits.flip p bit) then
      Alcotest.failf "1-flip at bit %d undetected" bit
  done;
  let rng = Ptg_util.Rng.create 1L in
  for _ = 1 to 500 do
    let a = Ptg_util.Rng.int rng 40 and b = Ptg_util.Rng.int rng 40 in
    if a <> b then
      let t = Ptg_util.Bits.flip (Ptg_util.Bits.flip p a) b in
      if Secwalk.verify t then Alcotest.fail "2-flip pattern undetected"
  done

let test_edc_detects_code_bit_flips () =
  let p = Secwalk.protect (pte 0x999L) in
  for bit = 40 to 63 do
    if Secwalk.verify (Ptg_util.Bits.flip p bit) then
      Alcotest.failf "EDC-bit flip at %d undetected" bit
  done

let test_edc_forgeable () =
  (* the decisive weakness: a keyless code verifies attacker content *)
  let victim = Secwalk.protect (pte 0x1000L) in
  let evil = pte 0xFFFFL in
  let forged = Secwalk.forge victim ~target:evil in
  Alcotest.(check bool) "forged PTE verifies" true (Secwalk.verify forged);
  Alcotest.(check int64) "forged content is attacker's" evil (Secwalk.strip forged)

let test_edc_no_address_binding () =
  (* the same protected PTE verifies anywhere: replay is invisible *)
  let p = Secwalk.protect (pte 0x2222L) in
  Alcotest.(check bool) "verifies at any location" true (Secwalk.verify p)

let test_edc_deterministic () =
  Alcotest.(check int) "same input same code" (Secwalk.compute (pte 5L))
    (Secwalk.compute (pte 5L));
  Alcotest.(check bool) "different input different code" true
    (Secwalk.compute (pte 5L) <> Secwalk.compute (pte 6L))

(* --- Monotonic pointers -------------------------------------------------- *)

let mono = Monotonic.create ~watermark_pfn:0x80000L

let test_mono_placement () =
  Alcotest.(check bool) "user pfn below watermark ok" true
    (Monotonic.user_pfn_ok mono 0x7FFFFL);
  Alcotest.(check bool) "pt-region pfn rejected" false
    (Monotonic.user_pfn_ok mono 0x80000L);
  Alcotest.(check int64) "watermark" 0x80000L (Monotonic.watermark mono)

let test_mono_true_cell_blocked () =
  (* 1->0 flips only decrease the PFN: always blocked *)
  let pfn = 0x7F0F0L in
  for bit = 0 to 19 do
    if Ptg_util.Bits.get pfn bit then
      Alcotest.(check bool) "true-cell flip blocked" true
        (Monotonic.pfn_flip_blocked mono ~pfn ~bit ~anti_cell:false)
  done

let test_mono_anti_cell_breaks () =
  (* setting bit 19 of a small PFN jumps over the watermark *)
  let pfn = 0x10L in
  Alcotest.(check bool) "anti-cell flip escapes" false
    (Monotonic.pfn_flip_blocked mono ~pfn ~bit:19 ~anti_cell:true)

let test_mono_flip_orientation () =
  Alcotest.(check (option int64)) "true cell clears" (Some 0x6L)
    (Monotonic.flipped_pfn ~pfn:0x7L ~bit:0 ~anti_cell:false);
  Alcotest.(check (option int64)) "true cell cannot set" None
    (Monotonic.flipped_pfn ~pfn:0x6L ~bit:0 ~anti_cell:false);
  Alcotest.(check (option int64)) "anti cell sets" (Some 0x7L)
    (Monotonic.flipped_pfn ~pfn:0x6L ~bit:0 ~anti_cell:true)

let test_mono_no_field_protection () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "no flag protection" false (Monotonic.protects_field f))
    Ptg_pte.X86.all_flags

(* --- Encrypted PTEs ------------------------------------------------------ *)

let test_encryption_roundtrip () =
  let enc = Encrypted_pte.create ~rng:(Ptg_util.Rng.create 9L) in
  let line = Ptg_pte.Line.init (fun i -> pte (Int64.of_int (0x100 + i))) in
  let stored = Encrypted_pte.encrypt_line enc ~addr:0x40L line in
  Alcotest.(check bool) "ciphertext differs" false (Ptg_pte.Line.equal stored line);
  Alcotest.(check bool) "decrypt restores" true
    (Ptg_pte.Line.equal (Encrypted_pte.decrypt_line enc ~addr:0x40L stored) line);
  Alcotest.(check bool) "clean consume intact" true
    (Encrypted_pte.consume enc ~addr:0x40L ~original:line ~stored = Encrypted_pte.Intact)

let test_encryption_no_detection () =
  let enc = Encrypted_pte.create ~rng:(Ptg_util.Rng.create 10L) in
  let line = Ptg_pte.Line.init (fun i -> pte (Int64.of_int (0x200 + i))) in
  let stored = Encrypted_pte.encrypt_line enc ~addr:0x80L line in
  let faulty = Ptg_pte.Line.flip_bit stored 13 in
  match Encrypted_pte.consume enc ~addr:0x80L ~original:line ~stored:faulty with
  | Encrypted_pte.Garbage_consumed { wild_pfn; _ } ->
      (* one ciphertext flip garbles a whole 16-byte chunk *)
      Alcotest.(check bool) "garbage PFN consumed" true wild_pfn
  | Encrypted_pte.Intact -> Alcotest.fail "flip must corrupt the decryption"

let test_encryption_replay_garbles () =
  let enc = Encrypted_pte.create ~rng:(Ptg_util.Rng.create 11L) in
  let line = Ptg_pte.Line.init (fun i -> pte (Int64.of_int (0x300 + i))) in
  let stored = Encrypted_pte.encrypt_line enc ~addr:0xC0L line in
  Alcotest.(check bool) "address-tweaked: replay decrypts to garbage" true
    (Encrypted_pte.consume enc ~addr:0x100L ~original:line ~stored
    <> Encrypted_pte.Intact)

(* --- the comparison experiment ------------------------------------------ *)

let test_comparison_story () =
  let open Ptg_sim.Baselines_exp in
  let r = run ~trials:60 () in
  let cell threat defense =
    (List.find (fun row -> row.threat = threat && row.defense = defense) r.rows)
      .counts
  in
  (* PT-Guard never lets anything escape, across all threats *)
  List.iter
    (fun threat ->
      Alcotest.(check int) (threat_name threat ^ ": PT-Guard zero escapes") 0
        (cell threat Pt_guard).escaped)
    threats;
  (* Monotonic blocks the true-cell PFN attack completely *)
  Alcotest.(check int) "Monotonic blocks true-cell flips" 0
    (cell Pfn_true_cell Monotonic_pointers).escaped;
  (* ...but not flag tampering *)
  Alcotest.(check int) "Monotonic helpless on U/S flips" 60
    (cell Us_bit Monotonic_pointers).escaped;
  (* ...and anti-cell flips sometimes escape *)
  Alcotest.(check bool) "Monotonic leaks on anti cells" true
    ((cell Pfn_anti_cell Monotonic_pointers).escaped > 0);
  (* SecWalk detects random damage but is forged and replayed at will *)
  Alcotest.(check int) "SecWalk detects single flips" 0
    (cell Pfn_true_cell Secwalk_edc).escaped;
  Alcotest.(check int) "SecWalk fully forged" 60
    (cell Surgical_forge Secwalk_edc).escaped;
  Alcotest.(check int) "SecWalk replayed" 60
    (cell Relocation_replay Secwalk_edc).escaped;
  Alcotest.(check (list string))
    "table labels"
    [
      "PFN flip (true cell, 1->0)"; "PFN flip (anti cell, 0->1)";
      "U/S privilege-bit flip"; "5 random flips"; "surgical forge (keyless)";
      "PTE relocation/replay";
    ]
    (List.map threat_name threats)

let suite =
  [
    Alcotest.test_case "edc roundtrip" `Quick test_edc_roundtrip;
    Alcotest.test_case "edc detects low-weight" `Quick test_edc_detects_low_weight;
    Alcotest.test_case "edc detects code-bit flips" `Quick test_edc_detects_code_bit_flips;
    Alcotest.test_case "edc forgeable" `Quick test_edc_forgeable;
    Alcotest.test_case "edc no address binding" `Quick test_edc_no_address_binding;
    Alcotest.test_case "edc deterministic" `Quick test_edc_deterministic;
    Alcotest.test_case "monotonic placement" `Quick test_mono_placement;
    Alcotest.test_case "monotonic true-cell blocked" `Quick test_mono_true_cell_blocked;
    Alcotest.test_case "monotonic anti-cell breaks" `Quick test_mono_anti_cell_breaks;
    Alcotest.test_case "monotonic flip orientation" `Quick test_mono_flip_orientation;
    Alcotest.test_case "monotonic no field protection" `Quick test_mono_no_field_protection;
    Alcotest.test_case "encryption roundtrip" `Quick test_encryption_roundtrip;
    Alcotest.test_case "encryption: no detection" `Quick test_encryption_no_detection;
    Alcotest.test_case "encryption: replay garbles" `Quick test_encryption_replay_garbles;
    Alcotest.test_case "comparison story" `Slow test_comparison_story;
  ]
