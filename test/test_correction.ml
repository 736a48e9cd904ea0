open Ptguard
open Ptg_crypto

let cfg = Config.baseline
let rng0 = Ptg_util.Rng.create 77L
let key = Qarma.key_of_rng rng0

(* A realistic protected line: contiguous PFNs, uniform flags, two zeros. *)
let make_line () =
  Ptg_pte.Line.init (fun i ->
      if i >= 6 then 0L
      else
        Ptg_pte.X86.make ~writable:true ~user:true ~dirty:true
          ~pfn:(Int64.of_int (0x3300 + i))
          ())

let addr = 0xBEEF_0000L

let stored_of line =
  let mac =
    Mac.truncate ~width:cfg.Config.mac_bits
      (Mac.compute key ~addr (Config.masked_for_mac cfg line))
  in
  Ptg_pte.Protection.embed_mac line mac

let masked = Config.masked_for_mac cfg

let expect_corrected ?strategies ~expected_step faulty original =
  match Correction.correct ?strategies cfg key ~addr faulty with
  | Correction.Corrected { line; step; guesses } ->
      Alcotest.(check bool) "faithful" true
        (Ptg_pte.Line.equal (masked line) (masked original));
      Alcotest.(check string) "step" expected_step (Correction.step_name step);
      Alcotest.(check bool) "guesses within G_max" true
        (guesses <= Config.max_correction_guesses cfg)
  | Correction.Uncorrectable _ -> Alcotest.fail "expected correction"

let test_verify_only () =
  let line = make_line () in
  let stored = stored_of line in
  Alcotest.(check bool) "clean verifies" true (Correction.verify_only cfg key ~addr stored);
  let bad = Ptg_pte.Line.flip_bit stored 1 in
  Alcotest.(check bool) "flip breaks exact match" false
    (Correction.verify_only cfg key ~addr bad)

let test_soft_mac_step () =
  let line = make_line () in
  let stored = stored_of line in
  (* 4 flips inside the MAC field of PTE 0 (bits 40..51 of word 0) *)
  let faulty = List.fold_left Ptg_pte.Line.flip_bit stored [ 40; 43; 46; 50 ] in
  expect_corrected ~expected_step:"soft-MAC-match" faulty line

let test_five_mac_flips_uncorrectable_as_is () =
  let line = make_line () in
  let stored = stored_of line in
  (* 5 MAC flips exceed k = 4; no data guess can recover the MAC bits. *)
  let faulty = List.fold_left Ptg_pte.Line.flip_bit stored [ 40; 43; 46; 50; 41 ] in
  match Correction.correct cfg key ~addr faulty with
  | Correction.Uncorrectable { guesses } ->
      Alcotest.(check bool) "within G_max" true
        (guesses <= Config.max_correction_guesses cfg)
  | Correction.Corrected _ -> Alcotest.fail "must not correct >k MAC damage"

let test_flip_and_check_step () =
  let line = make_line () in
  let stored = stored_of line in
  (* single flip in a protected PFN bit of PTE 2 *)
  let faulty = Ptg_pte.Line.flip_bit stored ((2 * 64) + 17) in
  expect_corrected ~expected_step:"flip-and-check" faulty line

let test_flip_and_check_with_mac_damage () =
  let line = make_line () in
  let stored = stored_of line in
  (* one data flip plus two MAC flips: flip-and-check under soft match *)
  let faulty =
    List.fold_left Ptg_pte.Line.flip_bit stored [ (3 * 64) + 2; (1 * 64) + 44; (5 * 64) + 47 ]
  in
  expect_corrected ~expected_step:"flip-and-check" faulty line

let test_zero_reset_step () =
  let line = make_line () in
  let stored = stored_of line in
  (* shred a zero PTE (word 7) with 3 content flips *)
  let faulty =
    List.fold_left Ptg_pte.Line.flip_bit stored [ (7 * 64) + 3; (7 * 64) + 20; (7 * 64) + 33 ]
  in
  expect_corrected ~expected_step:"zero-PTE-reset" faulty line

let test_flag_majority_step () =
  let line = make_line () in
  let stored = stored_of line in
  (* writable-bit flips in two different non-zero PTEs *)
  let faulty = List.fold_left Ptg_pte.Line.flip_bit stored [ (0 * 64) + 1; (4 * 64) + 1 ] in
  expect_corrected ~expected_step:"flag-majority" faulty line

let test_pfn_contiguity_step () =
  let line = make_line () in
  let stored = stored_of line in
  (* low-PFN damage in two PTEs *)
  let faulty = List.fold_left Ptg_pte.Line.flip_bit stored [ (1 * 64) + 13; (5 * 64) + 15 ] in
  expect_corrected ~expected_step:"pfn-contiguity" faulty line

let test_combined_step () =
  let line = make_line () in
  let stored = stored_of line in
  (* flag damage + PFN damage together *)
  let faulty = List.fold_left Ptg_pte.Line.flip_bit stored [ (0 * 64) + 63; (2 * 64) + 14 ] in
  expect_corrected ~expected_step:"flags+pfn" faulty line

let test_strategy_gating () =
  let line = make_line () in
  let stored = stored_of line in
  let faulty = Ptg_pte.Line.flip_bit stored ((2 * 64) + 17) in
  (* With flip-and-check disabled, a lone PFN flip falls to contiguity. *)
  let strategies =
    { Correction.all_strategies with Correction.use_flip_and_check = false }
  in
  (match Correction.correct ~strategies cfg key ~addr faulty with
  | Correction.Corrected { step; _ } ->
      Alcotest.(check string) "fallback strategy" "pfn-contiguity"
        (Correction.step_name step)
  | Correction.Uncorrectable _ -> Alcotest.fail "contiguity should recover");
  (* With nothing enabled, nothing corrects. *)
  match Correction.correct ~strategies:Correction.no_strategies cfg key ~addr faulty with
  | Correction.Uncorrectable { guesses } -> Alcotest.(check int) "no guesses" 0 guesses
  | Correction.Corrected _ -> Alcotest.fail "no strategies, no corrections"

let test_mac_zero_candidates () =
  (* Under the Optimized design, a zero line carries the address-free
     MAC-zero; correction must check zero candidates against it. *)
  let cfg_opt = Config.optimized in
  let mz = Mac.truncate ~width:96 (Mac.compute_zero key) in
  let stored = Ptg_pte.Protection.embed_mac (Ptg_pte.Line.create ()) mz in
  let faulty = Ptg_pte.Line.flip_bit stored ((3 * 64) + 21) in
  match Correction.correct ~mac_zero:mz cfg_opt key ~addr faulty with
  | Correction.Corrected { line; _ } ->
      Alcotest.(check bool) "restored to zero content" true
        (Ptg_pte.Line.is_zero (masked line))
  | Correction.Uncorrectable _ -> Alcotest.fail "zero-line flip must correct"

let test_guess_budget () =
  (* On a fully-populated line (8 contiguity bases), an uncorrectable
     outcome exhausts exactly G_max guesses — the Section VI-D bound. *)
  let line =
    Ptg_pte.Line.init (fun i ->
        Ptg_pte.X86.make ~writable:true ~user:true ~pfn:(Int64.of_int (0x4400 + i)) ())
  in
  let stored = stored_of line in
  let rng = Ptg_util.Rng.create 3L in
  (* Wreck the MAC beyond soft-matching so no guess can ever succeed. *)
  let faulty =
    List.fold_left Ptg_pte.Line.flip_bit stored [ 40; 42; 44; 46; 48; 50; 104; 106 ]
  in
  ignore rng;
  match Correction.correct cfg key ~addr faulty with
  | Correction.Uncorrectable { guesses } ->
      Alcotest.(check int) "exactly G_max guesses" (Config.max_correction_guesses cfg)
        guesses
  | Correction.Corrected _ -> Alcotest.fail "unmatchable MAC must not correct"

let prop_single_flip_always_corrected =
  QCheck2.Test.make ~name:"any single protected-bit flip corrects faithfully"
    ~count:60
    QCheck2.Gen.(pair (int_bound 7) (int_bound 63))
    (fun (word, bit) ->
      let protected_mask = Ptg_pte.Protection.protected_mask Ptg_pte.Protection.default in
      QCheck2.assume (Ptg_util.Bits.get protected_mask bit);
      let line = make_line () in
      let stored = stored_of line in
      let faulty = Ptg_pte.Line.flip_bit stored ((word * 64) + bit) in
      match Correction.correct cfg key ~addr faulty with
      | Correction.Corrected { line = fixed; _ } ->
          Ptg_pte.Line.equal (masked fixed) (masked line)
      | Correction.Uncorrectable _ -> false)

let prop_never_miscorrects =
  QCheck2.Test.make ~name:"correction is faithful or fails (no mis-corrections)"
    ~count:40
    QCheck2.Gen.(int_range 1 12)
    (fun nflips ->
      let rng = Ptg_util.Rng.create (Int64.of_int (nflips * 31)) in
      let line = make_line () in
      let stored = stored_of line in
      let faulty, _ = Ptg_rowhammer.Inject.flip_exactly rng ~n:nflips stored in
      match Correction.correct cfg key ~addr faulty with
      | Correction.Corrected { line = fixed; _ } ->
          Ptg_pte.Line.equal (masked fixed) (masked line)
      | Correction.Uncorrectable _ -> true)

let suite =
  [
    Alcotest.test_case "verify_only" `Quick test_verify_only;
    Alcotest.test_case "step 1: soft MAC" `Quick test_soft_mac_step;
    Alcotest.test_case "5 MAC flips stay detected" `Quick test_five_mac_flips_uncorrectable_as_is;
    Alcotest.test_case "step 2: flip and check" `Quick test_flip_and_check_step;
    Alcotest.test_case "step 2 with MAC damage" `Quick test_flip_and_check_with_mac_damage;
    Alcotest.test_case "step 3: zero reset" `Quick test_zero_reset_step;
    Alcotest.test_case "step 4: flag majority" `Quick test_flag_majority_step;
    Alcotest.test_case "step 5: pfn contiguity" `Quick test_pfn_contiguity_step;
    Alcotest.test_case "steps 4+5 combined" `Quick test_combined_step;
    Alcotest.test_case "strategy gating" `Quick test_strategy_gating;
    Alcotest.test_case "mac-zero candidates" `Quick test_mac_zero_candidates;
    Alcotest.test_case "guess budget" `Quick test_guess_budget;
    QCheck_alcotest.to_alcotest prop_single_flip_always_corrected;
    QCheck_alcotest.to_alcotest prop_never_miscorrects;
  ]
