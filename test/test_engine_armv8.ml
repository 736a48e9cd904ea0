(* The Section IV-F generality claim, executable: the unmodified PT-Guard
   engine (write path, both read paths, CTB, correction) instantiated for
   the ARMv8 descriptor layout via Config.with_layout. *)

open Ptguard

let arm_config design =
  Config.with_layout
    (match design with `Baseline -> Config.baseline | `Optimized -> Config.optimized)
    (Layout.armv8 ())

let mk ?(design = `Optimized) seed =
  Engine.create ~config:(arm_config design) ~rng:(Ptg_util.Rng.create seed) ()

let descriptor_line () =
  Ptg_pte.Line.init (fun i ->
      if i = 7 then 0L
      else
        Ptg_pte.Armv8.make ~writable:true ~user:true ~pfn:(Int64.of_int (0xB300 + i)) ())

let masked line =
  Ptg_pte.Protection_armv8.masked_for_mac Ptg_pte.Protection_armv8.default line

let test_write_read_roundtrip () =
  let e = mk 1L in
  let line = descriptor_line () in
  let stored = Engine.process_write e ~addr:0x40L line in
  Alcotest.(check bool) "MAC embedded in ARM spare bits" false
    (Ptg_pte.Line.equal stored line);
  Alcotest.(check int) "protected write counted" 1
    (Engine.stats e).Engine.writes_protected;
  match Engine.process_read e ~addr:0x40L ~is_pte:true stored with
  | { Engine.integrity = Engine.Passed; line = Some out; _ } ->
      Alcotest.(check bool) "ARM line restored" true (Ptg_pte.Line.equal out line)
  | _ -> Alcotest.fail "clean ARM walk must pass"

let test_identifier_32bit () =
  let e = mk 2L in
  Alcotest.(check int64) "ARM identifier fits 32 bits" 0L
    (Int64.shift_right_logical (Engine.identifier e) 32);
  let stored = Engine.process_write e ~addr:0x80L (descriptor_line ()) in
  Alcotest.(check int64) "identifier embedded at 58:55"
    (Engine.identifier e)
    (Ptg_pte.Protection_armv8.extract_identifier stored)

let test_detects_split_pfn_flip () =
  (* ARM's PFN[39:38] lives at bits 9:8 — MAC bits there; flips in the
     in-use PFN range (49:12's low part) must be caught. *)
  let e = mk 3L in
  let line = descriptor_line () in
  let stored = Engine.process_write e ~addr:0xC0L line in
  let faulty = Ptg_pte.Line.flip_bit stored ((2 * 64) + 15) in
  match Engine.process_read e ~addr:0xC0L ~is_pte:true faulty with
  | { Engine.integrity = Engine.Corrected _; line = Some out; _ } ->
      Alcotest.(check bool) "healed faithfully" true
        (Ptg_pte.Line.equal (masked out) (masked line))
  | { Engine.integrity = Engine.Failed; _ } -> Alcotest.fail "single flip should correct"
  | _ -> Alcotest.fail "ARM PFN flip must not pass"

let test_af_bit_unprotected () =
  (* ARM's Accessed Flag (bit 10) is the analogue of x86's Accessed bit. *)
  let e = mk 4L in
  let line = descriptor_line () in
  let stored = Engine.process_write e ~addr:0x100L line in
  let faulty = Ptg_pte.Line.flip_bit stored ((4 * 64) + 10) in
  match Engine.process_read e ~addr:0x100L ~is_pte:true faulty with
  | { Engine.integrity = Engine.Passed; _ } -> ()
  | _ -> Alcotest.fail "AF flip must be invisible"

let test_correction_strategies_on_arm () =
  let e = mk 5L in
  let line = descriptor_line () in
  let stored = Engine.process_write e ~addr:0x140L line in
  (* XN flips in two descriptors: the flag majority vote, on ARM bits. *)
  let faulty =
    List.fold_left Ptg_pte.Line.flip_bit stored [ (0 * 64) + 53; (3 * 64) + 53 ]
  in
  (match Engine.process_read e ~addr:0x140L ~is_pte:true faulty with
  | { Engine.integrity = Engine.Corrected { step; _ }; line = Some out; _ } ->
      Alcotest.(check bool) "faithful" true
        (Ptg_pte.Line.equal (masked out) (masked line));
      Alcotest.(check string) "flag vote fired" "flag-majority"
        (Correction.step_name step)
  | _ -> Alcotest.fail "XN flips must correct via flag vote");
  (* PFN damage in two descriptors: contiguity over the split encoding. *)
  let faulty2 =
    List.fold_left Ptg_pte.Line.flip_bit stored [ (1 * 64) + 14; (5 * 64) + 16 ]
  in
  match Engine.process_read e ~addr:0x140L ~is_pte:true faulty2 with
  | { Engine.integrity = Engine.Corrected { step; _ }; line = Some out; _ } ->
      Alcotest.(check bool) "faithful pfn rebuild" true
        (Ptg_pte.Line.equal (masked out) (masked line));
      Alcotest.(check string) "contiguity fired" "pfn-contiguity"
        (Correction.step_name step)
  | _ -> Alcotest.fail "PFN damage must correct via contiguity"

let test_zero_line_mac_zero () =
  let e = mk 6L in
  let stored = Engine.process_write e ~addr:0x180L (Ptg_pte.Line.create ()) in
  Alcotest.(check int) "mac-zero path used" 1 (Engine.stats e).Engine.writes_mac_zero;
  match Engine.process_read e ~addr:0x180L ~is_pte:true stored with
  | { Engine.integrity = Engine.Passed; extra_latency = 0; _ } -> ()
  | _ -> Alcotest.fail "ARM zero line must take the MAC-zero shortcut"

let test_heavy_damage_detected () =
  let e = mk 7L in
  let line = descriptor_line () in
  let stored = Engine.process_write e ~addr:0x1C0L line in
  let rng = Ptg_util.Rng.create 8L in
  let faulty, _ = Ptg_rowhammer.Inject.flip_exactly rng ~n:40 stored in
  match Engine.process_read e ~addr:0x1C0L ~is_pte:true faulty with
  | { Engine.integrity = Engine.Failed; line = None; _ } -> ()
  | { Engine.integrity = Engine.Corrected _; line = Some out; _ } ->
      Alcotest.(check bool) "if corrected, faithfully" true
        (Ptg_pte.Line.equal (masked out) (masked line))
  | _ -> Alcotest.fail "heavy damage must never pass"

let test_fault_injection_sweep () =
  (* No escape across a sweep of random faults on ARM lines: the 100%
     coverage invariant, layout-independent. *)
  let e = mk 9L in
  let rng = Ptg_util.Rng.create 10L in
  let escapes = ref 0 and corrected = ref 0 and detected = ref 0 in
  for i = 1 to 150 do
    let line = descriptor_line () in
    let addr = Int64.of_int (0x2000 + (i * 64)) in
    let stored = Engine.process_write e ~addr line in
    let faulty, flips = Ptg_rowhammer.Inject.flip_line rng ~p_flip:(1.0 /. 256.0) stored in
    if flips <> [] then
      match Engine.process_read e ~addr ~is_pte:true faulty with
      | { Engine.integrity = Engine.Corrected _; line = Some out; _ } ->
          if Ptg_pte.Line.equal (masked out) (masked line) then incr corrected
          else incr escapes
      | { Engine.integrity = Engine.Failed; _ } -> incr detected
      | { Engine.integrity = Engine.Passed; line = Some out; _ } ->
          if not (Ptg_pte.Line.equal (masked out) (masked line)) then incr escapes
      | _ -> incr escapes
  done;
  Alcotest.(check int) "zero escapes on ARM" 0 !escapes;
  Alcotest.(check bool) "corrections happened" true (!corrected > 0)

let suite =
  [
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "32-bit identifier" `Quick test_identifier_32bit;
    Alcotest.test_case "split-PFN flip corrected" `Quick test_detects_split_pfn_flip;
    Alcotest.test_case "AF bit unprotected" `Quick test_af_bit_unprotected;
    Alcotest.test_case "correction strategies on ARM" `Quick
      test_correction_strategies_on_arm;
    Alcotest.test_case "zero line MAC-zero" `Quick test_zero_line_mac_zero;
    Alcotest.test_case "heavy damage detected" `Quick test_heavy_damage_detected;
    Alcotest.test_case "fault sweep: zero escapes" `Slow test_fault_injection_sweep;
  ]
