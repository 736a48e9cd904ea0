(* Porting PT-Guard to another ISA (paper Section IV-F: "the principles
   apply to ARMv8 or any other ISA").

   The engine never hard-codes a page-table format: everything it needs —
   which bits the MAC protects, where the spare bits live, how to read a
   (possibly split) PFN — comes from a Layout module. This demo runs the
   identical engine code against ARMv8 stage-1 descriptors, whose 12
   unused PFN bits per entry are scattered (bits 49:40 plus the split
   PFN[39:38] at 9:8) rather than contiguous as on x86.

   Run with: dune exec examples/arm_port.exe *)

open Ptguard

let () =
  let rng = Ptg_util.Rng.create 88L in
  let config = Config.with_layout Config.optimized (Layout.armv8 ()) in
  let engine = Engine.create ~config ~rng () in
  Format.printf "Engine: %a@.@." Config.pp config;

  (* Eight ARMv8 descriptors mapping contiguous frames. *)
  let line =
    Ptg_pte.Line.init (fun i ->
        Ptg_pte.Armv8.make ~writable:true ~user:true
          ~pfn:(Int64.of_int (0xC4000 + i))
          ())
  in
  let addr = 0x3F00_0000L in
  let stored = Engine.process_write engine ~addr line in
  Format.printf "ARM descriptor line as stored (MAC scattered into 49:40 + 9:8):@.%a@.@."
    Ptg_pte.Line.pp stored;

  (* Clean walk. *)
  (match Engine.process_read engine ~addr ~is_pte:true stored with
  | { integrity = Engine.Passed; line = Some out; _ } ->
      assert (Ptg_pte.Line.equal out line);
      print_endline "clean walk: PASSED, descriptors restored bit-exactly"
  | _ -> assert false);

  (* Rowhammer hits the execute-never field of descriptor 5 — the W^X
     subversion the paper's Section II-C warns about. *)
  let faulty = Ptg_pte.Line.flip_bit stored ((5 * 64) + 54) in
  (match Engine.process_read engine ~addr ~is_pte:true faulty with
  | { integrity = Engine.Corrected { step; guesses }; line = Some out; _ } ->
      assert (Ptg_pte.Line.equal out line);
      Printf.printf "XN-bit flip: DETECTED and CORRECTED (%s, %d guesses)\n"
        (Correction.step_name step) guesses
  | { integrity = Engine.Failed; _ } -> print_endline "XN-bit flip: DETECTED"
  | _ -> assert false);

  (* And a flip in the split-encoded PFN high bits (descriptor bit 8 =
     PFN[38]) — part of the MAC field here, so it reads as MAC damage and
     soft-matching absorbs it. *)
  let faulty2 = Ptg_pte.Line.flip_bit stored ((2 * 64) + 8) in
  (match Engine.process_read engine ~addr ~is_pte:true faulty2 with
  | { integrity = Engine.Corrected { step; _ }; line = Some out; _ } ->
      assert (Ptg_pte.Line.equal out line);
      Printf.printf "split-PFN-slot flip: CORRECTED via %s\n" (Correction.step_name step)
  | { integrity = Engine.Passed; _ } ->
      print_endline "split-PFN-slot flip: absorbed by soft MAC matching"
  | _ -> assert false);

  Printf.printf
    "\nSame engine, different ISA: %d protected bits per descriptor, %d-bit\n\
     identifier, G_max = %d, SRAM %d bytes.\n"
    (Config.protected_bits_per_pte config)
    (let module L = (val config.Config.layout : Layout.S) in
     L.identifier_bits)
    (Config.max_correction_guesses config)
    (Config.sram_bytes config)
