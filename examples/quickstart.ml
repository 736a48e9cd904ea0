(* Quickstart: the PT-Guard public API in ~60 lines.

   Build a PTE cacheline, push it through the memory-controller engine as
   a DRAM write (the MAC gets embedded opportunistically), corrupt one bit
   the way Rowhammer would, and watch the page-table-walk read detect and
   transparently correct the damage.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let rng = Ptg_util.Rng.create 2023L in

  (* 1. A PT-Guard engine, as it would sit in the memory controller. The
        Optimized design adds the identifier + MAC-zero fast paths. *)
  let engine = Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng () in
  Format.printf "Engine: %a@." Ptguard.Config.pp (Ptguard.Engine.config engine);

  (* 2. A PTE cacheline: 8 page-table entries mapping pages to contiguous
        frames, the common case in real page tables. *)
  let line =
    Ptg_pte.Line.init (fun i ->
        Ptg_pte.X86.make ~writable:true ~user:true
          ~pfn:(Int64.of_int (0x1a2b0 + i))
          ())
  in
  let addr = 0x7f8a_1000L in

  (* 3. DRAM write: the line matches the PTE bit pattern, so the engine
        embeds a 96-bit QARMA-128 MAC in the unused PFN bits (and the
        56-bit identifier in the OS-ignored bits). *)
  let stored = Ptguard.Engine.process_write engine ~addr line in
  Format.printf "@.Stored line (MAC embedded in bits 51:40 of each PTE):@.%a@."
    Ptg_pte.Line.pp stored;

  (* 4. A clean page-table walk verifies and strips the MAC. *)
  (match Ptguard.Engine.process_read engine ~addr ~is_pte:true stored with
  | { integrity = Ptguard.Engine.Passed; line = Some clean; _ } ->
      assert (Ptg_pte.Line.equal clean line);
      Format.printf "@.Clean walk: integrity PASSED, MAC stripped, PTEs intact.@."
  | _ -> assert false);

  (* 5. Rowhammer flips a PFN bit — the classic privilege-escalation
        primitive (Figure 1 of the paper). *)
  let faulty = Ptg_pte.Line.flip_bit stored (3 * 64 + 20) in
  Format.printf "@.Rowhammer flips PFN bit 20 of PTE 3...@.";

  (match Ptguard.Engine.process_read engine ~addr ~is_pte:true faulty with
  | { integrity = Ptguard.Engine.Corrected { step; guesses }; line = Some fixed; _ } ->
      assert (Ptg_pte.Line.equal fixed line);
      Format.printf
        "Walk: tampering DETECTED and CORRECTED via %s after %d guesses.@."
        (Ptguard.Correction.step_name step)
        guesses
  | { integrity = Ptguard.Engine.Failed; _ } ->
      Format.printf "Walk: tampering DETECTED; exception raised to the OS.@."
  | _ -> assert false);

  (* 6. Costs (Section V-E). *)
  Format.printf "@.%a@." Ptguard.Cost.pp
    (Ptguard.Cost.of_config (Ptguard.Engine.config engine))
