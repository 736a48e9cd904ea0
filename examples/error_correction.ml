(* Best-effort correction walkthrough (paper Section VI).

   Exercises each correction strategy on hand-built PTE cachelines so you
   can see exactly which guess repairs which damage class:

   - faults in the MAC itself        -> soft MAC match (k = 4)
   - a single flipped protected bit  -> flip-and-check
   - a shredded zero PTE             -> almost-zero reset
   - flag damage across PTEs         -> bitwise flag majority vote
   - PFN damage on contiguous runs   -> contiguity reconstruction
   - flags + PFNs together           -> the combined step

   Run with: dune exec examples/error_correction.exe *)

open Ptguard

let show title (outcome : Engine.read_result) original =
  let verdict =
    match outcome.Engine.integrity with
    | Engine.Passed -> "PASSED (damage was in unprotected bits)"
    | Engine.Corrected { step; guesses } ->
        let faithful =
          match outcome.Engine.line with
          | Some l ->
              let m = Ptg_pte.Protection.masked_for_mac Ptg_pte.Protection.default in
              Ptg_pte.Line.equal (m l) (m original)
          | None -> false
        in
        Printf.sprintf "CORRECTED by %s after %d guesses (faithful: %b)"
          (Correction.step_name step) guesses faithful
    | Engine.Failed -> "UNCORRECTABLE -> exception to OS (still detected)"
    | Engine.Data_protected | Engine.Data_passthrough -> "unexpected data-path result"
  in
  Printf.printf "%-34s %s\n" title verdict

let () =
  let rng = Ptg_util.Rng.create 6L in
  let engine = Engine.create ~config:Config.optimized ~rng () in

  (* A realistic line: contiguous PFNs, uniform flags, two zero PTEs. *)
  let line =
    Ptg_pte.Line.init (fun i ->
        if i >= 6 then 0L
        else
          Ptg_pte.X86.make ~writable:true ~user:true ~dirty:true
            ~pfn:(Int64.of_int (0x52700 + i))
            ())
  in
  let addr = 0xABC0_0000L in
  let stored = Engine.process_write engine ~addr line in
  let read faulty = Engine.process_read engine ~addr ~is_pte:true faulty in
  let flip bits = Ptg_rowhammer.Inject.flip_bits stored bits in
  let pte_bit word bit = (word * 64) + bit in

  Printf.printf "Line: 6 contiguous PTEs (pfn 0x52700..) + 2 zero PTEs\n\n";

  (* 1. Three flips inside the MAC field of PTE 2 (bits 51:40). *)
  show "3 flips in the stored MAC:" (read (flip [ pte_bit 2 40; pte_bit 2 44; pte_bit 2 50 ])) line;

  (* 2. One flip in a PFN bit. *)
  show "1 flip in a PFN bit:" (read (flip [ pte_bit 4 17 ])) line;

  (* 3. One flip in the User/Supervisor bit — the classic privilege bit. *)
  show "1 flip in the U/S bit:" (read (flip [ pte_bit 1 2 ])) line;

  (* 4. Zero PTE riddled with three flips. *)
  show "3 flips in a zero PTE:" (read (flip [ pte_bit 7 3; pte_bit 7 25; pte_bit 7 33 ])) line;

  (* 5. Writable-bit flips in two different PTEs (flag vote territory). *)
  show "W-bit flips in 2 PTEs:" (read (flip [ pte_bit 0 1; pte_bit 3 1 ])) line;

  (* 6. PFN damage in two PTEs (contiguity reconstruction). *)
  show "PFN flips in 2 PTEs:" (read (flip [ pte_bit 1 14; pte_bit 5 21 ])) line;

  (* 7. Flags and PFNs together (combined step). *)
  show "flag + PFN flips together:" (read (flip [ pte_bit 0 63; pte_bit 2 13 ])) line;

  (* 8. Flip in the Accessed bit — unprotected by design (Table IV). *)
  show "1 flip in the Accessed bit:" (read (flip [ pte_bit 3 5 ])) line;

  (* 9. Identifier-field flips are trivially corrected (known on-chip). *)
  show "2 flips in the identifier:" (read (flip [ pte_bit 2 53; pte_bit 6 55 ])) line;

  (* 10. Carpet-bombing: 14 flips across everything. *)
  let heavy = List.init 14 (fun i -> pte_bit (i mod 8) ((i * 9 mod 40) + 12)) in
  show "14 flips across the line:" (read (flip heavy)) line;

  let s = Engine.stats engine in
  Printf.printf
    "\nEngine stats: %d PTE reads, %d corrections attempted, %d succeeded, %d failures.\n"
    s.Engine.reads_pte s.Engine.corrections_attempted s.Engine.corrections_succeeded
    s.Engine.integrity_failures
