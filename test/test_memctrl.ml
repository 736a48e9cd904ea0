open Ptg_memctrl

let setup ?(guarded = true) seed =
  let rng = Ptg_util.Rng.create seed in
  let dram = Ptg_dram.Dram.create () in
  let engine =
    if guarded then Some (Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng ())
    else None
  in
  Memctrl.create ?engine dram

let pte_line () =
  Ptg_pte.Line.init (fun i -> Ptg_pte.X86.make ~writable:true ~pfn:(Int64.of_int (0x900 + i)) ())

let test_rw_roundtrip () =
  let mc = setup 1L in
  let line = pte_line () in
  let wlat = Memctrl.write_line mc ~addr:0x1000L line () in
  Alcotest.(check bool) "write latency positive" true (wlat > 0);
  match Memctrl.read_line mc ~addr:0x1000L ~is_pte:true () with
  | { Memctrl.data = Some out; integrity = Ptguard.Engine.Passed; latency } ->
      Alcotest.(check bool) "line restored" true (Ptg_pte.Line.equal out line);
      Alcotest.(check bool) "read latency includes MAC" true (latency > 10)
  | _ -> Alcotest.fail "clean roundtrip failed"

let test_unguarded_passthrough () =
  let mc = setup ~guarded:false 2L in
  let line = pte_line () in
  ignore (Memctrl.write_line mc ~addr:0x2000L line ());
  (* without an engine the stored bits are the logical bits *)
  let raw = Ptg_dram.Dram.read_line (Memctrl.dram mc) 0x2000L in
  Alcotest.(check bool) "no MAC embedded" true (Ptg_pte.Line.equal raw line);
  Alcotest.(check bool) "engine absent" true (Memctrl.engine mc = None)

let test_guarded_stores_mac () =
  let mc = setup 3L in
  let line = pte_line () in
  ignore (Memctrl.write_line mc ~addr:0x3000L line ());
  let raw = Ptg_dram.Dram.read_line (Memctrl.dram mc) 0x3000L in
  Alcotest.(check bool) "DRAM holds MAC-carrying bits" false (Ptg_pte.Line.equal raw line)

let test_phys_mem_view () =
  let mc = setup 4L in
  let mem = Memctrl.phys_mem mc in
  mem.Ptg_vm.Phys_mem.write_word 0x4008L 0xABCL;
  Alcotest.(check int64) "word view roundtrip" 0xABCL (mem.Ptg_vm.Phys_mem.read_word 0x4008L);
  (* read-modify-write through the engine must not corrupt neighbours *)
  mem.Ptg_vm.Phys_mem.write_word 0x4010L 0xDEFL;
  Alcotest.(check int64) "neighbour intact" 0xABCL (mem.Ptg_vm.Phys_mem.read_word 0x4008L)

let test_phys_mem_pte_rmw () =
  (* Writing PTEs word-by-word through the controller must still produce a
     verifiable protected line (the kernel's actual write pattern). *)
  let mc = setup 5L in
  let mem = Memctrl.phys_mem mc in
  let line = pte_line () in
  Array.iteri
    (fun i pte -> mem.Ptg_vm.Phys_mem.write_word (Int64.of_int (0x5000 + (i * 8))) pte)
    (Ptg_pte.Line.to_words line);
  match Memctrl.read_line mc ~addr:0x5000L ~is_pte:true () with
  | { Memctrl.data = Some out; integrity = Ptguard.Engine.Passed; _ } ->
      Alcotest.(check bool) "word-written PTE line verifies" true
        (Ptg_pte.Line.equal out line)
  | _ -> Alcotest.fail "RMW-built PTE line must verify"

let test_tampered_walk_detected () =
  let mc = setup 6L in
  ignore (Memctrl.write_line mc ~addr:0x6000L (pte_line ()) ());
  Ptg_dram.Dram.flip_stored_bit (Memctrl.dram mc) ~addr:0x6000L ~bit:2;
  match Memctrl.read_line mc ~addr:0x6000L ~is_pte:true () with
  | { Memctrl.integrity = Ptguard.Engine.Corrected _; data = Some _; _ } -> ()
  | { Memctrl.integrity = Ptguard.Engine.Failed; data = None; _ } -> ()
  | _ -> Alcotest.fail "tampering must be detected on walks"

let test_rekey_via_controller () =
  let mc = setup 7L in
  let line = pte_line () in
  ignore (Memctrl.write_line mc ~addr:0x7000L line ());
  let before = Ptg_dram.Dram.read_line (Memctrl.dram mc) 0x7000L in
  Memctrl.rekey mc ~rng:(Ptg_util.Rng.create 123L);
  let after = Ptg_dram.Dram.read_line (Memctrl.dram mc) 0x7000L in
  Alcotest.(check bool) "stored bits changed" false (Ptg_pte.Line.equal before after);
  match Memctrl.read_line mc ~addr:0x7000L ~is_pte:true () with
  | { Memctrl.data = Some out; integrity = Ptguard.Engine.Passed; _ } ->
      Alcotest.(check bool) "verifies under new key" true (Ptg_pte.Line.equal out line)
  | _ -> Alcotest.fail "rekeyed line must verify"

(* Under the Optimized design an all-zero PTE line carries the
   address-free MAC-zero; a rekey must recognise the old key's MAC-zero
   and re-embed the new one, or the next walk fails and data reads see
   the stale MAC bits. *)
let test_rekey_zero_line () =
  let mc = setup 9L in
  ignore (Memctrl.write_line mc ~addr:0x4040L (Ptg_pte.Line.create ()) ());
  Memctrl.rekey mc ~rng:(Ptg_util.Rng.create 321L);
  (match Memctrl.read_line mc ~addr:0x4040L ~is_pte:true () with
  | { Memctrl.data = Some out; integrity = Ptguard.Engine.Passed; _ } ->
      Alcotest.(check bool) "walk sees the zero line" true (Ptg_pte.Line.is_zero out)
  | _ -> Alcotest.fail "rekeyed zero line must verify");
  match Memctrl.read_line mc ~addr:0x4040L ~is_pte:false () with
  | { Memctrl.data = Some out; _ } ->
      Alcotest.(check bool) "data read is zero" true (Ptg_pte.Line.is_zero out)
  | _ -> Alcotest.fail "a data read always forwards a line"

(* --- MMU walker -------------------------------------------------------- *)

let build_table mc seed =
  let rng = Ptg_util.Rng.create seed in
  let mem = Memctrl.phys_mem mc in
  let alloc = Ptg_vm.Frame_allocator.create ~p_break:0.0 ~start_frame:0x100L rng in
  Ptg_vm.Page_table.create ~mem ~alloc

let test_mmu_translated () =
  let mc = setup 8L in
  let table = build_table mc 8L in
  let pte = Ptg_pte.X86.make ~writable:true ~user:true ~pfn:0xCAFEL () in
  Ptg_vm.Page_table.map table ~vaddr:0x1234_5000L ~pte;
  match Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr:0x1234_5678L with
  | Mmu.Translated { paddr; pte = got; latency } ->
      Alcotest.(check int64) "translation with offset"
        (Int64.logor (Int64.shift_left 0xCAFEL 12) 0x678L)
        paddr;
      Alcotest.(check int64) "pte returned" pte got;
      Alcotest.(check bool) "walk latency" true (latency > 0)
  | o -> Alcotest.failf "unexpected outcome: %s" (Format.asprintf "%a" Mmu.pp_outcome o)

let test_mmu_not_present () =
  let mc = setup 9L in
  let table = build_table mc 9L in
  match Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr:0x9999_0000L with
  | Mmu.Not_present { level = Ptg_vm.Page_table.Pml4; _ } -> ()
  | _ -> Alcotest.fail "empty table must stop at PML4"

let test_mmu_integrity_failure () =
  let mc = setup 10L in
  let table = build_table mc 10L in
  let pte = Ptg_pte.X86.make ~writable:true ~pfn:0xAAAL () in
  Ptg_vm.Page_table.map table ~vaddr:0x5555_0000L ~pte;
  (* Find the leaf line and wreck it beyond correction. *)
  let steps = Ptg_vm.Page_table.walk table ~vaddr:0x5555_0000L in
  let leaf = List.nth steps 3 in
  let line_addr = Ptg_pte.Line.line_addr leaf.Ptg_vm.Page_table.entry_addr in
  for bit = 0 to 30 do
    Ptg_dram.Dram.flip_stored_bit (Memctrl.dram mc) ~addr:line_addr ~bit:(bit * 16)
  done;
  match Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr:0x5555_0000L with
  | Mmu.Integrity_failure { level = Ptg_vm.Page_table.Pt; line_addr = reported; _ } ->
      Alcotest.(check int64) "failing line reported" line_addr reported
  | Mmu.Corrected_then_translated _ -> Alcotest.fail "30 flips should not correct"
  | o -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Mmu.pp_outcome o)

let test_mmu_corrected () =
  let mc = setup 11L in
  let table = build_table mc 11L in
  let pte = Ptg_pte.X86.make ~writable:true ~pfn:0xBBBL () in
  Ptg_vm.Page_table.map table ~vaddr:0x7777_0000L ~pte;
  let steps = Ptg_vm.Page_table.walk table ~vaddr:0x7777_0000L in
  let leaf = List.nth steps 3 in
  (* single flip in the PTE's own word *)
  let word = Int64.to_int (Int64.logand leaf.Ptg_vm.Page_table.entry_addr 63L) / 8 in
  Ptg_dram.Dram.flip_stored_bit (Memctrl.dram mc)
    ~addr:leaf.Ptg_vm.Page_table.entry_addr
    ~bit:((word * 64) + 13);
  match Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr:0x7777_0000L with
  | Mmu.Corrected_then_translated { paddr; guesses; _ } ->
      Alcotest.(check int64) "correct translation despite flip"
        (Int64.shift_left 0xBBBL 12) paddr;
      Alcotest.(check bool) "guesses reported" true (guesses > 0)
  | o -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Mmu.pp_outcome o)

let test_all_levels_protected () =
  (* Section IV-F: "we protect all page table levels" — tamper each of
     PML4, PDPT and PD in turn; the walk must never consume the damage. *)
  List.iter
    (fun step_idx ->
      let mc = setup (Int64.of_int (20 + step_idx)) in
      let table = build_table mc (Int64.of_int (20 + step_idx)) in
      let pte = Ptg_pte.X86.make ~writable:true ~pfn:0xDDDL () in
      Ptg_vm.Page_table.map table ~vaddr:0x6666_0000L ~pte;
      let steps = Ptg_vm.Page_table.walk table ~vaddr:0x6666_0000L in
      let step = List.nth steps step_idx in
      let word =
        Int64.to_int (Int64.logand step.Ptg_vm.Page_table.entry_addr 63L) / 8
      in
      (* flip a PFN bit of the upper-level entry: redirects the subtree *)
      Ptg_dram.Dram.flip_stored_bit (Memctrl.dram mc)
        ~addr:step.Ptg_vm.Page_table.entry_addr
        ~bit:((word * 64) + 12 + 3);
      match Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr:0x6666_0000L with
      | Mmu.Corrected_then_translated { paddr; _ } ->
          Alcotest.(check int64)
            (Printf.sprintf "level %d healed, correct translation" step_idx)
            (Int64.shift_left 0xDDDL 12) paddr
      | Mmu.Integrity_failure _ -> ()
      | o ->
          Alcotest.failf "level %d tampering consumed: %s" step_idx
            (Format.asprintf "%a" Mmu.pp_outcome o))
    [ 0; 1; 2 ]

let test_mmu_huge_page () =
  let mc = setup 13L in
  let table = build_table mc 13L in
  let pde = Ptg_pte.X86.make ~writable:true ~user:true ~pfn:(Int64.mul 512L 9L) () in
  Ptg_vm.Page_table.map_huge table ~vaddr:0x4000_0000L ~pde;
  (match
     Mmu.walk mc ~root:(Ptg_vm.Page_table.root table)
       ~vaddr:(Int64.add 0x4000_0000L 0xABCDEL)
   with
  | Mmu.Translated { paddr; _ } ->
      Alcotest.(check int64) "huge translation with 21-bit offset"
        (Int64.logor (Int64.shift_left (Int64.mul 512L 9L) 12) 0xABCDEL)
        paddr
  | o -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Mmu.pp_outcome o));
  (* a flip in the huge PDE is detected/corrected on the walk too *)
  let steps = Ptg_vm.Page_table.walk table ~vaddr:0x4000_0000L in
  let pd = List.nth steps 2 in
  let word = Int64.to_int (Int64.logand pd.Ptg_vm.Page_table.entry_addr 63L) / 8 in
  Ptg_dram.Dram.flip_stored_bit (Memctrl.dram mc) ~addr:pd.Ptg_vm.Page_table.entry_addr
    ~bit:((word * 64) + 25);
  match Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr:0x4000_0000L with
  | Mmu.Corrected_then_translated { paddr; _ } ->
      Alcotest.(check int64) "huge PDE healed"
        (Int64.shift_left (Int64.mul 512L 9L) 12) paddr
  | Mmu.Integrity_failure _ -> ()
  | o -> Alcotest.failf "tampered huge PDE consumed: %s" (Format.asprintf "%a" Mmu.pp_outcome o)

let test_mmu_unguarded_consumes_tampered () =
  (* The contrast case: without PT-Guard the walk silently uses the
     flipped PFN — the exploit precondition. *)
  let mc = setup ~guarded:false 12L in
  let table = build_table mc 12L in
  let pte = Ptg_pte.X86.make ~writable:true ~pfn:0x800L () in
  Ptg_vm.Page_table.map table ~vaddr:0x8888_0000L ~pte;
  let steps = Ptg_vm.Page_table.walk table ~vaddr:0x8888_0000L in
  let leaf = List.nth steps 3 in
  let word = Int64.to_int (Int64.logand leaf.Ptg_vm.Page_table.entry_addr 63L) / 8 in
  Ptg_dram.Dram.flip_stored_bit (Memctrl.dram mc)
    ~addr:leaf.Ptg_vm.Page_table.entry_addr
    ~bit:((word * 64) + 12 + 4);
  match Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr:0x8888_0000L with
  | Mmu.Translated { paddr; _ } ->
      Alcotest.(check int64) "silently wrong translation"
        (Int64.shift_left (Int64.logxor 0x800L 0x10L) 12)
        paddr
  | _ -> Alcotest.fail "unguarded walk should consume the flip"

let suite =
  [
    Alcotest.test_case "rw roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "unguarded passthrough" `Quick test_unguarded_passthrough;
    Alcotest.test_case "guarded stores MAC" `Quick test_guarded_stores_mac;
    Alcotest.test_case "phys_mem view" `Quick test_phys_mem_view;
    Alcotest.test_case "phys_mem PTE RMW" `Quick test_phys_mem_pte_rmw;
    Alcotest.test_case "tampered walk detected" `Quick test_tampered_walk_detected;
    Alcotest.test_case "rekey via controller" `Quick test_rekey_via_controller;
    Alcotest.test_case "rekey keeps a zero line" `Quick test_rekey_zero_line;
    Alcotest.test_case "mmu: translated" `Quick test_mmu_translated;
    Alcotest.test_case "mmu: not present" `Quick test_mmu_not_present;
    Alcotest.test_case "mmu: integrity failure" `Quick test_mmu_integrity_failure;
    Alcotest.test_case "mmu: corrected" `Quick test_mmu_corrected;
    Alcotest.test_case "mmu: all levels protected" `Quick test_all_levels_protected;
    Alcotest.test_case "mmu: huge page" `Quick test_mmu_huge_page;
    Alcotest.test_case "mmu: unguarded contrast" `Quick test_mmu_unguarded_consumes_tampered;
  ]
