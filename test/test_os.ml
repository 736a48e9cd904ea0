open Ptg_os

let setup ?policy seed =
  let rng = Ptg_util.Rng.create seed in
  let dram = Ptg_dram.Dram.create () in
  let engine = Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng () in
  let mc = Ptg_memctrl.Memctrl.create ~engine dram in
  let os = Os_handler.attach ?policy ~rng:(Ptg_util.Rng.split rng) mc in
  (mc, dram, os, rng)

let pte_line () =
  Ptg_pte.Line.init (fun i -> Ptg_pte.X86.make ~writable:true ~pfn:(Int64.of_int (0xA00 + i)) ())

let meta =
  Int64.logor Ptg_pte.Protection.mac_field_mask Ptg_pte.Protection.identifier_field_mask

let plant_collision mc dram i =
  let addr = Int64.of_int (0x9200_0000 + (64 * i)) in
  let payload = Ptg_pte.Line.init (fun j -> Int64.of_int ((i * 77) + j)) in
  ignore (Ptg_memctrl.Memctrl.write_line mc ~addr payload ());
  Ptg_dram.Dram.flip_stored_bit dram ~addr ~bit:1;
  let leaked =
    match Ptg_memctrl.Memctrl.read_line mc ~addr ~is_pte:false () with
    | { Ptg_memctrl.Memctrl.data = Some l; _ } -> l
    | _ -> assert false
  in
  let crafted =
    Ptg_pte.Line.init (fun j ->
        Int64.logor
          (Int64.logand (Ptg_pte.Line.get payload j) (Int64.lognot meta))
          (Int64.logand (Ptg_pte.Line.get leaked j) meta))
  in
  ignore (Ptg_memctrl.Memctrl.write_line mc ~addr crafted ());
  addr

let test_integrity_failure_journal () =
  let mc, dram, os, _ = setup 1L in
  ignore (Ptg_memctrl.Memctrl.write_line mc ~addr:0x8000L (pte_line ()) ());
  for i = 0 to 9 do
    Ptg_dram.Dram.flip_stored_bit dram ~addr:0x8000L ~bit:(i * 41 mod 512)
  done;
  (match Ptg_memctrl.Memctrl.read_line mc ~addr:0x8000L ~is_pte:true () with
  | { Ptg_memctrl.Memctrl.data = None; _ } -> ()
  | _ -> Alcotest.fail "10 scattered flips should be uncorrectable");
  Alcotest.(check int) "failure counted" 1 (Os_handler.integrity_failures os);
  let c = Ptg_dram.Geometry.decode (Ptg_dram.Dram.geometry dram) 0x8000L in
  Alcotest.(check bool) "row flagged bad" true
    (Os_handler.is_bad_row os ~channel:c.Ptg_dram.Geometry.channel
       ~bank:c.Ptg_dram.Geometry.bank ~row:c.Ptg_dram.Geometry.row);
  Alcotest.(check int) "one bad row" 1 (List.length (Os_handler.bad_rows os))

let test_failure_threshold () =
  let policy = { Os_handler.default_policy with Os_handler.failure_threshold_per_row = 3 } in
  let mc, dram, os, _ = setup ~policy 2L in
  ignore (Ptg_memctrl.Memctrl.write_line mc ~addr:0x8000L (pte_line ()) ());
  for i = 0 to 9 do
    Ptg_dram.Dram.flip_stored_bit dram ~addr:0x8000L ~bit:(i * 41 mod 512)
  done;
  ignore (Ptg_memctrl.Memctrl.read_line mc ~addr:0x8000L ~is_pte:true ());
  Alcotest.(check int) "below threshold: no bad rows" 0
    (List.length (Os_handler.bad_rows os));
  ignore (Ptg_memctrl.Memctrl.read_line mc ~addr:0x8000L ~is_pte:true ());
  ignore (Ptg_memctrl.Memctrl.read_line mc ~addr:0x8000L ~is_pte:true ());
  Alcotest.(check int) "threshold crossed" 1 (List.length (Os_handler.bad_rows os))

let test_auto_rekey_on_overflow () =
  let mc, dram, os, _ = setup 3L in
  for i = 1 to 5 do
    ignore (plant_collision mc dram i)
  done;
  let has_rekey =
    List.exists (function Os_handler.Rekeyed _ -> true | _ -> false) (Os_handler.events os)
  in
  let has_overflow =
    List.exists
      (function Os_handler.Overflowed_ctb -> true | _ -> false)
      (Os_handler.events os)
  in
  Alcotest.(check bool) "overflow journaled" true has_overflow;
  Alcotest.(check bool) "auto-rekey ran" true has_rekey;
  Alcotest.(check int) "collisions counted" 4 (Os_handler.collisions_seen os)

let test_no_auto_rekey_policy () =
  let policy = { Os_handler.default_policy with Os_handler.auto_rekey_on_overflow = false } in
  let mc, dram, os, _ = setup ~policy 4L in
  for i = 1 to 5 do
    ignore (plant_collision mc dram i)
  done;
  Alcotest.(check bool) "no rekey under policy" false
    (List.exists (function Os_handler.Rekeyed _ -> true | _ -> false) (Os_handler.events os))

let test_resolve_collision () =
  let mc, dram, os, _ = setup 5L in
  let addr = plant_collision mc dram 1 in
  let engine = Option.get (Ptg_memctrl.Memctrl.engine mc) in
  Alcotest.(check bool) "tracked" true (Ptguard.Ctb.mem (Ptguard.Engine.ctb engine) addr);
  Alcotest.(check bool) "benign rewrite evicts" true
    (Os_handler.resolve_collision os ~addr ~benign:(Ptg_pte.Line.of_words (Array.make 8 0x42L)))

let test_remap_pt_page () =
  let mc, dram, os, rng = setup 6L in
  let mem = Ptg_memctrl.Memctrl.phys_mem mc in
  let alloc = Ptg_vm.Frame_allocator.create ~p_break:0.0 ~start_frame:0x50000L rng in
  let table = Ptg_vm.Page_table.create ~mem ~alloc in
  let vaddr = 0x4444_0000L in
  let pte = Ptg_pte.X86.make ~writable:true ~user:true ~pfn:0x321L () in
  Ptg_vm.Page_table.map table ~vaddr ~pte;
  (* map a sibling page in the same leaf table: it must survive the move *)
  Ptg_vm.Page_table.map table ~vaddr:(Int64.add vaddr 0x1000L)
    ~pte:(Ptg_pte.X86.make ~writable:true ~pfn:0x322L ());
  match Os_handler.remap_pt_page os ~table ~alloc ~vaddr with
  | None -> Alcotest.fail "remap should find the leaf table"
  | Some (old_frame, new_frame) ->
      Alcotest.(check bool) "frames differ" false (Int64.equal old_frame new_frame);
      (* both mappings still resolve after migration *)
      (match Ptg_vm.Page_table.lookup table ~vaddr with
      | Some got -> Alcotest.(check int64) "primary PTE preserved" pte got
      | None -> Alcotest.fail "primary lookup lost");
      (match
         Ptg_memctrl.Mmu.walk mc ~root:(Ptg_vm.Page_table.root table)
           ~vaddr:(Int64.add vaddr 0x1000L)
       with
      | Ptg_memctrl.Mmu.Translated { paddr; _ } ->
          Alcotest.(check int64) "sibling mapping intact" (Int64.shift_left 0x322L 12) paddr
      | _ -> Alcotest.fail "sibling walk failed after remap");
      (* hammering the OLD frame must no longer affect translations *)
      Ptg_dram.Dram.flip_stored_bit dram ~addr:(Int64.shift_left old_frame 12) ~bit:7;
      (match Ptg_memctrl.Mmu.walk mc ~root:(Ptg_vm.Page_table.root table) ~vaddr with
      | Ptg_memctrl.Mmu.Translated _ -> ()
      | _ -> Alcotest.fail "walk must not touch the abandoned frame");
      Alcotest.(check bool) "remap journaled" true
        (List.exists
           (function Os_handler.Remapped_pt_page _ -> true | _ -> false)
           (Os_handler.events os))

let test_remap_damaged_line_zeroed () =
  (* An uncorrectable line in the old table is zeroed during migration
     (the OS re-faults those pages); the rest survives. *)
  let mc, dram, os, rng = setup 7L in
  let mem = Ptg_memctrl.Memctrl.phys_mem mc in
  let alloc = Ptg_vm.Frame_allocator.create ~p_break:0.0 ~start_frame:0x60000L rng in
  let table = Ptg_vm.Page_table.create ~mem ~alloc in
  let vaddr = 0x7777_0000L in
  Ptg_vm.Page_table.map table ~vaddr ~pte:(Ptg_pte.X86.make ~writable:true ~pfn:0x999L ());
  let leaf_line =
    Ptg_pte.Line.line_addr
      (List.nth (Ptg_vm.Page_table.walk table ~vaddr) 3).Ptg_vm.Page_table.entry_addr
  in
  for i = 0 to 9 do
    Ptg_dram.Dram.flip_stored_bit dram ~addr:leaf_line ~bit:(i * 47 mod 512)
  done;
  (match Os_handler.remap_pt_page os ~table ~alloc ~vaddr with
  | Some _ -> ()
  | None -> Alcotest.fail "remap failed");
  match Ptg_vm.Page_table.lookup table ~vaddr with
  | Some pte -> Alcotest.(check int64) "damaged PTE dropped to zero" 0L pte
  | None -> Alcotest.fail "leaf table should still exist"

let test_unguarded_noop () =
  let rng = Ptg_util.Rng.create 8L in
  let mc = Ptg_memctrl.Memctrl.create (Ptg_dram.Dram.create ()) in
  let os = Os_handler.attach ~rng mc in
  Alcotest.(check int) "no events" 0 (List.length (Os_handler.events os))

let suite =
  [
    Alcotest.test_case "integrity failure journal" `Quick test_integrity_failure_journal;
    Alcotest.test_case "failure threshold" `Quick test_failure_threshold;
    Alcotest.test_case "auto rekey on overflow" `Quick test_auto_rekey_on_overflow;
    Alcotest.test_case "no-auto-rekey policy" `Quick test_no_auto_rekey_policy;
    Alcotest.test_case "resolve collision" `Quick test_resolve_collision;
    Alcotest.test_case "remap pt page" `Quick test_remap_pt_page;
    Alcotest.test_case "remap zeroes damaged line" `Quick test_remap_damaged_line_zeroed;
    Alcotest.test_case "unguarded no-op" `Quick test_unguarded_noop;
  ]
