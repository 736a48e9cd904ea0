open Ptg_vm

(* --- Phys_mem --------------------------------------------------------- *)

let test_phys_mem_hashtbl () =
  let m = Phys_mem.of_hashtbl () in
  Alcotest.(check int64) "unwritten reads zero" 0L (m.Phys_mem.read_word 0x100L);
  m.Phys_mem.write_word 0x100L 42L;
  Alcotest.(check int64) "read back" 42L (m.Phys_mem.read_word 0x100L);
  m.Phys_mem.write_word 0x100L 0L;
  Alcotest.(check int64) "zero write clears" 0L (m.Phys_mem.read_word 0x100L)

let test_phys_mem_alignment () =
  let m = Phys_mem.of_hashtbl () in
  Alcotest.check_raises "unaligned read" (Invalid_argument "Phys_mem: unaligned word address")
    (fun () -> ignore (m.Phys_mem.read_word 0x101L))

let test_phys_mem_dram () =
  let dram = Ptg_dram.Dram.create () in
  let m = Phys_mem.of_dram dram in
  m.Phys_mem.write_word 0x208L 7L;
  m.Phys_mem.write_word 0x210L 9L;
  Alcotest.(check int64) "word 1 via dram" 7L (m.Phys_mem.read_word 0x208L);
  let line = Ptg_dram.Dram.read_line dram 0x200L in
  Alcotest.(check int64) "line word 1" 7L (Ptg_pte.Line.get line 1);
  Alcotest.(check int64) "line word 2" 9L (Ptg_pte.Line.get line 2)

let test_phys_mem_line_helpers () =
  let m = Phys_mem.of_hashtbl () in
  let line = Ptg_pte.Line.init (fun i -> Int64.of_int (100 + i)) in
  Phys_mem.write_line m 0x400L line;
  Alcotest.(check bool) "read_line roundtrip" true
    (Ptg_pte.Line.equal line (Phys_mem.read_line m 0x400L));
  Alcotest.(check int64) "word view agrees" 103L (m.Phys_mem.read_word 0x418L)

(* --- Frame_allocator --------------------------------------------------- *)

let test_alloc_sequential () =
  let rng = Ptg_util.Rng.create 1L in
  let a = Frame_allocator.create ~p_break:0.0 ~start_frame:100L ~max_frame:1000L rng in
  Alcotest.(check int64) "first" 100L (Frame_allocator.alloc a);
  Alcotest.(check int64) "second" 101L (Frame_allocator.alloc a);
  let run = Frame_allocator.alloc_run a 5 in
  Alcotest.(check (array int64)) "run contiguous with p_break 0"
    [| 102L; 103L; 104L; 105L; 106L |] run;
  Alcotest.(check int) "count" 7 (Frame_allocator.frames_allocated a)

let test_alloc_breaks () =
  let rng = Ptg_util.Rng.create 2L in
  let a = Frame_allocator.create ~p_break:1.0 ~start_frame:0L ~max_frame:1_000_000L rng in
  let run = Frame_allocator.alloc_run a 10 in
  let contiguous = ref 0 in
  for i = 1 to 9 do
    if Int64.equal run.(i) (Int64.add run.(i - 1) 1L) then incr contiguous
  done;
  Alcotest.(check int) "p_break 1 never contiguous" 0 !contiguous

let test_alloc_validation () =
  let rng = Ptg_util.Rng.create 3L in
  Alcotest.check_raises "empty range"
    (Invalid_argument "Frame_allocator.create: empty frame range") (fun () ->
      ignore (Frame_allocator.create ~start_frame:10L ~max_frame:10L rng))

let test_alloc_bounds () =
  let rng = Ptg_util.Rng.create 4L in
  let a = Frame_allocator.create ~p_break:0.5 ~start_frame:50L ~max_frame:60L rng in
  for _ = 1 to 100 do
    let f = Frame_allocator.alloc a in
    if Int64.compare f 50L < 0 || Int64.compare f 60L >= 0 then
      Alcotest.fail "frame out of range"
  done

(* --- Page_table --------------------------------------------------------- *)

let fresh_table () =
  let rng = Ptg_util.Rng.create 5L in
  let mem = Phys_mem.of_hashtbl () in
  let alloc = Frame_allocator.create ~p_break:0.0 ~start_frame:0x1000L rng in
  (Page_table.create ~mem ~alloc, mem)

let test_level_index () =
  let v = 0x0000_7FFF_FFFF_F000L in
  Alcotest.(check int) "pml4 index" 255 (Page_table.level_index Page_table.Pml4 v);
  Alcotest.(check int) "pt index" 511 (Page_table.level_index Page_table.Pt v);
  Alcotest.(check int) "index of 0" 0 (Page_table.level_index Page_table.Pd 0L)

let test_map_lookup () =
  let table, _ = fresh_table () in
  let pte = Ptg_pte.X86.make ~writable:true ~pfn:0xABCDL () in
  Page_table.map table ~vaddr:0x7F00_0000L ~pte;
  (match Page_table.lookup table ~vaddr:0x7F00_0ABCL (* same page *) with
  | Some got -> Alcotest.(check int64) "lookup finds pte" pte got
  | None -> Alcotest.fail "lookup missed");
  Alcotest.(check (option int64)) "unmapped page" None
    (Page_table.lookup table ~vaddr:0x5000_0000L |> function
     | Some v when Int64.equal v 0L -> None (* zero PTE = not mapped *)
     | other -> other)

let test_translate () =
  let table, _ = fresh_table () in
  let pte = Ptg_pte.X86.make ~pfn:0x500L () in
  Page_table.map table ~vaddr:0x12345000L ~pte;
  Alcotest.(check (option int64)) "translate keeps page offset"
    (Some (Int64.logor (Int64.shift_left 0x500L 12) 0x123L))
    (Page_table.translate table ~vaddr:0x12345123L)

let test_unmap () =
  let table, _ = fresh_table () in
  Page_table.map table ~vaddr:0x1000L ~pte:(Ptg_pte.X86.make ~pfn:1L ());
  Page_table.unmap table ~vaddr:0x1000L;
  Alcotest.(check (option int64)) "unmapped reads zero PTE" (Some 0L)
    (Page_table.lookup table ~vaddr:0x1000L)

let test_walk_depth () =
  let table, _ = fresh_table () in
  Page_table.map table ~vaddr:0x2000L ~pte:(Ptg_pte.X86.make ~pfn:2L ());
  let steps = Page_table.walk table ~vaddr:0x2000L in
  Alcotest.(check int) "4-level walk" 4 (List.length steps);
  let levels = List.map (fun s -> s.Page_table.level) steps in
  Alcotest.(check bool) "level order" true
    (levels = [ Page_table.Pml4; Page_table.Pdpt; Page_table.Pd; Page_table.Pt ]);
  (* walk of an unmapped region stops at the first non-present entry *)
  let short = Page_table.walk table ~vaddr:0x7000_0000_0000L in
  Alcotest.(check int) "short walk" 1 (List.length short)

let test_table_frames_and_leaves () =
  let table, _ = fresh_table () in
  Page_table.map table ~vaddr:0x3000L ~pte:(Ptg_pte.X86.make ~pfn:3L ());
  (* root + pdpt + pd + pt = 4 frames *)
  Alcotest.(check int) "4 table frames" 4 (List.length (Page_table.table_frames table));
  (* one leaf PT page = 64 cachelines *)
  Alcotest.(check int) "64 leaf lines" 64 (List.length (Page_table.leaf_line_addrs table));
  (* mapping a second page nearby must not allocate new tables *)
  Page_table.map table ~vaddr:0x4000L ~pte:(Ptg_pte.X86.make ~pfn:4L ());
  Alcotest.(check int) "tables reused" 4 (List.length (Page_table.table_frames table))

let test_new_tables_zeroed () =
  (* alloc_table zeroes the fresh page through the memory interface. *)
  let writes = ref [] in
  let backing = Phys_mem.of_hashtbl () in
  let mem =
    {
      Phys_mem.read_word = backing.Phys_mem.read_word;
      write_word =
        (fun a v ->
          writes := (a, v) :: !writes;
          backing.Phys_mem.write_word a v);
    }
  in
  let rng = Ptg_util.Rng.create 6L in
  let alloc = Frame_allocator.create ~p_break:0.0 ~start_frame:0x1000L rng in
  let _ = Page_table.create ~mem ~alloc in
  Alcotest.(check int) "512 zeroing writes for the root" 512 (List.length !writes)

let test_huge_pages () =
  let table, _ = fresh_table () in
  let pde = Ptg_pte.X86.make ~writable:true ~user:true ~pfn:(Int64.mul 512L 7L) () in
  Page_table.map_huge table ~vaddr:0x4000_0000L ~pde;
  (* the walk terminates at the PD with the PS bit set *)
  let steps = Page_table.walk table ~vaddr:0x4000_0000L in
  Alcotest.(check int) "3-level walk for huge page" 3 (List.length steps);
  let last = List.nth steps 2 in
  Alcotest.(check bool) "PS bit set" true
    (Ptg_pte.X86.get_flag last.Page_table.entry Ptg_pte.X86.Huge_page);
  (* translation keeps the 21-bit offset *)
  Alcotest.(check (option int64)) "huge translation"
    (Some (Int64.logor (Int64.shift_left (Int64.mul 512L 7L) 12) 0x12345L))
    (Page_table.translate table ~vaddr:(Int64.add 0x4000_0000L 0x12345L));
  (* misaligned PFN rejected *)
  Alcotest.check_raises "alignment check"
    (Invalid_argument "Page_table.map_huge: PFN not 2MB-aligned") (fun () ->
      Page_table.map_huge table ~vaddr:0x5000_0000L
        ~pde:(Ptg_pte.X86.make ~pfn:7L ()))

let prop_map_lookup_roundtrip =
  QCheck2.Test.make ~name:"map/lookup roundtrip over random vaddrs" ~count:100
    QCheck2.Gen.(map (fun x -> Int64.logand x 0x0000_7FFF_FFFF_F000L) int64)
    (fun vaddr ->
      let table, _ = fresh_table () in
      let pte = Ptg_pte.X86.make ~writable:true ~pfn:0x77L () in
      Page_table.map table ~vaddr ~pte;
      match Page_table.lookup table ~vaddr with
      | Some got -> Int64.equal got pte
      | None -> false)

let suite =
  [
    Alcotest.test_case "phys_mem hashtbl" `Quick test_phys_mem_hashtbl;
    Alcotest.test_case "phys_mem alignment" `Quick test_phys_mem_alignment;
    Alcotest.test_case "phys_mem dram" `Quick test_phys_mem_dram;
    Alcotest.test_case "phys_mem line helpers" `Quick test_phys_mem_line_helpers;
    Alcotest.test_case "alloc sequential" `Quick test_alloc_sequential;
    Alcotest.test_case "alloc breaks" `Quick test_alloc_breaks;
    Alcotest.test_case "alloc validation" `Quick test_alloc_validation;
    Alcotest.test_case "alloc bounds" `Quick test_alloc_bounds;
    Alcotest.test_case "level index" `Quick test_level_index;
    Alcotest.test_case "map/lookup" `Quick test_map_lookup;
    Alcotest.test_case "translate" `Quick test_translate;
    Alcotest.test_case "unmap" `Quick test_unmap;
    Alcotest.test_case "walk depth" `Quick test_walk_depth;
    Alcotest.test_case "table frames / leaves" `Quick test_table_frames_and_leaves;
    Alcotest.test_case "new tables zeroed" `Quick test_new_tables_zeroed;
    Alcotest.test_case "huge pages" `Quick test_huge_pages;
    QCheck_alcotest.to_alcotest prop_map_lookup_roundtrip;
  ]
