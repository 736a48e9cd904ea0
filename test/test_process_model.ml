open Ptg_vm

let test_draw_params_shape () =
  let rng = Ptg_util.Rng.create 1L in
  for _ = 1 to 200 do
    let p = Process_model.draw_params rng in
    if p.Process_model.target_ptes < 512 then Alcotest.fail "target too small";
    if p.Process_model.target_ptes mod 512 <> 0 then
      Alcotest.fail "target not a PT-page multiple";
    if p.Process_model.mean_run < 1.0 || p.Process_model.mean_gap < 1.0 then
      Alcotest.fail "degenerate run/gap";
    if p.Process_model.p_break < 0.0 || p.Process_model.p_break > 1.0 then
      Alcotest.fail "p_break out of range"
  done

let test_vma_budget () =
  let rng = Ptg_util.Rng.create 2L in
  let p = Process_model.draw_params rng in
  let vmas = Process_model.generate_vmas rng p in
  let total_span =
    List.fold_left (fun acc v -> acc + (512 * ((v.Process_model.npages + 511) / 512))) 0 vmas
  in
  Alcotest.(check bool) "span covers target" true (total_span >= p.Process_model.target_ptes);
  (* fixed segments always present *)
  let kinds = List.map (fun v -> v.Process_model.kind) vmas in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Process_model.vma_kind_name k ^ " present") true
        (List.mem k kinds))
    [ Process_model.Code; Process_model.Data; Process_model.Stack; Process_model.Heap ]

let test_vma_disjoint () =
  let rng = Ptg_util.Rng.create 3L in
  let p = Process_model.draw_params rng in
  let vmas = Process_model.generate_vmas rng p in
  let rec check = function
    | a :: (b :: _ as rest) ->
        let a_end =
          Int64.add a.Process_model.start_vpn
            (Int64.of_int (512 * ((a.Process_model.npages + 511) / 512)))
        in
        if Int64.compare a_end b.Process_model.start_vpn > 0 then
          Alcotest.fail "VMAs overlap";
        check rest
    | _ -> ()
  in
  check vmas;
  List.iter
    (fun v ->
      if Int64.rem v.Process_model.start_vpn 512L <> 0L then
        Alcotest.fail "VMA not 2MB aligned")
    vmas

let test_leaf_lines_shape () =
  let rng = Ptg_util.Rng.create 4L in
  let p = Process_model.draw_params rng in
  let lines = Process_model.leaf_lines rng p in
  Alcotest.(check bool) "enough lines" true (Array.length lines * 8 >= p.Process_model.target_ptes);
  Array.iter
    (fun line -> Alcotest.(check int) "8 words per line" 8 (Bytes.length line / 8))
    lines;
  (* every non-zero PTE is present and has a sane PFN *)
  Array.iter
    (fun line ->
      Array.iter
        (fun pte ->
          if not (Int64.equal pte 0L) then begin
            if not (Ptg_pte.X86.get_flag pte Ptg_pte.X86.Present) then
              Alcotest.fail "non-zero PTE not present";
            if Ptg_pte.Protection.pfn_out_of_bounds Ptg_pte.Protection.default pte then
              Alcotest.fail "generated PFN out of bounds"
          end)
        (Ptg_pte.Line.to_words line))
    lines

let test_leaf_lines_pattern_match () =
  (* Every generated PTE line must match both PT-Guard write patterns:
     the kernel zeroes the MAC and identifier fields. *)
  let rng = Ptg_util.Rng.create 5L in
  let p = Process_model.draw_params rng in
  let lines = Process_model.leaf_lines rng p in
  Array.iter
    (fun line ->
      if not (Ptg_pte.Protection.matches_extended_pattern Ptg_pte.Protection.default line)
      then Alcotest.fail "PTE line does not match the extended pattern")
    lines

let test_calibration_fig8 () =
  (* The headline Figure 8 statistics, with tolerance: zero PTEs 64 +- 4%,
     contiguous 23.7 +- 4%, flag uniformity > 99%. *)
  let rng = Ptg_util.Rng.create 8L in
  let stats =
    List.init 80 (fun _ ->
        let p = Process_model.draw_params rng in
        Profile.stats_of_lines (Process_model.leaf_lines rng p))
  in
  let agg = Profile.aggregate stats in
  if agg.Profile.mean_zero < 60.0 || agg.Profile.mean_zero > 69.0 then
    Alcotest.failf "zero%% %.1f outside calibration band" agg.Profile.mean_zero;
  if agg.Profile.mean_contiguous < 19.5 || agg.Profile.mean_contiguous > 28.0 then
    Alcotest.failf "contiguous%% %.1f outside calibration band" agg.Profile.mean_contiguous;
  if agg.Profile.mean_flag_uniformity < 0.99 then
    Alcotest.failf "flag uniformity %.3f below 99%%" agg.Profile.mean_flag_uniformity

let test_populate_matches_model () =
  let rng = Ptg_util.Rng.create 9L in
  let p = { (Process_model.draw_params rng) with Process_model.target_ptes = 2048 } in
  let mem = Phys_mem.of_hashtbl () in
  let alloc = Frame_allocator.create ~start_frame:0x100L rng in
  let table_alloc = Frame_allocator.create ~start_frame:0x90000L rng in
  let table = Page_table.create ~mem ~alloc:table_alloc in
  let vmas = Process_model.populate rng p ~table ~alloc in
  Alcotest.(check bool) "vmas returned" true (List.length vmas > 0);
  (* a sampled mapped page must look up correctly *)
  let found = ref false in
  List.iter
    (fun v ->
      if not !found then
        for i = 0 to v.Process_model.npages - 1 do
          let vaddr = Int64.shift_left (Int64.add v.Process_model.start_vpn (Int64.of_int i)) 12 in
          match Page_table.lookup table ~vaddr with
          | Some pte when not (Int64.equal pte 0L) ->
              found := true;
              if not (Ptg_pte.X86.get_flag pte Ptg_pte.X86.Present) then
                Alcotest.fail "populated PTE not present"
          | _ -> ()
        done)
    vmas;
  Alcotest.(check bool) "at least one mapped page" true !found

let suite =
  [
    Alcotest.test_case "draw_params shape" `Quick test_draw_params_shape;
    Alcotest.test_case "vma budget" `Quick test_vma_budget;
    Alcotest.test_case "vma disjoint" `Quick test_vma_disjoint;
    Alcotest.test_case "leaf lines shape" `Quick test_leaf_lines_shape;
    Alcotest.test_case "lines match write pattern" `Quick test_leaf_lines_pattern_match;
    Alcotest.test_case "Fig 8 calibration" `Slow test_calibration_fig8;
    Alcotest.test_case "populate" `Quick test_populate_matches_model;
  ]
