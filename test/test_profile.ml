open Ptg_vm

let pte pfn = Ptg_pte.X86.make ~writable:true ~user:true ~pfn ()

let cat =
  Alcotest.testable
    (fun fmt -> function
      | Profile.Zero -> Format.pp_print_string fmt "Zero"
      | Profile.Contiguous -> Format.pp_print_string fmt "Contiguous"
      | Profile.Non_contiguous -> Format.pp_print_string fmt "Non-contiguous")
    ( = )

let test_zero_line () =
  let cats = Profile.categorize (Ptg_pte.Line.create ()) in
  Array.iter (fun c -> Alcotest.check cat "all zero" Profile.Zero c) cats

let test_contiguous_run () =
  let line = Ptg_pte.Line.init (fun i -> pte (Int64.of_int (100 + i))) in
  let cats = Profile.categorize line in
  Array.iter (fun c -> Alcotest.check cat "contiguous" Profile.Contiguous c) cats

let test_isolated_pte () =
  let line = Ptg_pte.Line.create () in
  Ptg_pte.Line.set line 3 (pte 50L);
  let cats = Profile.categorize line in
  Alcotest.check cat "isolated is non-contiguous" Profile.Non_contiguous cats.(3);
  Alcotest.check cat "others zero" Profile.Zero cats.(0)

let test_run_with_gap () =
  (* [a, a+1, 0, a+3]: the PTEs on either side of the zero continue the
     +1-per-index progression, so all non-zero PTEs are contiguous. *)
  let line = Ptg_pte.Line.create () in
  Ptg_pte.Line.set line 0 (pte 10L);
  Ptg_pte.Line.set line 1 (pte 11L);
  Ptg_pte.Line.set line 3 (pte 13L);
  let cats = Profile.categorize line in
  Alcotest.check cat "left edge" Profile.Contiguous cats.(0);
  Alcotest.check cat "middle" Profile.Contiguous cats.(1);
  Alcotest.check cat "after gap continues progression" Profile.Contiguous cats.(3)

let test_broken_run () =
  (* Two segments with a fragmentation break between PTE 3 and 4. *)
  let line =
    Ptg_pte.Line.init (fun i ->
        if i < 4 then pte (Int64.of_int (10 + i)) else pte (Int64.of_int (900 + i)))
  in
  let cats = Profile.categorize line in
  Alcotest.check cat "segment 1 interior contiguous" Profile.Contiguous cats.(1);
  Alcotest.check cat "segment 2 interior contiguous" Profile.Contiguous cats.(5);
  (* The boundary PTEs are each contiguous with their own segment side. *)
  Alcotest.check cat "boundary left" Profile.Contiguous cats.(3);
  Alcotest.check cat "boundary right" Profile.Contiguous cats.(4)

let test_stats_counts () =
  let line1 = Ptg_pte.Line.init (fun i -> pte (Int64.of_int (100 + i))) in
  let line2 = Ptg_pte.Line.create () in
  let s = Profile.stats_of_lines [| line1; line2 |] in
  Alcotest.(check int) "total" 16 s.Profile.total_ptes;
  Alcotest.(check int) "zero" 8 s.Profile.zero;
  Alcotest.(check int) "contiguous" 8 s.Profile.contiguous;
  Alcotest.(check int) "non-contiguous" 0 s.Profile.non_contiguous;
  Alcotest.(check int) "nonzero lines" 1 s.Profile.nonzero_lines;
  Alcotest.(check (float 1e-9)) "pct zero" 50.0 (Profile.pct_zero s);
  Alcotest.(check (float 1e-9)) "percentages sum to 100" 100.0
    (Profile.pct_zero s +. Profile.pct_contiguous s +. Profile.pct_non_contiguous s)

let test_flag_uniformity () =
  let uniform = Ptg_pte.Line.init (fun i -> pte (Int64.of_int (10 + i))) in
  let mixed = Ptg_pte.Line.copy uniform in
  Ptg_pte.Line.set mixed 2 (Ptg_pte.X86.set_flag (Ptg_pte.Line.get mixed 2) Ptg_pte.X86.Writable false);
  let s = Profile.stats_of_lines [| uniform; mixed |] in
  Alcotest.(check int) "one uniform line" 1 s.Profile.flag_uniform_lines;
  Alcotest.(check (float 1e-9)) "uniformity 0.5" 0.5 (Profile.flag_uniformity s);
  (* accessed-bit variation must NOT break uniformity *)
  let accessed_mix = Ptg_pte.Line.copy uniform in
  Ptg_pte.Line.set accessed_mix 4 (Ptg_pte.X86.set_flag (Ptg_pte.Line.get accessed_mix 4) Ptg_pte.X86.Accessed true);
  let s2 = Profile.stats_of_lines [| accessed_mix |] in
  Alcotest.(check int) "accessed bit ignored" 1 s2.Profile.flag_uniform_lines

let test_aggregate () =
  let mk z c n =
    {
      Profile.total_ptes = z + c + n;
      zero = z;
      contiguous = c;
      non_contiguous = n;
      flag_uniform_lines = 1;
      nonzero_lines = 1;
    }
  in
  let agg = Profile.aggregate [ mk 50 30 20; mk 80 10 10 ] in
  Alcotest.(check int) "processes" 2 agg.Profile.processes;
  Alcotest.(check (float 1e-9)) "mean zero" 65.0 agg.Profile.mean_zero;
  Alcotest.(check int) "total ptes" 200 agg.Profile.total_ptes_profiled;
  (* per_process sorted by contiguity descending *)
  let _, c0, _ = agg.Profile.per_process.(0) in
  let _, c1, _ = agg.Profile.per_process.(1) in
  Alcotest.(check bool) "sorted" true (c0 >= c1)

let suite =
  [
    Alcotest.test_case "zero line" `Quick test_zero_line;
    Alcotest.test_case "contiguous run" `Quick test_contiguous_run;
    Alcotest.test_case "isolated pte" `Quick test_isolated_pte;
    Alcotest.test_case "run with gap" `Quick test_run_with_gap;
    Alcotest.test_case "broken run" `Quick test_broken_run;
    Alcotest.test_case "stats counts" `Quick test_stats_counts;
    Alcotest.test_case "flag uniformity" `Quick test_flag_uniformity;
    Alcotest.test_case "aggregate" `Quick test_aggregate;
  ]
