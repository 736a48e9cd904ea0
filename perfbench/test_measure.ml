(* The benchmark's own arithmetic: the percentile rule, failure
   accounting and layer coverage. *)

let close = Alcotest.float 1e-12
let range n = List.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  (* Nearest rank: p99 of 1..1000 is the 990th value, 10 beyond it. *)
  Alcotest.(check close) "p99 of 1000" 990. (Measure.percentile 99. (range 1000));
  Alcotest.(check int) "beyond p99 of 1000" 10 (Measure.beyond 99. 1000);
  Alcotest.(check bool) "p99 needs 1000" false (Measure.supports 99. 999);
  Alcotest.(check bool) "p90 needs 100" true (Measure.supports 90. 100);
  Alcotest.(check bool) "99 samples miss p90" false (Measure.supports 90. 99);
  let pick n =
    Option.map (fun t -> (t.Measure.pct, t.samples)) (Measure.tail [ 50.; 90.; 99.; 99.9 ] (range n))
  in
  Alcotest.(check (option (pair close int))) "highest supported of 1000" (Some (99., 1000)) (pick 1000);
  Alcotest.(check (option (pair close int))) "highest supported of 150" (Some (90., 150)) (pick 150);
  Alcotest.(check (option (pair close int))) "highest supported of 20" (Some (50., 20)) (pick 20);
  Alcotest.(check (option (pair close int))) "none for 19" None (pick 19);
  Alcotest.(check close) "median even" 2.5 (Measure.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check close) "median odd" 3. (Measure.median [ 5.; 1.; 3. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Measure.percentile: empty sample") (fun () ->
      ignore (Measure.percentile 50. []))

let failure_accounting () =
  let t = Measure.tally () in
  List.iter (Measure.record t)
    [
      Measure.Passed; Measure.Refused; Measure.Passed; Measure.Timed_out; Measure.Errored "reset";
      Measure.Mismatch "digest"; Measure.Passed; Measure.Passed;
    ];
  Alcotest.(check int) "attempted" 8 (Measure.attempted t);
  Alcotest.(check int) "refusal, timeout, error and mismatch all fail" 4 (Measure.failed t);
  Alcotest.(check close) "failed_frac" 0.5 (Measure.failed_frac t);
  Alcotest.(check (list string)) "reasons in order"
    [ "refused (overloaded)"; "timed out"; "error: reset"; "output mismatch: digest" ]
    (Measure.reasons t);
  Alcotest.(check close) "nothing attempted" 0. (Measure.failed_frac (Measure.tally ()))

let layer_coverage () =
  let l name calls cost_s = { Measure.name; calls; cost_s } in
  let layers = [ l "a" 1000. 1e-3; l "b" 10. 0.05 ] in
  Alcotest.(check close) "layer seconds" 1. (Measure.layer_s (List.hd layers));
  Alcotest.(check close) "share" 0.25 (Measure.share ~wall:2. (List.nth layers 1));
  Alcotest.(check close) "unattributed" 0.25 (Measure.unattributed_share ~wall:2. layers);
  Alcotest.(check close) "over-attributed is negative" (-0.5) (Measure.unattributed_share ~wall:1. layers);
  Alcotest.(check close) "no layers" 1. (Measure.unattributed_share ~wall:3. []);
  Alcotest.check_raises "zero wall" (Invalid_argument "Measure.unattributed_share: wall <= 0")
    (fun () -> ignore (Measure.unattributed_share ~wall:0. layers))

let result_line () =
  Alcotest.(check string) "shape"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    (Measure.result_line ~correct:true ~attempted:3 ~failed:0
       [ { Measure.name = "setup_s"; value = 0.5; unit_ = "s" } ]);
  Alcotest.check_raises "nan" (Invalid_argument "Measure.result_line: x is not finite") (fun () ->
      ignore
        (Measure.result_line ~correct:true ~attempted:1 ~failed:0
           [ { Measure.name = "x"; value = Float.nan; unit_ = "s" } ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "failure accounting" `Quick failure_accounting;
          Alcotest.test_case "layer coverage" `Quick layer_coverage;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
