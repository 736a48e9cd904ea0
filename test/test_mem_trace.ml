(* Memory-trace frontend: text/binary round trips, located errors for
   malformed input, newline-name regressions for both trace formats,
   deterministic replay, and the Trace scenario's content-addressed
   cache key. *)

module Mem_trace = Ptg_sim.Mem_trace
module Scenario = Ptg_sim.Scenario
module Registry = Ptg_mitigations.Registry

let spec = Option.get (Ptg_workloads.Workload.by_name "mcf")

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let with_tmp suffix f =
  let path = Filename.temp_file "ptg_mem_trace_" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sample =
  {
    Mem_trace.workload = "demo";
    events =
      [|
        { Mem_trace.addr = 0x48000000L; is_write = false; cycle = 0 };
        { Mem_trace.addr = 0x48010040L; is_write = true; cycle = 3 };
        (* deltas go backwards: both address and cycle deltas are signed *)
        { Mem_trace.addr = 0x47fff000L; is_write = false; cycle = 2 };
        { Mem_trace.addr = Int64.max_int; is_write = true; cycle = 1_000_000 };
      |];
  }

let test_record_deterministic () =
  let a = Mem_trace.record ~instrs:20_000 ~seed:3L spec in
  let b = Mem_trace.record ~instrs:20_000 ~seed:3L spec in
  Alcotest.(check bool) "same trace for same seed" true (Mem_trace.equal a b);
  Alcotest.(check string) "workload name" "mcf" a.Mem_trace.workload;
  Alcotest.(check bool) "events recorded" true (Mem_trace.length a > 1000)

let roundtrip format suffix =
  with_tmp suffix (fun path ->
      Mem_trace.save sample ~format ~path;
      let t = Mem_trace.load ~path in
      Alcotest.(check bool) "round trip preserves the trace" true
        (Mem_trace.equal sample t))

let test_text_roundtrip () = roundtrip Mem_trace.Text ".txt"

let test_binary_roundtrip () = roundtrip Mem_trace.Binary ".ptgm"

let test_convert_lossless () =
  (* text -> binary -> text is byte-identical (the canonical writer is
     deterministic), and the binary form is smaller on a real trace. *)
  let t = Mem_trace.record ~instrs:20_000 ~seed:3L spec in
  with_tmp ".txt" (fun text1 ->
      with_tmp ".ptgm" (fun bin ->
          with_tmp ".txt" (fun text2 ->
              Mem_trace.save t ~format:Mem_trace.Text ~path:text1;
              Mem_trace.save (Mem_trace.load ~path:text1)
                ~format:Mem_trace.Binary ~path:bin;
              Mem_trace.save (Mem_trace.load ~path:bin)
                ~format:Mem_trace.Text ~path:text2;
              Alcotest.(check string) "text -> binary -> text byte-identical"
                (read_file text1) (read_file text2);
              Alcotest.(check bool) "binary is more compact" true
                (String.length (read_file bin)
                < String.length (read_file text1)))))

let expect_invalid what path check =
  match Mem_trace.load ~path with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error names the problem (got %S)" what msg)
        true (check msg)

let test_text_malformed () =
  let cases =
    [
      ("empty file", "", fun m -> contains "empty" m);
      ("missing header", "0x1000 R 0\n", fun m -> contains "line 1" m);
      ( "bad address",
        "# demo\nnotanaddr R 0\n",
        fun m -> contains "line 2" m && contains "notanaddr" m );
      ( "bad operation",
        "# demo\n0x1000 X 0\n",
        fun m -> contains "line 2" m && contains "X" m );
      ( "negative cycle",
        "# demo\n0x1000 R -4\n",
        fun m -> contains "line 2" m && contains "-4" m );
      ( "bad cycle token",
        "# demo\n0x1000 W seven\n",
        fun m -> contains "line 2" m && contains "seven" m );
      ( "wrong shape",
        "# demo\n0x1000 R\n",
        fun m -> contains "line 2" m );
      ( "located past blank lines",
        "# demo\n0x1000 R 0\n\n\n0x2000 Q 1\n",
        fun m -> contains "line 5" m );
    ]
  in
  List.iter
    (fun (what, content, check) ->
      with_tmp ".txt" (fun path ->
          write_file path content;
          expect_invalid what path (fun m -> check m && contains path m)))
    cases

let test_binary_malformed () =
  let bytes =
    with_tmp ".ptgm" (fun path ->
        Mem_trace.save sample ~format:Mem_trace.Binary ~path;
        read_file path)
  in
  let check what content check_msg =
    with_tmp ".ptgm" (fun path ->
        write_file path content;
        expect_invalid what path (fun m -> check_msg m && contains path m))
  in
  check "truncated stream"
    (String.sub bytes 0 (String.length bytes - 3))
    (contains "truncated");
  check "trailing bytes" (bytes ^ "\x00") (contains "trailing");
  (* Flip the version byte (offset 4, after the 4-byte magic). *)
  let bad_version = Bytes.of_string bytes in
  Bytes.set bad_version 4 '\x7f';
  check "unsupported version"
    (Bytes.to_string bad_version)
    (contains "version");
  (* A file that merely starts with part of the magic is parsed as text
     and rejected with a line number, not misread as binary. *)
  check "magic prefix only" "PTG\n" (contains "line 1")

let test_newline_name_rejected () =
  (* Regression: a workload name with a newline used to corrupt the text
     format (the name's second line parsed as a record). Now every save
     path rejects it up front. *)
  let bad = { sample with Mem_trace.workload = "evil\nname" } in
  let expect_raise ?(needle = "newline") what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error names the problem (got %S)" what msg)
          true (contains needle msg)
  in
  with_tmp ".txt" (fun path ->
      expect_raise "Mem_trace.save text" (fun () ->
          Mem_trace.save bad ~format:Mem_trace.Text ~path);
      expect_raise "Mem_trace.save binary" (fun () ->
          Mem_trace.save bad ~format:Mem_trace.Binary ~path);
      expect_raise "validate_name" (fun () ->
          Mem_trace.validate_name ~context:"test" "evil\rname");
      expect_raise ~needle:"empty" "empty name" (fun () ->
          Mem_trace.save
            { sample with Mem_trace.workload = "" }
            ~format:Mem_trace.Text ~path))

let replay_exn ?mitigation ?params ?pt_row ?seed t =
  match Mem_trace.replay ?mitigation ?params ?pt_row ?seed t with
  | Ok r -> r
  | Error e -> Alcotest.failf "replay: %s" e

let test_replay_counts () =
  let t = Mem_trace.record ~instrs:20_000 ~seed:3L spec in
  let r = replay_exn t in
  let reads =
    Array.fold_left
      (fun n e -> if e.Mem_trace.is_write then n else n + 1)
      0 t.Mem_trace.events
  in
  Alcotest.(check int) "event count" (Mem_trace.length t) r.Mem_trace.events;
  Alcotest.(check int) "reads" reads r.Mem_trace.reads;
  Alcotest.(check int) "writes" (Mem_trace.length t - reads) r.Mem_trace.writes;
  Alcotest.(check bool) "activations observed" true (r.Mem_trace.activations > 0);
  Alcotest.(check int) "no mitigation, no refreshes" 0
    r.Mem_trace.mitigation_refreshes

let test_replay_deterministic () =
  let t = Mem_trace.record ~instrs:20_000 ~seed:3L spec in
  let a = replay_exn ~mitigation:"para" ~seed:7L t in
  let b = replay_exn ~mitigation:"para" ~seed:7L t in
  Alcotest.(check bool) "same seed, same result" true (a = b);
  let rendered = Mem_trace.render_result ~mitigation:"para" a in
  Alcotest.(check string) "rendering is stable" rendered
    (Mem_trace.render_result ~mitigation:"para" b)

let test_replay_errors () =
  let t = Mem_trace.record ~instrs:5_000 ~seed:3L spec in
  (match Mem_trace.replay ~mitigation:"bogus" t with
  | Error m ->
      Alcotest.(check bool) "unknown name lists plugins" true
        (contains "bogus" m && contains "graphene" m)
  | Ok _ -> Alcotest.fail "bogus mitigation accepted");
  match Mem_trace.replay ~mitigation:"soft-trr" t with
  | Error m ->
      Alcotest.(check bool) "missing oracle named" true (contains "oracle" m)
  | Ok _ -> Alcotest.fail "soft-trr without pt_row accepted"

(* ------------------------------------------------------------------ *)
(* Trace scenarios                                                     *)
(* ------------------------------------------------------------------ *)

let with_trace_file f =
  with_tmp ".txt" (fun path ->
      let t = Mem_trace.record ~instrs:10_000 ~seed:3L spec in
      Mem_trace.save t ~format:Mem_trace.Text ~path;
      f path)

let test_scenario_jobs_invariant () =
  with_trace_file (fun path ->
      let out jobs =
        Scenario.run_to_string
          (Scenario.make ~trace:path ~mitigation:"trr" ~jobs Scenario.Trace)
      in
      Alcotest.(check string) "identical across jobs" (out 1) (out 4);
      Alcotest.(check bool) "report is non-trivial" true
        (contains "Trace replay" (out 1)))

let test_scenario_hash_follows_content () =
  with_trace_file (fun path1 ->
      let scenario path = Scenario.make ~trace:path ~mitigation:"trr" Scenario.Trace in
      let h1 = Scenario.hash (scenario path1) in
      (* Same bytes at a different path: same cache key. *)
      with_tmp ".txt" (fun path2 ->
          write_file path2 (read_file path1);
          Alcotest.(check string) "identical content, identical hash" h1
            (Scenario.hash (scenario path2)));
      (* jobs is an execution hint, never part of the key. *)
      Alcotest.(check string) "jobs excluded from the key" h1
        (Scenario.hash
           (Scenario.make ~trace:path1 ~mitigation:"trr" ~jobs:8 Scenario.Trace));
      (* Different content at the same path: a different key (no stale
         cache hits after rewriting the file). *)
      write_file path1 (read_file path1 ^ "0x99999 R 999999\n");
      Alcotest.(check bool) "content change, new hash" true
        (h1 <> Scenario.hash (scenario path1)))

let test_scenario_params_canonical () =
  with_trace_file (fun path ->
      let canonical ?mit_params () =
        Scenario.canonical
          (Scenario.make ~trace:path ~mitigation:"graphene" ?mit_params
             Scenario.Trace)
      in
      (* An explicit override equal to the default canonicalizes the
         same as omitting it. *)
      Alcotest.(check string) "explicit default == omitted"
        (canonical ())
        (canonical ~mit_params:[ ("threshold", Registry.Int 2500) ] ());
      Alcotest.(check bool) "defaults are resolved in the canonical form"
        true
        (contains {|"counters":128|} (canonical ()));
      Alcotest.(check bool) "non-default override shows up" true
        (contains {|"threshold":9|}
           (canonical ~mit_params:[ ("threshold", Registry.Int 9) ] ())))

let test_scenario_validation () =
  let expect_err what s check =
    match Scenario.validate s with
    | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (got %S)" what m)
          true (check m)
    | Ok () -> Alcotest.failf "%s: expected a validation error" what
  in
  expect_err "missing trace file"
    (Scenario.make Scenario.Trace)
    (contains "trace");
  expect_err "nonexistent trace file"
    (Scenario.make ~trace:"/nonexistent/trace.txt" Scenario.Trace)
    (contains "does not exist");
  with_trace_file (fun path ->
      expect_err "unknown mitigation"
        (Scenario.make ~trace:path ~mitigation:"bogus" Scenario.Trace)
        (contains "bogus");
      expect_err "bad param key"
        (Scenario.make ~trace:path ~mitigation:"trr"
           ~mit_params:[ ("zap", Registry.Int 1) ]
           Scenario.Trace)
        (contains "zap");
      expect_err "params without mitigation"
        (Scenario.make ~trace:path
           ~mit_params:[ ("p", Registry.Float 0.5) ]
           Scenario.Trace)
        (contains "mitigation");
      expect_err "trace path on a non-trace kind"
        (Scenario.make ~trace:path Scenario.Fig8)
        (contains "trace"))

let suite =
  [
    Alcotest.test_case "record deterministic" `Quick test_record_deterministic;
    Alcotest.test_case "text round trip" `Quick test_text_roundtrip;
    Alcotest.test_case "binary round trip" `Quick test_binary_roundtrip;
    Alcotest.test_case "text/binary convert lossless" `Quick
      test_convert_lossless;
    Alcotest.test_case "malformed text rejected with located errors" `Quick
      test_text_malformed;
    Alcotest.test_case "malformed binary rejected" `Quick test_binary_malformed;
    Alcotest.test_case "newline in workload name rejected at save" `Quick
      test_newline_name_rejected;
    Alcotest.test_case "replay accounting" `Quick test_replay_counts;
    Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
    Alcotest.test_case "replay error paths" `Quick test_replay_errors;
    Alcotest.test_case "trace scenario job-invariant" `Quick
      test_scenario_jobs_invariant;
    Alcotest.test_case "cache key follows trace content" `Quick
      test_scenario_hash_follows_content;
    Alcotest.test_case "canonical form resolves mitigation params" `Quick
      test_scenario_params_canonical;
    Alcotest.test_case "trace scenario validation" `Quick
      test_scenario_validation;
  ]
