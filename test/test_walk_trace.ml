(* Page-table-walk traces (Section VI-F methodology): walks recorded as
   Mem_trace read events, their round trip through the text format, and
   the Figure 9 fault-injection replay and sampler check over them. *)

module Mem_trace = Ptg_sim.Mem_trace

let spec = Option.get (Ptg_workloads.Workload.by_name "mcf")
let leaf_base = Ptg_cpu.Core.default_config.Ptg_cpu.Core.data_region_bytes

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let with_tmp f =
  let path = Filename.temp_file "ptg_walk_trace_" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let walks workload addrs =
  {
    Mem_trace.workload;
    events =
      Array.mapi
        (fun cycle addr -> { Mem_trace.addr; is_write = false; cycle })
        addrs;
  }

let test_record () =
  let t = Mem_trace.record_walks ~instrs:100_000 spec in
  Alcotest.(check string) "workload name" "mcf" t.Mem_trace.workload;
  Alcotest.(check bool) "walks recorded" true (Mem_trace.length t > 100);
  Array.iteri
    (fun i (e : Mem_trace.event) ->
      if e.is_write then Alcotest.fail "a walk is a read";
      if e.cycle <> i then Alcotest.failf "event %d: cycle %d" i e.cycle;
      if Int64.compare e.addr leaf_base < 0 || Int64.rem e.addr 64L <> 0L then
        Alcotest.failf "event %d: 0x%Lx is not a leaf-PTE line" i e.addr)
    t.Mem_trace.events

let test_record_deterministic () =
  let a = Mem_trace.record_walks ~instrs:50_000 ~seed:3L spec in
  let b = Mem_trace.record_walks ~instrs:50_000 ~seed:3L spec in
  Alcotest.(check bool) "same trace for same seed" true (Mem_trace.equal a b)

let test_histogram () =
  (* Walks revisit hot PTE lines: the trace-frequency distribution is
     what the Figure 9 weighted sampler approximates. *)
  let t = Mem_trace.record_walks ~instrs:100_000 spec in
  let h = Hashtbl.create 256 in
  Array.iter
    (fun (e : Mem_trace.event) ->
      Hashtbl.replace h e.addr
        (1 + Option.value ~default:0 (Hashtbl.find_opt h e.addr)))
    t.Mem_trace.events;
  Alcotest.(check int)
    "counts sum to the walk count" (Mem_trace.length t)
    (Hashtbl.fold (fun _ n acc -> acc + n) h 0);
  Alcotest.(check bool)
    "some line is walked more than once" true
    (Hashtbl.fold (fun _ n acc -> acc || n > 1) h false)

let test_save_load () =
  let t =
    walks "demo"
      (Array.map
         (fun k -> Int64.add leaf_base (Int64.of_int (k * 64)))
         [| 5; 7; 5; 0; 12345 |])
  in
  with_tmp (fun path ->
      Mem_trace.save t ~format:Mem_trace.Text ~path;
      Alcotest.(check bool)
        "round trip" true
        (Mem_trace.equal t (Mem_trace.load ~path)))

let test_load_skips_blank_lines () =
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "# demo\n\n0xc0000040 R 0\n\n  \n0xc0000080 R 1\n\n");
      Alcotest.(check bool)
        "blank lines skipped" true
        (Mem_trace.equal
           (walks "demo" [| 0xc0000040L; 0xc0000080L |])
           (Mem_trace.load ~path)))

let test_load_malformed () =
  (* A file in the bare-index walk format (one line index per line) is
     not a memory trace: it is rejected with the file and line named. *)
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "# demo\n3\n7\n");
      match Mem_trace.load ~path with
      | _ -> Alcotest.fail "bare-index walk file: expected Invalid_argument"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "located error (got %S)" msg)
            true
            (contains path msg && contains "line 2" msg))

let test_replay () =
  let rng = Ptg_util.Rng.create 4L in
  let params =
    { (Ptg_vm.Process_model.draw_params rng) with Ptg_vm.Process_model.target_ptes = 4096 }
  in
  let lines = Ptg_vm.Process_model.leaf_lines rng params in
  let trace =
    walks "synthetic"
      (Array.init 3000 (fun i -> Int64.add leaf_base (Int64.of_int (i * 7 * 64))))
  in
  let r =
    Ptg_sim.Fig9.replay_with_faults ~p_flip:(1.0 /. 512.0) ~max_events:150 trace
      ~lines
  in
  Alcotest.(check int) "faulty events capped" 150 r.Ptg_sim.Fig9.faulty;
  Alcotest.(check bool) "corrects a solid majority" true
    (r.Ptg_sim.Fig9.corrected_pct > 60.0);
  Alcotest.(check bool) "accounting consistent" true
    (r.Ptg_sim.Fig9.corrected + r.Ptg_sim.Fig9.uncorrectable <= r.Ptg_sim.Fig9.faulty);
  Alcotest.check_raises "event below the leaf region"
    (Invalid_argument
       "Fig9.replay_with_faults: event 0: address 0x40 is below the leaf-PTE \
        region")
    (fun () -> ignore (Ptg_sim.Fig9.replay_with_faults (walks "x" [| 64L |]) ~lines))

let test_sampler_agreement () =
  (* The weighted sampler is Fig. 9's approximation of trace replay: the
     two must agree within a few points at the same p_flip. Both values
     are pinned exactly. *)
  let c = Ptg_sim.Fig9.compare_samplers ~instrs:200_000 spec in
  Alcotest.(check (float 0.)) "trace_pct" 91.489361702127653 c.Ptg_sim.Fig9.trace_pct;
  Alcotest.(check (float 0.)) "weighted_pct" 89.669421487603302
    c.Ptg_sim.Fig9.weighted_pct;
  let gap = Float.abs (c.Ptg_sim.Fig9.trace_pct -. c.Ptg_sim.Fig9.weighted_pct) in
  if gap > 12.0 then
    Alcotest.failf "samplers disagree: trace %.1f%% vs weighted %.1f%%"
      c.Ptg_sim.Fig9.trace_pct c.Ptg_sim.Fig9.weighted_pct

let suite =
  [
    Alcotest.test_case "record" `Slow test_record;
    Alcotest.test_case "record deterministic" `Slow test_record_deterministic;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "save/load" `Quick test_save_load;
    Alcotest.test_case "load skips blank lines" `Quick
      test_load_skips_blank_lines;
    Alcotest.test_case "load rejects malformed files with located errors"
      `Quick test_load_malformed;
    Alcotest.test_case "replay with faults" `Slow test_replay;
    Alcotest.test_case "sampler agreement" `Slow test_sampler_agreement;
  ]
