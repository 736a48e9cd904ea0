(* Byte-identity goldens for the checkpoint format: the FNV-1a digest of
   every file a fixed checkpointed run leaves in the store, for the
   fullsys machine and for every sweep. Any change to what a save
   writes — field order, sparse-row order, a count — moves a digest here
   and fails by file name. Regenerate only for a deliberate format
   change, and say so. *)

module Checkpoint = Ptg_sim.Checkpoint
module Sweep = Ptg_sim.Sweep
module Codec = Ptg_snapshot.Codec
module Snapshot = Ptg_snapshot.Snapshot

let seed = 42L

let with_dir f =
  let dir = Filename.temp_file "ptggolden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let digest s = Ptg_util.Bits.to_hex (Codec.fnv1a64 s)

(* (file name with the key stripped, digest of the whole file), sorted
   by depth. *)
let store_digests dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match String.split_on_char '.' name with
         | [ _; n; "ptgs" ] ->
             let body =
               In_channel.with_open_bin (Filename.concat dir name)
                 In_channel.input_all
             in
             Some (int_of_string n, digest body)
         | _ -> None)
  |> List.sort compare
  |> List.map (fun (n, d) -> (Printf.sprintf "%d.ptgs" n, d))

let check_digests what expected actual =
  Alcotest.(check (list (pair string string))) what expected actual

let fullsys_expected =
  [
    ("2000.ptgs", "4097e4a5b142bdc0");
    ("4000.ptgs", "cc8fb4e389e35254");
    ("6000.ptgs", "cb56e398ca2a0356");
    ("8000.ptgs", "a838ff8756dce287");
    ("10000.ptgs", "3422aac9b94b4301");
  ]

let test_fullsys_store () =
  with_dir (fun dir ->
      let o =
        Checkpoint.run_fullsys ~dir ~keep:max_int ~every:2_000 ~seed
          ~instrs:10_000 ()
      in
      Alcotest.(check bool) "completed" true o.Checkpoint.f_completed;
      check_digests "fullsys checkpoint files" fullsys_expected
        (store_digests dir))

let multicore_expected = [ ("1.ptgs", "1ff5f41dd0b6678a") ]

(* Drive [sweep] to completion [every] units per checkpoint (default
   one), keeping every file, and compare the store against [expected]. *)
let check_sweep_store ?(every = 1) what expected sweep =
  with_dir (fun dir ->
      let o = Sweep.exec ~key:"golden" ~every ~dir ~keep:max_int sweep in
      Alcotest.(check bool) "completed" true o.Sweep.o_completed;
      check_digests what expected (store_digests dir))

let test_multicore_store () =
  check_sweep_store "multicore checkpoint files" multicore_expected
    (Ptg_sim.Multicore_exp.sweep ~jobs:1
       ~same:(List.filteri (fun i _ -> i < 1) Ptg_workloads.Workload.all)
       ~instrs_per_core:1_500 ~mixes:0 ~seed ())

(* Every SAME row and two MIXes at 20,000 instrs per core, checkpointed
   once at completion: the whole Section VII-C case list. *)
let multicore_sweep_expected = [ ("27.ptgs", "c58673ec4c643844") ]

let test_multicore_sweep_store () =
  check_sweep_store ~every:27 "multicore sweep checkpoint file"
    multicore_sweep_expected
    (Ptg_sim.Multicore_exp.sweep ~jobs:1 ~instrs_per_core:20_000 ~mixes:2 ~seed ())

(* Sweep stores at demo scale: every file a chunked run leaves, fig7's
   baselines-only depth-0 file included. *)
let fig6_expected =
  [ ("1.ptgs", "9c032a71f3af8fb7"); ("2.ptgs", "f7e7e673a299c391") ]

let test_fig6_store () =
  check_sweep_store "fig6 checkpoint files" fig6_expected
    (Ptg_sim.Fig6.sweep ~jobs:1 ~instrs:600 ~warmup:200 ~seed
       ~config:Ptguard.Config.baseline
       (List.filteri (fun i _ -> i < 2) Ptg_workloads.Workload.all))

let fig7_expected =
  [
    ("0.ptgs", "7f3f4cf5ce957aca");
    ("1.ptgs", "fa07077f401727fa");
    ("2.ptgs", "e4d944f55ee37de4");
  ]

let test_fig7_store () =
  check_sweep_store "fig7 checkpoint files" fig7_expected
    (Ptg_sim.Fig7.sweep ~jobs:1 ~latencies:[ 10 ]
       ~workloads:(List.filteri (fun i _ -> i < 1) Ptg_workloads.Workload.all)
       ~instrs:600 ~warmup:200 ~seed ())

let fig9_expected =
  [ ("1.ptgs", "5eddc31a7e65b7e4"); ("2.ptgs", "693fc86fd6cb1ba4") ]

let test_fig9_store () =
  check_sweep_store "fig9 checkpoint files" fig9_expected
    (Ptg_sim.Fig9.sweep ~jobs:1
       ~workloads:
         (List.filteri (fun i _ -> i < 2) Ptg_workloads.Workload.fig9_subset)
       ~lines_per_point:10 ~seed ())

let suite =
  [
    Alcotest.test_case "fullsys store bytes" `Quick test_fullsys_store;
    Alcotest.test_case "multicore store bytes" `Quick test_multicore_store;
    Alcotest.test_case "multicore sweep store bytes" `Quick test_multicore_sweep_store;
    Alcotest.test_case "fig6 store bytes" `Quick test_fig6_store;
    Alcotest.test_case "fig7 store bytes" `Quick test_fig7_store;
    Alcotest.test_case "fig9 store bytes" `Quick test_fig9_store;
  ]
