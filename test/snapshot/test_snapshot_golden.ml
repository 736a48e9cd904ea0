(* Byte-identity goldens for the checkpoint format: the FNV-1a digest of
   every file a fixed checkpointed run leaves in the store, and of the
   DRAM-carrying core and multicore sections. Any change to what a save
   writes — field order, sparse-row order, a count — moves a digest here
   and fails by file name. Regenerate only for a deliberate format
   change, and say so. *)

module Checkpoint = Ptg_sim.Checkpoint
module Codec = Ptg_snapshot.Codec
module Sections = Ptg_snapshot.Sections
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

let digest s = Snapshot.hash_hex (Codec.fnv1a64 s)

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
    ("2000.ptgs", "0775a4944bc58f2f");
    ("4000.ptgs", "fc29a0b1fcf454e6");
    ("6000.ptgs", "be71bee066274f19");
    ("8000.ptgs", "8382d061a7e13010");
    ("10000.ptgs", "cf26edcd3a5d7e75");
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

let test_multicore_store () =
  with_dir (fun dir ->
      let o =
        Checkpoint.run_multicore ~jobs:1 ~key:"golden" ~every:1 ~dir
          ~keep:max_int
          ~same:(List.filteri (fun i _ -> i < 1) Ptg_workloads.Workload.all)
          ~instrs_per_core:1_500 ~mixes:0 ~seed ()
      in
      Alcotest.(check bool) "completed" true o.Checkpoint.o_completed;
      check_digests "multicore checkpoint files" multicore_expected
        (store_digests dir))

let encode put v =
  let b = Codec.writer () in
  put b v;
  digest (Codec.contents b)

let guard () =
  Ptg_cpu.Guard_timing.of_config Ptguard.Config.optimized
    ~rng:(Ptg_util.Rng.create 43L)

let spec = List.hd Ptg_workloads.Workload.all

let core_expected = "60c15bcfdedbcbe1"

(* A sweep checkpoint stores rows, not machines; the core and multicore
   sections are where a timing model's DRAM state meets the codec. *)
let test_core_section () =
  let core = Ptg_cpu.Core.create ~guard:(guard ()) () in
  let stream = Ptg_workloads.Workload.stream (Ptg_util.Rng.create seed) spec in
  ignore (Ptg_cpu.Core.run core ~instrs:20_000 ~stream);
  Alcotest.(check string) "core section digest" core_expected
    (encode Sections.put_core (Ptg_cpu.Core.state core))

let multicore_state_expected = "0ed2ad0d7f60ea6c"

let test_multicore_section () =
  let mc = Ptg_cpu.Multicore.create ~guard:(guard ()) () in
  let streams =
    Array.init 4 (fun i ->
        Ptg_workloads.Workload.stream
          (Ptg_util.Rng.create (Int64.add seed (Int64.of_int i)))
          spec)
  in
  ignore (Ptg_cpu.Multicore.run mc ~instrs_per_core:5_000 ~streams);
  Alcotest.(check string) "multicore section digest" multicore_state_expected
    (encode Sections.put_multicore (Ptg_cpu.Multicore.state mc))

let suite =
  [
    Alcotest.test_case "fullsys store bytes" `Quick test_fullsys_store;
    Alcotest.test_case "multicore store bytes" `Quick test_multicore_store;
    Alcotest.test_case "core section bytes" `Quick test_core_section;
    Alcotest.test_case "multicore section bytes" `Quick test_multicore_section;
  ]
