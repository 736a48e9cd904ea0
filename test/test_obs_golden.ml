(* Metric-registry goldens: the full [Sink.metrics] CSV of three fixed
   runs, byte for byte. They pin every counter each simulation layer
   exports, whichever way the layer counts it, so a change to how an
   event is counted cannot move an exported value unnoticed. Regenerate
   a file only for a deliberate change to what a run counts, and say
   so. *)

module Registry = Ptg_obs.Registry
module Sink = Ptg_obs.Sink
module Rng = Ptg_util.Rng

let workloads names = List.filter_map Ptg_workloads.Workload.by_name names

(* A reduced two-workload Figure 6 sweep: caches, TLB, MMU cache, core,
   guard and DRAM rows, with the warmup's events included. *)
let fig6_csv () =
  let sink = Sink.create () in
  ignore
    (Ptg_sim.Fig6.run ~jobs:1 ~instrs:6_000 ~warmup:2_000 ~seed:42L
       ~workloads:(workloads [ "mcf"; "bc" ]) ~obs:sink ());
  Registry.to_csv (Sink.metrics sink)

(* A short guarded full-system run under attack: engine, controller,
   DRAM, TLB and OS journal rows. *)
let fullsys_csv () =
  let sink = Sink.create () in
  let m = Ptg_sim.Fullsys.create ~pages:512 ~obs:sink ~seed:2L () in
  ignore (Ptg_sim.Fullsys.run m ~instrs:8_000);
  Registry.to_csv (Sink.metrics sink)

(* Multicore machines whose cores share one sink: a two-case sweep
   (per-case child sinks merged in order), then two machines run one
   after the other into the same sink, each with its own guard and
   verifying engine, so every guard and engine row sums two owners. *)
let multicore_csv () =
  let sink = Sink.create () in
  ignore
    (Ptg_sim.Multicore_exp.run ~jobs:1 ~instrs_per_core:2_000 ~seed:7L
       ~same:(workloads [ "mcf" ]) ~mixes:1 ~obs:sink ());
  List.iter
    (fun seed ->
      let guard =
        Ptg_cpu.Guard_timing.of_config Ptguard.Config.optimized ~obs:sink
          ~rng:(Rng.create seed)
      in
      let verify_engine =
        Ptguard.Engine.create ~config:Ptguard.Config.optimized ~obs:sink
          ~rng:(Rng.create (Int64.add seed 1L)) ()
      in
      let mc = Ptg_cpu.Multicore.create ~verify_engine ~guard () in
      let streams =
        Array.of_list
          (List.mapi
             (fun i spec ->
               Ptg_workloads.Workload.stream (Rng.create (Int64.add seed (Int64.of_int i))) spec)
             (workloads [ "mcf"; "bc"; "omnetpp"; "xalancbmk" ]))
      in
      ignore (Ptg_cpu.Multicore.run mc ~instrs_per_core:1_500 ~streams))
    [ 11L; 12L ];
  Registry.to_csv (Sink.metrics sink)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden name run () =
  Alcotest.(check string)
    (Printf.sprintf "metrics CSV matches golden/%s" name)
    (read_file (Filename.concat "golden" name))
    (run ())

let suite =
  [
    Alcotest.test_case "fig6 metrics golden" `Quick (golden "metrics_fig6.csv" fig6_csv);
    Alcotest.test_case "fullsys metrics golden" `Quick
      (golden "metrics_fullsys.csv" fullsys_csv);
    Alcotest.test_case "multicore metrics golden" `Quick
      (golden "metrics_multicore.csv" multicore_csv);
  ]
