open Ptg_util

type result = {
  aggregate : Ptg_vm.Profile.aggregate;
  sample_rows : (float * float * float) array;
}

let run ?jobs ?(processes = 623) ?(seed = 8L) ?obs () =
  let rng = Rng.create seed in
  (* Per-process generators are split off the master stream serially, in
     process order, so the fan-out across domains cannot perturb any
     process's draw sequence: results are identical for any job count. *)
  let rngs = Array.init processes (fun _ -> Rng.split rng) in
  let stats =
    Array.to_list
      (Pool.parallel_map ?jobs
         (fun rng ->
           let params = Ptg_vm.Process_model.draw_params rng in
           Ptg_vm.Profile.stats_of_lines (Ptg_vm.Process_model.leaf_lines rng params))
         rngs)
  in
  let aggregate = Ptg_vm.Profile.aggregate stats in
  (* Pure profiling (no engine): the summary counts are written once by
     the parent, after the join, so they are trivially job-independent. *)
  (match obs with
  | None -> ()
  | Some sink ->
      let reg = Ptg_obs.Sink.registry sink in
      Ptg_obs.Registry.add
        (Ptg_obs.Registry.counter reg "fig8_processes")
        aggregate.Ptg_vm.Profile.processes;
      Ptg_obs.Registry.add
        (Ptg_obs.Registry.counter reg "fig8_ptes_profiled")
        aggregate.Ptg_vm.Profile.total_ptes_profiled);
  let n = Array.length aggregate.Ptg_vm.Profile.per_process in
  let sample_rows =
    Array.init (min 11 n) (fun i ->
        aggregate.Ptg_vm.Profile.per_process.(i * (n - 1) / max 1 (min 10 (n - 1))))
  in
  { aggregate; sample_rows }

let to_string result =
  let a = result.aggregate in
  "Figure 8: PFN-value distribution across simulated processes\n"
  ^ Table.render
      ~align:[ Table.Left; Right; Right ]
      ~header:[ "metric"; "ours"; "paper" ]
      [
        [ "processes profiled"; string_of_int a.Ptg_vm.Profile.processes; "623" ];
        [ "total PTEs"; string_of_int a.total_ptes_profiled; "24M" ];
        [ "zero PTEs"; Printf.sprintf "%.2f%% (se %.3f)" a.mean_zero a.stderr_zero;
          "64.13% (se 0.6)" ];
        [ "contiguous PFNs";
          Printf.sprintf "%.2f%% (se %.3f)" a.mean_contiguous a.stderr_contiguous;
          "23.73% (se 0.4)" ];
        [ "non-contiguous PFNs"; Printf.sprintf "%.2f%%" a.mean_non_contiguous;
          "~12%" ];
        [ "flag-uniform lines";
          Printf.sprintf "%.2f%%" (100.0 *. a.mean_flag_uniformity); "> 99%" ];
      ]
  ^ "Per-process deciles (sorted by contiguous share, as in the figure):\n"
  ^ Table.render
      ~align:[ Table.Right; Right; Right; Right ]
      ~header:[ "decile"; "zero %"; "contiguous %"; "non-contig %" ]
      (Array.to_list
         (Array.mapi
            (fun i (z, c, n) ->
              [ string_of_int (i * 10); Table.f2 z; Table.f2 c; Table.f2 n ])
            result.sample_rows))

let to_csv result ~path =
  let rows =
    Array.to_list
      (Array.map
         (fun (z, c, n) -> [ Table.f3 z; Table.f3 c; Table.f3 n ])
         result.aggregate.Ptg_vm.Profile.per_process)
  in
  Table.save_csv ~path ~header:[ "zero_pct"; "contiguous_pct"; "noncontiguous_pct" ] rows
