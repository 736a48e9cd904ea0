open Ptg_util

type row = {
  label : string;
  workloads : string list;
  base_ipc : float;
  norm_ipc : float;
  slowdown_pct : float;
  avg_queue_delay : float;
}

type result = {
  rows : row list;
  avg_slowdown_pct : float;
  max_slowdown_pct : float;
  max_label : string;
}

let run_mix ~instrs_per_core ~seed ~guard specs =
  let mc = Ptg_cpu.Multicore.create ~guard () in
  let streams =
    Array.mapi
      (fun i spec ->
        Ptg_workloads.Workload.stream (Rng.create (Int64.add seed (Int64.of_int i))) spec)
      specs
  in
  Ptg_cpu.Multicore.run mc ~instrs_per_core ~streams

(* The MIX compositions are drawn serially from a seed-derived stream;
   each case then simulates from seed-derived generators only, so any
   per-case fan-out (or checkpoint-slice batching) is bit-identical to
   serial execution. Re-deriving the case list is cheap, so a resumed
   slice just recomputes it. *)
let cases ?(same = Ptg_workloads.Workload.all) ~seed ~mixes () =
  let mix_rng = Rng.create (Int64.add seed 100L) in
  List.map
    (fun spec ->
      ( "SAME " ^ spec.Ptg_workloads.Workload.name,
        Ptg_workloads.Workload.multicore_same spec ))
    same
  @ Array.to_list
      (Array.mapi
         (fun i mix -> (Printf.sprintf "MIX%d" (i + 1), mix))
         (Ptg_workloads.Workload.multicore_mixes mix_rng mixes))

let case_row ?obs ~instrs_per_core ~seed ~config (label, specs) =
  let base =
    run_mix ~instrs_per_core ~seed ~guard:Ptg_cpu.Guard_timing.unprotected specs
  in
  let guard =
    Ptg_cpu.Guard_timing.of_config config ?obs
      ~rng:(Rng.create (Int64.add seed 1L))
  in
  let guarded = run_mix ~instrs_per_core ~seed ~guard specs in
  let norm_ipc =
    guarded.Ptg_cpu.Multicore.aggregate_ipc /. base.Ptg_cpu.Multicore.aggregate_ipc
  in
  {
    label;
    workloads =
      Array.to_list (Array.map (fun s -> s.Ptg_workloads.Workload.name) specs);
    base_ipc = base.Ptg_cpu.Multicore.aggregate_ipc;
    norm_ipc;
    slowdown_pct = 100.0 *. (1.0 -. norm_ipc);
    avg_queue_delay = base.Ptg_cpu.Multicore.avg_queue_delay;
  }

let of_rows rows =
  let max_row =
    List.fold_left
      (fun acc r -> if r.slowdown_pct > acc.slowdown_pct then r else acc)
      (List.hd rows) rows
  in
  {
    rows;
    avg_slowdown_pct =
      Stats.mean (Array.of_list (List.map (fun r -> r.slowdown_pct) rows));
    max_slowdown_pct = max_row.slowdown_pct;
    max_label = max_row.label;
  }

module Codec = Ptg_snapshot.Codec

let put_row b r =
  Codec.put_string b r.label;
  Codec.put_list b Codec.put_string r.workloads;
  Codec.put_float b r.base_ipc;
  Codec.put_float b r.norm_ipc;
  Codec.put_float b r.slowdown_pct;
  Codec.put_float b r.avg_queue_delay

let get_row r =
  let label = Codec.get_string r in
  let workloads = Codec.get_list r Codec.get_string in
  let base_ipc = Codec.get_float r in
  let norm_ipc = Codec.get_float r in
  let slowdown_pct = Codec.get_float r in
  let avg_queue_delay = Codec.get_float r in
  { label; workloads; base_ipc; norm_ipc; slowdown_pct; avg_queue_delay }

(* The case list is re-derived from the seed for every run. A stored
   row answers its case when the label matches and its slowdown is the
   one its normalized IPC gives (a NaN one would fail {!of_rows}). *)
let sweep ?jobs ?(same = Ptg_workloads.Workload.all)
    ?(config = Ptguard.Config.baseline) ~instrs_per_core ~mixes ~seed () =
  {
    Sweep.kind = "multicore";
    section = "multicore.rows";
    header = "";
    jobs;
    prologue = Sweep.Given ();
    cases = cases ~same ~seed ~mixes ();
    run = (fun ?obs () case -> case_row ?obs ~instrs_per_core ~seed ~config case);
    finish = of_rows;
    put = put_row;
    get = get_row;
    answers =
      (fun r (label, _) ->
        r.label = label && r.slowdown_pct = 100.0 *. (1.0 -. r.norm_ipc));
  }

let run ?jobs ?(instrs_per_core = 400_000) ?(seed = 7L) ?same ?(mixes = 16)
    ?config ?obs () =
  Sweep.run ?obs (sweep ?jobs ?same ?config ~instrs_per_core ~mixes ~seed ())

let header = [ "configuration"; "workloads"; "IPC_b"; "IPC/IPC_b"; "slowdown"; "queue delay" ]

let to_rows result =
  List.map
    (fun r ->
      [
        r.label;
        String.concat "+" r.workloads;
        Table.f3 r.base_ipc;
        Table.f3 r.norm_ipc;
        Table.fpct r.slowdown_pct;
        Table.f2 r.avg_queue_delay;
      ])
    result.rows

let to_string result =
  "Section VII-C: 4-core slowdown (SAME and MIX configurations)\n"
  ^ Table.render
      ~align:[ Table.Left; Left; Right; Right; Right; Right ]
      ~header (to_rows result)
  ^ Printf.sprintf
      "Average slowdown %.2f%%, worst %.2f%% (%s).\n\
       Paper: 0.5%% average, 1.6%% worst case.\n"
      result.avg_slowdown_pct result.max_slowdown_pct result.max_label

let to_csv result ~path = Table.save_csv ~path ~header (to_rows result)
