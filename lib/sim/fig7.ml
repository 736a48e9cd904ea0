open Ptg_util

type point = {
  design : Ptguard.Config.design;
  mac_latency : int;
  avg_slowdown_pct : float;
  max_slowdown_pct : float;
  max_workload : string;
  mac_reads_fraction : float;
}

type result = { points : point list }

let default_latencies = [ 5; 10; 15; 20 ]

let cases ?(latencies = default_latencies) () =
  List.concat_map
    (fun design -> List.map (fun lat -> (design, lat)) latencies)
    [ Ptguard.Config.Baseline; Ptguard.Config.Optimized ]

(* Baseline (unprotected) runs are shared across the sweep; each one
   seeds its own Rng, so both this fan-out and the sweep's per-point
   fan-out are bit-identical to serial execution. *)
let base_runs ?jobs ~instrs ~warmup ~seed workloads =
  Array.to_list
    (Pool.parallel_map ?jobs
       (fun spec ->
         let rng = Rng.create seed in
         let stream = Ptg_workloads.Workload.stream rng spec in
         let core = Ptg_cpu.Core.create ~guard:Ptg_cpu.Guard_timing.unprotected () in
         ignore (Ptg_cpu.Core.run core ~instrs:warmup ~stream);
         (spec, Ptg_cpu.Core.run core ~instrs ~stream))
       (Array.of_list workloads))

let point ?obs ~instrs ~warmup ~seed ~base_results (design, mac_latency) =
  let cfg =
    Ptguard.Config.with_mac_latency
      (match design with
      | Ptguard.Config.Baseline -> Ptguard.Config.baseline
      | Ptguard.Config.Optimized -> Ptguard.Config.optimized)
      mac_latency
  in
  let slowdowns, max_w, mac_fracs =
    List.fold_left
      (fun (acc, (mx_v, mx_n), fr) (spec, base) ->
        let guard =
          Ptg_cpu.Guard_timing.of_config cfg ?obs
            ~rng:(Rng.create (Int64.add seed 1L))
        in
        let rng = Rng.create seed in
        let stream = Ptg_workloads.Workload.stream rng spec in
        let core = Ptg_cpu.Core.create ~guard () in
        ignore (Ptg_cpu.Core.run core ~instrs:warmup ~stream);
        let r = Ptg_cpu.Core.run core ~instrs ~stream in
        let slow =
          100.0 *. (1.0 -. (r.Ptg_cpu.Core.ipc /. base.Ptg_cpu.Core.ipc))
        in
        let frac =
          let reads = r.Ptg_cpu.Core.dram_reads + r.Ptg_cpu.Core.pte_dram_reads in
          if reads = 0 then 0.0
          else
            float_of_int r.Ptg_cpu.Core.guard_mac_computations
            /. float_of_int reads
        in
        ( slow :: acc,
          (if slow > mx_v then (slow, spec.Ptg_workloads.Workload.name)
           else (mx_v, mx_n)),
          frac :: fr ))
      ([], (neg_infinity, ""), [])
      base_results
  in
  let max_v, max_n = max_w in
  {
    design;
    mac_latency;
    avg_slowdown_pct = Stats.mean (Array.of_list slowdowns);
    max_slowdown_pct = max_v;
    max_workload = max_n;
    mac_reads_fraction = Stats.mean (Array.of_list mac_fracs);
  }

module Codec = Ptg_snapshot.Codec

let put_core_result b (r : Ptg_cpu.Core.result) =
  Codec.put_varint b r.Ptg_cpu.Core.instrs;
  Codec.put_varint b r.cycles;
  Codec.put_float b r.ipc;
  Codec.put_float b r.llc_mpki;
  Codec.put_varint b r.dram_reads;
  Codec.put_varint b r.pte_dram_reads;
  Codec.put_varint b r.walks;
  Codec.put_float b r.tlb_miss_rate;
  Codec.put_varint b r.guard_mac_computations;
  Codec.put_varint b r.cache_writebacks

let get_core_result r : Ptg_cpu.Core.result =
  let instrs = Codec.get_varint r in
  let cycles = Codec.get_varint r in
  let ipc = Codec.get_float r in
  let llc_mpki = Codec.get_float r in
  let dram_reads = Codec.get_varint r in
  let pte_dram_reads = Codec.get_varint r in
  let walks = Codec.get_varint r in
  let tlb_miss_rate = Codec.get_float r in
  let guard_mac_computations = Codec.get_varint r in
  let cache_writebacks = Codec.get_varint r in
  {
    Ptg_cpu.Core.instrs;
    cycles;
    ipc;
    llc_mpki;
    dram_reads;
    pte_dram_reads;
    walks;
    tlb_miss_rate;
    guard_mac_computations;
    cache_writebacks;
  }

let put_point b pt =
  Codec.put_bool b (pt.design = Ptguard.Config.Optimized);
  Codec.put_varint b pt.mac_latency;
  Codec.put_float b pt.avg_slowdown_pct;
  Codec.put_float b pt.max_slowdown_pct;
  Codec.put_string b pt.max_workload;
  Codec.put_float b pt.mac_reads_fraction

let get_point r =
  let design =
    if Codec.get_bool r then Ptguard.Config.Optimized else Ptguard.Config.Baseline
  in
  let mac_latency = Codec.get_varint r in
  let avg_slowdown_pct = Codec.get_float r in
  let max_slowdown_pct = Codec.get_float r in
  let max_workload = Codec.get_string r in
  let mac_reads_fraction = Codec.get_float r in
  {
    design;
    mac_latency;
    avg_slowdown_pct;
    max_slowdown_pct;
    max_workload;
    mac_reads_fraction;
  }

(* The shared baselines are the stored prologue: they cost about one
   point, every remaining point needs them, and storing them in every
   checkpoint means a resumed slice never recomputes them. Stored
   baselines are adopted only for this run's workloads, and only when
   each IPC is the one its counts give (a NaN one would poison every
   point's mean). *)
let sweep ?jobs ?(latencies = default_latencies)
    ?(workloads = Ptg_workloads.Workload.all) ~instrs ~warmup ~seed () =
  let names = List.map (fun s -> s.Ptg_workloads.Workload.name) workloads in
  let consistent (_, (r : Ptg_cpu.Core.result)) =
    r.Ptg_cpu.Core.ipc
    = float_of_int r.instrs /. float_of_int (max 1 r.cycles)
  in
  {
    Sweep.kind = "fig7";
    section = "fig7.points";
    header = "";
    jobs;
    prologue =
      Sweep.Stored
        {
          name = "fig7.base";
          compute = (fun () -> base_runs ?jobs ~instrs ~warmup ~seed workloads);
          put =
            (fun b base ->
              Codec.put_list b
                (fun b (spec, r) ->
                  Codec.put_string b spec.Ptg_workloads.Workload.name;
                  put_core_result b r)
                base);
          get =
            (fun r ->
              let base =
                Codec.get_list r (fun r ->
                    let name = Codec.get_string r in
                    let core = get_core_result r in
                    (name, core))
              in
              if List.map fst base <> names || not (List.for_all consistent base)
              then None
              else Some (List.map2 (fun spec (_, r) -> (spec, r)) workloads base));
        };
    cases = cases ~latencies ();
    run =
      (fun ?obs base_results case ->
        point ?obs ~instrs ~warmup ~seed ~base_results case);
    finish = (fun points -> { points });
    put = put_point;
    get = get_point;
    answers = (fun pt (d, l) -> pt.design = d && pt.mac_latency = l);
  }

let run ?jobs ?(instrs = 1_000_000) ?(warmup = 300_000) ?(seed = 42L)
    ?latencies ?workloads ?obs () =
  Sweep.run ?obs (sweep ?jobs ?latencies ?workloads ~instrs ~warmup ~seed ())

let header =
  [ "design"; "MAC latency"; "avg slowdown"; "worst slowdown"; "worst workload"; "MAC-read frac" ]

let to_rows result =
  List.map
    (fun p ->
      [
        Ptguard.Config.design_name p.design;
        string_of_int p.mac_latency;
        Table.fpct p.avg_slowdown_pct;
        Table.fpct p.max_slowdown_pct;
        p.max_workload;
        Table.f3 p.mac_reads_fraction;
      ])
    result.points

let to_string result =
  "Figure 7: slowdown vs MAC latency, PT-Guard vs Optimized PT-Guard\n"
  ^ Table.render
      ~align:[ Table.Left; Right; Right; Right; Left; Right ]
      ~header (to_rows result)
  ^ "Paper: PT-Guard average 0.7%-2.6% across 5-20 cycles; Optimized stays\n\
     below 0.3% average (MAC computed on <2% of DRAM reads).\n"

let to_csv result ~path = Table.save_csv ~path ~header (to_rows result)
