open Ptg_util

type row = {
  workload : string;
  mpki : float;
  base_ipc : float;
  norm_ipc : float;
  slowdown_pct : float;
  pte_dram_reads : int;
  dram_reads : int;
}

type result = {
  rows : row list;
  gmean_norm_ipc : float;
  amean_norm_ipc : float;
  amean_slowdown_pct : float;
  max_slowdown_pct : float;
}

(* One workload's row. Each row builds its own Rng/Engine from [seed]
   alone, so rows are independent of each other and of which process,
   domain or chunk computes them — the property the sweep's fan-out and
   its sliced and resumed runs rely on. The unprotected and guarded
   machines are two lanes of one core over one stream: they share every
   cache, TLB and walk, and differ only in DRAM timing and the guard's
   penalty. *)
let row_of_spec ?obs ~instrs ~warmup ~seed ~config spec =
  let stream = Ptg_workloads.Workload.stream (Rng.create seed) spec in
  let guard =
    Ptg_cpu.Guard_timing.of_config config ?obs
      ~rng:(Rng.create (Int64.add seed 1L))
  in
  let core =
    Ptg_cpu.Core.create_lanes ?obs
      ~guards:[| Ptg_cpu.Guard_timing.unprotected; guard |] ()
  in
  ignore (Ptg_cpu.Core.run_lanes core ~instrs:warmup ~stream);
  let lanes = Ptg_cpu.Core.run_lanes core ~instrs ~stream in
  let base = lanes.(0) and guarded = lanes.(1) in
  let norm_ipc = guarded.Ptg_cpu.Core.ipc /. base.Ptg_cpu.Core.ipc in
  {
    workload = spec.Ptg_workloads.Workload.name;
    mpki = base.Ptg_cpu.Core.llc_mpki;
    base_ipc = base.Ptg_cpu.Core.ipc;
    norm_ipc;
    slowdown_pct = 100.0 *. (1.0 -. norm_ipc);
    pte_dram_reads = base.Ptg_cpu.Core.pte_dram_reads;
    dram_reads = base.Ptg_cpu.Core.dram_reads;
  }

let of_rows rows =
  let norms = Array.of_list (List.map (fun r -> r.norm_ipc) rows) in
  let slowdowns = Array.of_list (List.map (fun r -> r.slowdown_pct) rows) in
  {
    rows;
    gmean_norm_ipc = Stats.geomean norms;
    amean_norm_ipc = Stats.mean norms;
    amean_slowdown_pct = Stats.mean slowdowns;
    max_slowdown_pct = Array.fold_left Float.max 0.0 slowdowns;
  }

module Codec = Ptg_snapshot.Codec

let put_row b r =
  Codec.put_string b r.workload;
  Codec.put_float b r.mpki;
  Codec.put_float b r.base_ipc;
  Codec.put_float b r.norm_ipc;
  Codec.put_float b r.slowdown_pct;
  Codec.put_varint b r.pte_dram_reads;
  Codec.put_varint b r.dram_reads

let get_row r =
  let workload = Codec.get_string r in
  let mpki = Codec.get_float r in
  let base_ipc = Codec.get_float r in
  let norm_ipc = Codec.get_float r in
  let slowdown_pct = Codec.get_float r in
  let pte_dram_reads = Codec.get_varint r in
  let dram_reads = Codec.get_varint r in
  { workload; mpki; base_ipc; norm_ipc; slowdown_pct; pte_dram_reads; dram_reads }

(* A stored row answers its workload when the name matches and its
   slowdown is the one its positive normalized IPC gives: a row no run
   can produce (one {!of_rows} would reject) is never adopted. *)
let answers r (spec : Ptg_workloads.Workload.spec) =
  r.workload = spec.Ptg_workloads.Workload.name
  && r.norm_ipc > 0.0
  && r.slowdown_pct = 100.0 *. (1.0 -. r.norm_ipc)

let sweep ?jobs ~instrs ~warmup ~seed ~config workloads =
  {
    Sweep.kind = "fig6";
    section = "fig6.rows";
    header = "";
    jobs;
    prologue = Sweep.Given ();
    cases = workloads;
    run = (fun ?obs () spec -> row_of_spec ?obs ~instrs ~warmup ~seed ~config spec);
    finish = of_rows;
    put = put_row;
    get = get_row;
    answers;
  }

let run_rows ?jobs ~instrs ~warmup ~seed ~config workloads =
  Sweep.units (sweep ?jobs ~instrs ~warmup ~seed ~config workloads)

let run ?jobs ?(instrs = 2_000_000) ?(warmup = 500_000) ?(seed = 42L)
    ?(config = Ptguard.Config.baseline) ?(workloads = Ptg_workloads.Workload.all)
    ?obs () =
  Sweep.run ?obs (sweep ?jobs ~instrs ~warmup ~seed ~config workloads)

let to_rows result =
  List.map
    (fun r ->
      [
        r.workload;
        Table.f2 r.mpki;
        Table.f3 r.base_ipc;
        Table.f3 r.norm_ipc;
        Table.fpct r.slowdown_pct;
        string_of_int r.dram_reads;
        string_of_int r.pte_dram_reads;
      ])
    result.rows
  @ [
      [ "GMEAN"; ""; ""; Table.f3 result.gmean_norm_ipc; ""; ""; "" ];
      [
        "AMEAN"; ""; ""; Table.f3 result.amean_norm_ipc;
        Table.fpct result.amean_slowdown_pct; ""; "";
      ];
    ]

let header =
  [ "workload"; "LLC MPKI"; "IPC_b"; "IPC/IPC_b"; "slowdown"; "DRAM rd"; "PTE rd" ]

let to_string result =
  "Figure 6: PT-Guard normalized IPC and LLC MPKI per workload\n"
  ^ Table.render
      ~align:[ Table.Left; Right; Right; Right; Right; Right; Right ]
      ~header (to_rows result)
  ^ Printf.sprintf
      "Paper: 1.3%% average slowdown, 3.6%% worst (xalancbmk @ 29 MPKI).\n\
       Here:  %.2f%% average slowdown, %.2f%% worst.\n"
      result.amean_slowdown_pct result.max_slowdown_pct

let to_csv result ~path = Table.save_csv ~path ~header (to_rows result)

type multi = {
  runs : result list;
  amean_slowdown : Stats.summary;
  max_slowdown : Stats.summary;
}

let run_multi ?jobs ?(seeds = 5) ?instrs ?warmup ?config ?workloads ?obs () =
  if seeds < 1 then invalid_arg "Fig6.run_multi: seeds";
  (* Seeds run in sequence; each seed's workloads fan out across [jobs]
     domains (nesting both would oversubscribe the pool). *)
  let runs =
    List.init seeds (fun i ->
        run ?jobs ?instrs ?warmup ?config ?workloads ?obs
          ~seed:(Int64.of_int (1000 + i)) ())
  in
  {
    runs;
    amean_slowdown =
      Stats.summarize (Array.of_list (List.map (fun r -> r.amean_slowdown_pct) runs));
    max_slowdown =
      Stats.summarize (Array.of_list (List.map (fun r -> r.max_slowdown_pct) runs));
  }

let multi_to_string m =
  Printf.sprintf
    "Figure 6 across %d seeds: average slowdown %.2f%% (se %.3f, min %.2f, max %.2f);\n\
     worst-case slowdown %.2f%% (se %.3f).\n\
     Paper: 1.3%% average, 3.6%% worst.\n"
    m.amean_slowdown.Stats.n m.amean_slowdown.Stats.mean m.amean_slowdown.Stats.stderr
    m.amean_slowdown.Stats.min m.amean_slowdown.Stats.max m.max_slowdown.Stats.mean
    m.max_slowdown.Stats.stderr
