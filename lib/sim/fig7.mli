(** Figure 7: average and worst-case slowdown of PT-Guard vs Optimized
    PT-Guard as the MAC computation latency sweeps 5..20 cycles.

    Paper result being reproduced: PT-Guard's average slowdown scales
    0.7% -> 2.6% across the sweep while Optimized PT-Guard stays below
    0.3% (its MAC computations cover < 2% of DRAM reads); at the default
    10 cycles, Optimized averages 0.2% with a 0.4% worst case. *)

type point = {
  design : Ptguard.Config.design;
  mac_latency : int;
  avg_slowdown_pct : float;
  max_slowdown_pct : float;
  max_workload : string;
  mac_reads_fraction : float;
      (** fraction of DRAM reads that paid the MAC latency *)
}

type result = { points : point list }

val default_latencies : int list
(** [[5; 10; 15; 20]], the paper's sweep. *)

val sweep :
  ?jobs:int ->
  ?latencies:int list ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  unit ->
  ( (Ptg_workloads.Workload.spec * Ptg_cpu.Core.result) list,
    Ptguard.Config.design * int,
    point,
    result )
  Sweep.t
(** The figure as a sweep over its (design, MAC latency) points:
    Baseline across [latencies], then Optimized. The unprotected
    per-workload baselines every point is normalized against are the
    stored prologue: computed once as a step of their own and carried
    in every checkpoint, so a baselines-only file is a legal depth-0
    checkpoint and a resumed slice never recomputes them. Each point is
    independent of every other point. *)

val run :
  ?jobs:int ->
  ?instrs:int ->
  ?warmup:int ->
  ?seed:int64 ->
  ?latencies:int list ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  ?obs:Ptg_obs.Sink.t ->
  unit ->
  result
(** {!Sweep.run} of {!sweep}. Defaults: latencies [5; 10; 15; 20], both
    designs, all workloads. [jobs] fans the shared baseline runs and the
    sweep points across domains; results are independent of the job
    count. With [obs], each point's guard reports into a child sink
    merged back in case order (deterministic for any job count). *)

val to_string : result -> string
(** The report the [fig7] subcommand prints. *)

val to_csv : result -> path:string -> unit
