(** Figure 6: normalized IPC under PT-Guard and LLC MPKI, per workload.

    Paper result being reproduced: 1.3% average slowdown across 25
    SPEC/GAP workloads with a 10-cycle MAC; slowdown grows with LLC MPKI;
    xalancbmk worst at 3.6% (MPKI 29); workloads below 5 MPKI lose < 1%. *)

type row = {
  workload : string;
  mpki : float;
  base_ipc : float;
  norm_ipc : float;      (** IPC_PT-Guard / IPC_base *)
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

val run :
  ?jobs:int ->
  ?instrs:int ->
  ?warmup:int ->
  ?seed:int64 ->
  ?config:Ptguard.Config.t ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  ?obs:Ptg_obs.Sink.t ->
  unit ->
  result
(** Defaults: 2M timed instructions after 500K warmup per workload, the
    Baseline PT-Guard design at 10-cycle MAC latency, all 25 workloads.
    Identical streams (same seed) drive the unprotected and protected
    runs, so the IPC ratio isolates the MAC delay exactly. [jobs] fans
    the per-workload runs across domains via {!Ptg_util.Pool} (default
    {!Ptg_util.Pool.default_jobs}); the result is bit-identical for any
    job count. With [obs], the {e guarded} run of each workload reports
    into a per-task child sink; children merge into [obs] in workload
    order after the join, so metrics/trace exports are also byte-identical
    for any job count. *)

val run_rows :
  ?jobs:int ->
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  config:Ptguard.Config.t ->
  Ptg_workloads.Workload.spec list ->
  row list
(** The per-workload rows of {!run} for an arbitrary subset of
    workloads, in order: {!Sweep.units} of {!sweep}. Rows are
    independent — each builds its own RNG and guard from [seed] alone —
    so computing them in separate calls yields exactly the rows a single
    {!run} over the full list produces. *)

val of_rows : row list -> result
(** Aggregate rows (gmean/amean/max): the sweep's [finish]. *)

val sweep :
  ?jobs:int ->
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  config:Ptguard.Config.t ->
  Ptg_workloads.Workload.spec list ->
  (unit, Ptg_workloads.Workload.spec, row, result) Sweep.t
(** The figure as a sweep: one row per workload, stored in a
    ["fig6.rows"] prefix. A stored row is adopted only when it names its
    workload and its slowdown is the one its positive normalized IPC
    gives. *)

val to_string : result -> string
(** The report the [fig6] subcommand prints (the serving layer caches
    and ships this rendering). *)

val to_csv : result -> path:string -> unit

type multi = {
  runs : result list;
  amean_slowdown : Ptg_util.Stats.summary;  (** across seeds *)
  max_slowdown : Ptg_util.Stats.summary;
}

val run_multi :
  ?jobs:int ->
  ?seeds:int ->
  ?instrs:int ->
  ?warmup:int ->
  ?config:Ptguard.Config.t ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  ?obs:Ptg_obs.Sink.t ->
  unit ->
  multi
(** Repeat {!run} over [seeds] distinct seeds (default 5) and summarize
    the run-to-run spread of the headline numbers. [jobs] is passed to
    each per-seed {!run}. *)

val multi_to_string : multi -> string
