(** Section VII-C: PT-Guard slowdown on a 4-core system.

    Paper result being reproduced: with 4 cores sharing the LLC and memory
    channels, PT-Guard (baseline design, MAC latency on all DRAM reads)
    averages 0.5% slowdown with a 1.6% worst case — lower than single-core
    because channel contention inflates the base memory latency relative
    to the constant MAC delay. *)

type row = {
  label : string;          (** "SAME xalancbmk" or "MIX3" *)
  workloads : string list;
  base_ipc : float;        (** aggregate IPC, unprotected *)
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

val sweep :
  ?jobs:int ->
  ?same:Ptg_workloads.Workload.spec list ->
  ?config:Ptguard.Config.t ->
  instrs_per_core:int ->
  mixes:int ->
  seed:int64 ->
  unit ->
  (unit, string * Ptg_workloads.Workload.spec array, row, result) Sweep.t
(** The section as a sweep over its labelled SAME and MIX core
    compositions, in presentation order; each case is one
    unprotected-vs-guarded 4-core comparison, independent of every
    other. MIXes are drawn serially from a seed-derived stream, so the
    case list is deterministic and re-derived for every run. A stored
    row is adopted only when it carries its case's label and its
    slowdown is the one its normalized IPC gives. *)

val run :
  ?jobs:int ->
  ?instrs_per_core:int ->
  ?seed:int64 ->
  ?same:Ptg_workloads.Workload.spec list ->
  ?mixes:int ->
  ?config:Ptguard.Config.t ->
  ?obs:Ptg_obs.Sink.t ->
  unit ->
  result
(** {!Sweep.run} of {!sweep}. Defaults: every workload as a SAME
    configuration (the paper runs 18) plus 16 random MIXes, 400K
    instructions per core, baseline design. [jobs] fans the SAME/MIX
    cases across domains; results are independent of the job count.
    With [obs], each case's guard reports into a child sink merged back
    in case order. *)

val to_string : result -> string
(** The report the [multicore] subcommand prints. *)

val to_csv : result -> path:string -> unit
