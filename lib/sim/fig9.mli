(** Figure 9: fraction of faulty PTE cachelines corrected by PT-Guard's
    best-effort correction, per bit-flip probability.

    Paper result being reproduced: across workloads, 93% of erroneous PTE
    cachelines are corrected at p_flip = 1/512 (the DDR4 worst case) and
    70% at 1/128 (the LPDDR4 worst case), with 100% detection and no
    mis-corrections (126M simulated PTE accesses in the paper).

    PTE cachelines are drawn from per-workload simulated processes,
    weighted by the number of present PTEs in the line — walks fetch the
    lines of mapped pages, so populated lines dominate the sample, exactly
    as in traces of page-table walks. *)

type cell = {
  p_flip : float;
  sampled : int;          (** faulty lines examined (>= 1 flip) *)
  corrected : int;
  uncorrectable : int;    (** detected and reported to the OS *)
  benign : int;           (** flips confined to unprotected bits *)
  miscorrections : int;   (** must be 0 *)
  escapes : int;          (** tampering that passed verification; must be 0 *)
  corrected_pct : float;  (** corrected / (corrected + uncorrectable) *)
}

type workload_result = { workload : string; cells : cell list }

type result = {
  per_workload : workload_result list;
  average : cell list;       (** pooled over workloads, per p_flip *)
  step_histogram : (string * int) list;
      (** which correction strategy fired, across all corrections *)
}

val default_p_flips : float list
(** [1/1024; 1/512; 1/256; 1/128], the x-axis of Figure 9. *)

type prepared
(** One workload's generator state, split serially off the master seed
    stream in workload order: a case of {!sweep}. *)

val sweep :
  ?jobs:int ->
  ?p_flips:float list ->
  ?config:Ptguard.Config.t ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  lines_per_point:int ->
  seed:int64 ->
  unit ->
  (unit, prepared, workload_result * (string * int) list, result) Sweep.t
(** The figure as a sweep: one injection campaign per workload, whose
    unit pairs the workload's cells with its correction-step histogram
    (key-sorted). Generator states are re-derived from [seed] for every
    run; the parts merge into the figure byte-identically however they
    were batched. A stored part is adopted only when it names its
    workload and carries one cell per [p_flips] entry, in order. *)

val run :
  ?jobs:int ->
  ?lines_per_point:int ->
  ?seed:int64 ->
  ?p_flips:float list ->
  ?config:Ptguard.Config.t ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  ?obs:Ptg_obs.Sink.t ->
  unit ->
  result
(** {!Sweep.run} of {!sweep}. Defaults: 300 faulty lines per (workload,
    p_flip) point, the Optimized design, the Figure 9 workload subset.
    [jobs] fans the per-workload injection campaigns across domains;
    each workload draws from its own generator split serially off the
    master stream, so results are independent of the job count. With
    [obs], each workload's engine reports into a child sink merged back
    in workload order. *)

val to_string : result -> string
(** The report the [fig9] subcommand prints. *)

val to_csv : result -> path:string -> unit

type multi = {
  p_flips : float list;
  corrected : Ptg_util.Stats.summary list;  (** per p_flip, across seeds *)
  total_miscorrections : int;
  total_escapes : int;
}

val run_multi :
  ?jobs:int ->
  ?seeds:int ->
  ?lines_per_point:int ->
  ?p_flips:float list ->
  ?config:Ptguard.Config.t ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  unit ->
  multi
(** Repeat {!run} over [seeds] seeds (default 5) and summarize the spread
    of the average corrected%% per flip probability. *)

val multi_to_string : multi -> string

(** {1 Section VI-F methodology check}

    The paper drives the correction study from traces of page-table
    walks. This figure's default present-PTE-weighted line sampler
    approximates true walk-frequency sampling; {!compare_samplers}
    measures how close the two are on the same workload, replaying a
    walk trace recorded by {!Mem_trace.record_walks}. *)

type replay_result = {
  trace_len : int;
  faulty : int;
  corrected : int;
  uncorrectable : int;
  corrected_pct : float;
}

val replay_with_faults :
  ?p_flip:float ->
  ?seed:int64 ->
  ?max_events:int ->
  Mem_trace.t ->
  lines:Ptg_pte.Line.t array ->
  replay_result
(** Replay a walk trace against PT-Guard. Each event's leaf-line index,
    [(addr - data_region_bytes) / 64], taken mod the population size,
    picks a line that is written through the engine, hit with uniform
    faults at [p_flip] (default 1/512) and read back as a walk; only
    events with at least one flip count (capped at [max_events], default
    2000). Raises [Invalid_argument] on an event below the leaf-PTE
    region. *)

type sampler_comparison = {
  trace_pct : float;      (** corrected%% under true walk-frequency replay *)
  weighted_pct : float;   (** corrected%% under the weighted sampler *)
}

val compare_samplers :
  ?instrs:int -> ?seed:int64 -> ?p_flip:float -> Ptg_workloads.Workload.spec ->
  sampler_comparison
(** Both samplers over the same synthetic process (walk trace of
    [instrs] instructions, default 400K). *)

val print_comparison : Ptg_workloads.Workload.spec -> sampler_comparison -> unit
