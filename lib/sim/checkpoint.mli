(** Checkpoint/restore over {!Ptg_snapshot}: one chunked driver for
    every sliceable experiment.

    Each run is an instance the driver steps through: a meta kind, a
    total unit count, a cold start state, how deep a state is, a step
    that runs up to [n] more units, and a section codec whose decoder
    rejects a prefix stored by a different run. The driver alone adopts
    the deepest usable stored prefix, polls [should_stop] at each chunk
    top, saves, prunes and reports [progress]. The instances are:

    - {b fullsys} — instructions; the state is the machine itself
      ({!Fullsys.state} in nine subsystem sections). Because the hammer
      schedule, RNG streams and all counters are absolute, a run
      resumed from any checkpoint is byte-identical to one that never
      stopped.
    - {b fig6}, {b fig7}, {b fig9}, {b multicore} — sweeps over a case
      list; the state is the completed unit prefix. Units are
      independent and job-count invariant, so a resumed run computes
      only the missing suffix and aggregates identically.

    Checkpoints live in a {e warm-start store}: a directory of
    [<key>.<count>.ptgs] snapshot files, where [key] hashes everything
    the run depends on {e except} how far it goes
    ({!Scenario.prefix_hash} for fullsys scenarios) and [count] is the
    depth covered. A longer run warm-starts from the deepest stored
    prefix at or below its budget; damaged or mismatched files are
    skipped, never fatal — explicit restores ({!fullsys_restore}) raise
    instead. After each save the store is pruned to the deepest [keep]
    files per key, so a long multi-chunk run leaves a bounded number of
    files behind. A stopped run saves its position only when it ran a
    step since it started or adopted.

    Checkpointing excludes observability: drivers never pass [obs]. *)

(** {1 Warm-start store} *)

val path : dir:string -> key:string -> int -> string

val stored_counts : dir:string -> key:string -> int list
(** Prefix depths present for [key], deepest first; [] when [dir] is
    missing. *)

val default_keep : int
(** Files retained per key by the drivers' post-save prune (2: the
    deepest plus one fallback for damaged-file recovery). *)

val ensure_dir : string -> unit
(** Create the store directory unless it already exists; a concurrent
    creator winning the race is not an error. Raises [Sys_error] when
    the directory cannot be created (missing parent, a file in the
    way). *)

(** {1 Fullsys} *)

val fullsys_key :
  ?config:Fullsys.config -> ?pages:int -> seed:int64 -> unit -> string
(** Store key for a machine built outside the scenario layer: FNV-1a
    over the canonicalized creation parameters. Scenario-driven runs
    use {!Scenario.prefix_hash} instead. *)

val fullsys_save : path:string -> key:string -> Fullsys.t -> unit
(** Snapshot the machine's current state: a meta header (kind, key,
    instruction count) plus one section per subsystem (rng, dram,
    fault, engine, memctrl, vm, tlb, translations, counters). *)

val fullsys_restore : path:string -> key:string -> Fullsys.t -> int
(** Load, validate the meta header against [key], and overwrite the
    machine's state; returns the checkpoint's instruction count.
    Raises [Invalid_argument] on a corrupt file or a kind/key
    mismatch. *)

type fullsys_outcome = {
  f_result : Fullsys.result;  (** lifetime totals, partial when stopped *)
  f_completed : bool;
  f_done : int;               (** absolute instructions executed *)
  f_resumed_from : int option;
}

val run_fullsys :
  ?config:Fullsys.config ->
  ?pages:int ->
  ?key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  seed:int64 ->
  instrs:int ->
  unit ->
  fullsys_outcome
(** Build the machine, warm-start it from [dir] when possible, and run
    the remaining budget in chunks of [every] (one chunk when absent),
    checkpointing after each chunk and at completion. [should_stop] is
    polled between chunks; stopping checkpoints the current position
    (when a chunk ran since the start or the warm start) and returns
    with [f_completed = false]. [adopt:false] still writes
    checkpoints but starts cold, ignoring stored ones (the CLI's
    checkpoint-without-[--resume] mode). The final result is
    byte-identical for any [every], any kill/resume schedule, and any
    warm-start depth. *)

(** {1 Sweeps}

    Fig6, fig7, fig9 and multicore are sweeps: a case list computed in
    order, one unit (row, point or workload campaign) per case. Each
    takes the store [key] explicitly ({!run_scenario} passes
    {!Scenario.hash}); a stored prefix is only adopted when it answers
    this run's case list, in order. The other arguments mean what they
    mean for {!run_fullsys}, with [every] counted in units. *)

type ('unit, 'result) outcome = {
  o_result : 'result option;  (** [None] when stopped early *)
  o_units : 'unit list;       (** the completed prefix *)
  o_completed : bool;
  o_resumed_from : int option;  (** units adopted from the store *)
}

val run_fig6 :
  ?jobs:int ->
  key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  config:Ptguard.Config.t ->
  workloads:Ptg_workloads.Workload.spec list ->
  unit ->
  (Fig6.row, Fig6.result) outcome
(** Rows through {!Fig6.run_rows}; a stored prefix must name this run's
    workloads. *)

val run_fig7 :
  ?jobs:int ->
  key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  ?latencies:int list ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  unit ->
  (Fig7.point, Fig7.result) outcome
(** The shared unprotected baselines are the first step, then points
    through {!Fig7.point}. Every checkpoint carries the baselines (about
    one point's cost, needed by every remaining point), so a
    baselines-only file is a legal depth-0 checkpoint and a resumed
    slice never recomputes them. A stored prefix must hold baselines for
    this run's workloads and this run's (design, latency) points. *)

val run_fig9 :
  ?jobs:int ->
  key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  ?p_flips:float list ->
  ?config:Ptguard.Config.t ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  lines_per_point:int ->
  seed:int64 ->
  unit ->
  (Fig9.workload_result * (string * int) list, Fig9.result) outcome
(** Campaigns through {!Fig9.run_workload} over generator states
    {!Fig9.prepare} re-derives from [seed] each slice, assembled by
    {!Fig9.assemble}; a stored prefix must match [p_flips] and the
    workload names. *)

val run_multicore :
  ?jobs:int ->
  key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  ?same:Ptg_workloads.Workload.spec list ->
  ?config:Ptguard.Config.t ->
  instrs_per_core:int ->
  mixes:int ->
  seed:int64 ->
  unit ->
  (Multicore_exp.row, Multicore_exp.result) outcome
(** Rows through {!Multicore_exp.case_row} over {!Multicore_exp.cases}
    (re-derived from [seed] each slice); a stored prefix must carry this
    run's case labels. *)

(** {1 Scenario entry point} *)

val sliceable : Scenario.t -> bool
(** Whether {!run_scenario} can execute this scenario in
    kill-and-resume slices: fullsys, fig7 and multicore always;
    fig6/fig9 when single-seed; fig8 and trace never. The server only
    requeues deadline-expired requests for sliceable scenarios. *)

type served = {
  text : string option;  (** the {!Scenario.render}ing; [None] if stopped *)
  completed : bool;
  resumed_from : int option;
}

val run_scenario :
  ?dir:string ->
  ?every:int ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  Scenario.t ->
  served
(** The server's warm-start-aware execution path. With [dir], fullsys
    scenarios warm-start by instruction prefix (key
    {!Scenario.prefix_hash}) and the other sliceable kinds by unit
    prefix (key {!Scenario.hash}); the rendering is byte-identical to
    {!Scenario.run_to_string}. Sliceable scenarios run chunked even
    without [dir] (default [every]: a tenth of the fullsys budget, one
    unit otherwise), so [should_stop] and [progress] stay live
    mid-scenario; other kinds run in one piece. *)
