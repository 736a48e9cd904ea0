(** Checkpoint/restore entry points over the one chunked driver,
    {!Sweep.drive}.

    Every sliceable run goes through that driver: it adopts the deepest
    usable stored prefix, polls [should_stop] at each chunk top, saves,
    prunes and reports [progress]. There are two kinds of state:

    - the {b fullsys} machine, counted in instructions; its state is the
      machine itself ({!Fullsys.state} in nine subsystem sections).
      Because the hammer schedule, RNG streams and all counters are
      absolute, a run resumed from any checkpoint is byte-identical to
      one that never stopped.
    - a {b sweep} ({!Sweep.t}: fig6, fig7, fig9, multicore), counted in
      units; its state is the completed unit prefix. A figure's plain
      [run] is the same sweep driven with no store.

    {!Scenario.plan} is the one dispatch from a scenario to either kind
    (or to a whole run, which is not sliceable); {!run_scenario} consumes
    it. Checkpoints live in a warm-start store ({!Sweep.path}): damaged
    or mismatched files are skipped, never fatal — an explicit
    {!Sweep.load} raises instead. Checkpointing excludes observability:
    {!Sweep.exec} rejects [obs] with a store. *)

(** {1 Warm-start store} *)

val path : dir:string -> key:string -> int -> string
(** {!Sweep.path}. *)

val default_keep : int
(** {!Sweep.default_keep}. *)

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
  ?poll:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  seed:int64 ->
  instrs:int ->
  unit ->
  fullsys_outcome
(** Warm-start the machine from [dir] when possible ({!Fullsys.of_state}
    on the deepest usable checkpoint), else build it cold, and run
    the remaining budget in chunks of [every], checkpointing after each
    chunk and at completion. Without [every] it runs in chunks of [poll]
    (one chunk when absent too) and checkpoints at completion only.
    [should_stop] is
    polled between chunks; stopping checkpoints the current position
    (when a chunk ran since the start or the warm start) and returns
    with [f_completed = false]. [adopt:false] still writes
    checkpoints but starts cold, ignoring stored ones. The final result is
    byte-identical for any [every], any kill/resume schedule, and any
    warm-start depth. *)

(** {1 Scenario entry point} *)

val sliceable : Scenario.t -> bool
(** Whether {!run_scenario} can execute this scenario in
    kill-and-resume slices: whether its {!Scenario.plan} is a sweep or
    the fullsys machine (fullsys, fig7 and multicore always; fig6/fig9
    when single-seed; fig8 and trace never). The server only requeues
    deadline-expired requests for sliceable scenarios. *)

type served = {
  text : string option;  (** the {!Scenario.render}ing; [None] if stopped *)
  completed : bool;
  resumed_from : int option;
}

val run_scenario :
  ?dir:string ->
  ?every:int ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  Scenario.t ->
  served
(** The warm-start-aware execution path of the server and the CLI, over
    {!Scenario.plan}. With [dir], fullsys scenarios warm-start by
    instruction prefix (key {!Scenario.prefix_hash}) and sweeps by unit
    prefix (key {!Scenario.hash}); the rendering is byte-identical to
    {!Scenario.run_to_string}. [adopt:false] still writes checkpoints
    but starts cold (the CLI's checkpoint-without-[--resume] mode).
    [every] is the checkpoint cadence. Without it, sliceable scenarios
    still run chunked (a tenth of the fullsys budget, one unit
    otherwise), so [should_stop] and [progress] stay live mid-scenario,
    but checkpoint only at completion or on a stop; other kinds run in
    one piece. *)
