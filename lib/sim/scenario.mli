(** Shared scenario description for the servable experiments.

    A scenario is a typed, validated description of one experiment run:
    the experiment kind plus every semantic parameter (workload set, MAC
    latency, seed(s), reduced/full sizing) and one execution hint
    ([jobs]). Both front-ends build the same record — the CLI from parsed
    arguments, {!Ptg_server} from decoded wire frames — and both run it
    through {!run}/{!render}, so their outputs cannot drift: the bytes a
    server response carries are exactly the bytes the CLI prints.

    Every scenario has a {e canonical} serialized form: a single-line
    JSON object with alphabetically sorted keys, all defaults resolved to
    concrete values, and only the fields that are semantic for its kind
    (the [jobs] hint is excluded — results are bit-identical for any job
    count, so two requests differing only in [jobs] must share a cache
    entry). {!hash} is an FNV-1a 64-bit hash of that form: the result
    cache key. Because every experiment is deterministic given its
    canonical form, a cache hit is byte-identical to a re-run. *)

type kind = Fig6 | Fig7 | Fig8 | Fig9 | Multicore | Trace | Fullsys

val kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option
val kind_names : string list

val design_wire_name : Ptguard.Config.design -> string
(** ["baseline"] / ["optimized"]: the CLI's --design tokens, reused as
    the wire and canonical encoding. *)

val design_of_wire_name : string -> Ptguard.Config.design option

type t = {
  kind : kind;
  seed : int64;                 (** ignored when [seeds > 1] *)
  seeds : int;                  (** > 1 selects the multi-seed sweep *)
  reduced : bool;               (** bench-reduced default sizes *)
  design : Ptguard.Config.design;      (** Fig6 only *)
  mac_latency : int option;            (** Fig6 only; None = design default *)
  workloads : string list option;      (** Fig6 only; None = all *)
  instrs : int option;          (** Fig6/Fig7 timed instrs; Multicore per-core *)
  warmup : int option;          (** Fig6/Fig7 *)
  processes : int option;       (** Fig8 *)
  lines : int option;           (** Fig9 lines per (workload, p_flip) point *)
  mixes : int option;           (** Multicore *)
  trace_path : string option;   (** Trace only: path to the trace file *)
  mitigation : string option;   (** Trace only: a {!Ptg_mitigations.Registry} name *)
  mit_params : (string * Ptg_mitigations.Registry.value) list;
      (** Trace only: overrides for the mitigation's declared defaults *)
  jobs : int;  (** execution hint: worker domains inside the experiment *)
}

val make :
  ?seed:int64 ->
  ?seeds:int ->
  ?reduced:bool ->
  ?design:Ptguard.Config.design ->
  ?mac_latency:int ->
  ?workloads:string list ->
  ?instrs:int ->
  ?warmup:int ->
  ?processes:int ->
  ?lines:int ->
  ?mixes:int ->
  ?trace:string ->
  ?mitigation:string ->
  ?mit_params:(string * Ptg_mitigations.Registry.value) list ->
  ?jobs:int ->
  kind ->
  t
(** Defaults: seed 42, one seed, full sizes, Baseline design, one job,
    every parameter at its kind default (resolved lazily, see
    {!canonical}). *)

val validate : t -> (unit, string) result
(** Semantic checks beyond typing: known workload names, positive sizes,
    [seeds > 1] only for the kinds with a multi-seed sweep (Fig6/Fig9);
    for [Trace], an existing trace file, a registered mitigation name
    and schema-valid parameter overrides. *)

val check : t -> unit
(** {!validate}, raising [Invalid_argument] on rejection. *)

val resolve_instrs : t -> int
(** The kind-aware instruction budget, as {!canonical} resolves it. *)

val canonical : t -> string
(** Single-line JSON, sorted keys, defaults resolved, kind-relevant
    fields only. Raises [Invalid_argument] when {!validate} rejects.
    For [Trace], the [trace] field is {!trace_content_hash} of the file
    — the cache key follows content, not path. *)

val trace_content_hash : string -> string
(** FNV-1a (64-bit, 16 hex digits) of a file's bytes. *)

val hash64 : t -> int64
(** FNV-1a (64-bit) of {!canonical}. *)

val hash : t -> string
(** {!hash64} as 16 lowercase hex digits: the result-cache key. *)

val prefix_canonical : t -> string
(** {!canonical} with the instruction budget omitted: everything the
    run depends on {e except} how far it goes. Two [Fullsys] scenarios
    differing only in [instrs] share a prefix form, which is what lets
    a longer run warm-start from a shorter run's checkpoints. *)

val prefix_hash64 : t -> int64

val prefix_hash : t -> string
(** {!prefix_hash64} as 16 lowercase hex digits: the warm-start store
    key ([Checkpoint] names snapshot files [<prefix_hash>.<n>.ptgs]). *)

type output =
  | Fig6_out of Fig6.result
  | Fig6_multi_out of Fig6.multi
  | Fig7_out of Fig7.result
  | Fig8_out of Fig8.result
  | Fig9_out of Fig9.result
  | Fig9_multi_out of Fig9.multi
  | Multicore_out of Multicore_exp.result
  | Trace_out of { mitigation : string option; result : Mem_trace.replay_result }
  | Fullsys_out of Fullsys.result
      (** guarded machine under double-sided attack, default sizing *)

(** What runs a scenario: the one dispatch both {!run} and the
    checkpointing entry point ([Checkpoint.run_scenario]) consume. *)
type plan =
  | Sweep : ('p, 'c, 'u, output) Sweep.t -> plan
      (** single-seed fig6 and fig9, fig7, multicore: sliced and stored
          by unit prefix *)
  | Machine of { seed : int64; instrs : int }
      (** fullsys: the guarded machine under attack, default sizing,
          sliced and stored by instruction prefix *)
  | Whole of (?obs:Ptg_obs.Sink.t -> unit -> output)
      (** multi-seed sweeps, fig8 and trace: run in one piece *)

val plan : t -> plan
(** Raises [Invalid_argument] when {!validate} rejects. *)

val run : ?obs:Ptg_obs.Sink.t -> t -> output
(** Execute the {!plan} with no store (raising [Invalid_argument] when
    {!validate} rejects). Deterministic: the rendering of the output
    depends only on {!canonical}, never on [jobs] or on the
    observability sink. *)

val render : output -> string
(** The human-readable report — exactly what the corresponding CLI
    subcommand prints to stdout. *)

val run_to_string : ?obs:Ptg_obs.Sink.t -> t -> string
(** [render (run t)]: what the server computes, caches and ships. *)

val save_csv : output -> path:string -> unit
(** Write the CSV artifact for single-run outputs; multi-seed outputs
    have no CSV form and are ignored (matching the CLI). *)
