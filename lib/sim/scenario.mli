(** Shared scenario description for the paper's artifacts.

    A scenario is a typed, validated description of one experiment run:
    the experiment kind plus every semantic parameter (workload set, MAC
    latency, seed(s), reduced/full sizing) and one execution hint
    ([jobs]). Both front-ends build the same record — the CLI from parsed
    arguments, {!Ptg_server} from decoded wire frames — and both run it
    through {!run}/{!render}, so their outputs cannot drift: the bytes a
    server response carries are exactly the bytes the CLI prints.

    This module is the one place that knows a scenario's JSON form: the
    wire encoder {!to_json}, its decoder {!of_json}, and the {e
    canonical} form, which is the wire encoding of the scenario's normal
    form — a single-line JSON object with alphabetically sorted keys,
    all defaults resolved to concrete values, and only the fields that
    are semantic for its kind (the [jobs] hint is excluded — results are
    bit-identical for any job count, so two requests differing only in
    [jobs] must share a cache entry). {!hash} is an FNV-1a 64-bit hash
    of that form: the result cache key. Because every experiment is
    deterministic given its canonical form, a cache hit is
    byte-identical to a re-run. Every paper artifact is a kind, and
    {!paper} lists them once; [Trace] replays a user's memory trace. *)

type kind =
  | Fig6 | Fig7 | Fig8 | Fig9 | Multicore | Trace | Fullsys
  | Attacks | Baselines | Ablations | Security | Tables

val kinds : kind list
val kind_name : kind -> string
val kind_names : string list

type t = {
  kind : kind;
  seed : int64;  (** ignored when [seeds > 1], and by Security and Tables *)
  seeds : int;                  (** > 1 selects the multi-seed sweep *)
  reduced : bool;               (** bench-reduced default sizes *)
  design : Ptguard.Config.design;      (** Fig6 only *)
  mac_latency : int option;            (** Fig6 only; None = design default *)
  workloads : string list option;      (** Fig6 only; None = all *)
  instrs : int option;  (** Fig6/Fig7 timed; Multicore per-core; Ablations page-size *)
  warmup : int option;          (** Fig6/Fig7 *)
  processes : int option;       (** Fig8 *)
  lines : int option;  (** Fig9 per (workload, p_flip) point; Ablations correction *)
  mixes : int option;           (** Multicore *)
  iterations : int option;      (** Attacks: hammer rotations per attack *)
  trials : int option;          (** Baselines: trials per (threat, defense) cell *)
  trace_path : string option;   (** Trace only: path to the trace file *)
  mitigation : string option;   (** Trace only: a {!Ptg_mitigations.Registry} name *)
  mit_params : (string * Ptg_mitigations.Registry.value) list;
      (** Trace only: overrides for the mitigation's declared defaults *)
  guarded : bool;  (** Fullsys only: PT-Guard on the memory controller *)
  attack : bool;   (** Fullsys only: the Rowhammer attacker runs *)
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
  ?iterations:int ->
  ?trials:int ->
  ?trace:string ->
  ?mitigation:string ->
  ?mit_params:(string * Ptg_mitigations.Registry.value) list ->
  ?guarded:bool ->
  ?attack:bool ->
  ?jobs:int ->
  kind ->
  t
(** Defaults: seed 42, one seed, full sizes, Baseline design, the
    guarded machine under attack, one job, every parameter at its kind
    default (resolved lazily, see {!canonical}). *)

val validate : t -> (unit, string) result
(** Semantic checks beyond typing: known workload names, positive sizes,
    [seeds > 1] only for the kinds with a multi-seed sweep (Fig6/Fig9),
    [guarded]/[attack] false only for [Fullsys], [iterations] only for
    [Attacks] and [trials] only for [Baselines];
    for [Trace], a trace path naming a regular file (checked without
    reading it: a directory, a device or a fifo is rejected), a
    registered mitigation name and schema-valid, finite parameter
    overrides. *)

val check : t -> unit
(** {!validate}, raising [Invalid_argument] on rejection. *)

val to_json : t -> Ptg_util.Json.t
(** The wire encoding: [kind], [seed] (or [seeds] when > 1), and every
    other field only as given — [design] always for Fig6, [reduced]
    when true, [guarded] and [attack] when false, [jobs] when not 1. *)

val of_json : Ptg_util.Json.t -> (t, string) result
(** Decode and {!validate}. Rejects unknown fields, bad types, unknown
    kinds/designs/workloads, [guarded] or [attack] on a kind other than
    fullsys (whatever their value), [iterations] or [trials] on a kind
    other than attacks or baselines, and semantically invalid values,
    each with a descriptive error. Never raises. *)

val canonical : t -> string
(** {!to_json} of the normal form, keys sorted: defaults resolved,
    kind-relevant fields only. Raises [Invalid_argument] when
    {!validate} rejects.
    For [Trace], the [trace] field is the FNV-1a hash (16 hex digits)
    of the file's bytes — the cache key follows content, not path. *)

val hash64 : t -> int64
(** FNV-1a (64-bit) of {!canonical}. *)

val hash : t -> string
(** {!hash64} as 16 lowercase hex digits: the result-cache key. *)

val prefix_canonical : t -> string
(** {!canonical} with the instruction budget omitted: everything the
    run depends on {e except} how far it goes. Two [Fullsys] scenarios
    differing only in [instrs] share a prefix form, which is what lets
    a longer run warm-start from a shorter run's checkpoints. *)

val prefix_hash : t -> string
(** FNV-1a (64-bit) of {!prefix_canonical}, as 16 lowercase hex
    digits: the warm-start store key ([Checkpoint] names snapshot files
    [<prefix_hash>.<n>.ptgs]). *)

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
      (** the lifetime totals of the scenario's machine *)
  | Attacks_out of Attacks_exp.result
  | Baselines_out of Baselines_exp.result
  | Ablations_out of Ablations.result
  | Security_out of Security_exp.result
  | Tables_out

(** What runs a scenario: the one dispatch both {!run} and the
    checkpointing entry point ([Checkpoint.run_scenario]) consume. *)
type plan =
  | Sweep : ('p, 'c, 'u, output) Sweep.t -> plan
      (** single-seed fig6 and fig9, fig7, multicore: sliced and stored
          by unit prefix *)
  | Machine of { seed : int64; instrs : int; config : Fullsys.config }
      (** fullsys: the machine [config] describes ({!Fullsys.default_config}
          with the scenario's [guarded] and [attack]), default page count,
          sliced and stored by instruction prefix *)
  | Whole of (?obs:Ptg_obs.Sink.t -> unit -> output)
      (** multi-seed sweeps, fig8, trace, attacks, baselines, ablations,
          security and tables: run in one piece *)

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
(** Write the CSV artifact of single-run figures, multicore, attacks and
    baselines; the other outputs have no CSV form and are ignored
    (matching the CLI). *)

val paper : reduced:bool -> seed:int64 -> jobs:int -> (string * t) list
(** Every paper artifact as a titled scenario, in report order (the
    three {!Fullsys.comparison} machines included): the one list that
    [ptguard_cli all] and the bench's experiments section iterate. *)
