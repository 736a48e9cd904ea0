(** Baseline Rowhammer mitigations as named plugins with typed parameter
    schemas (paper Sections II-B and VIII-B).

    These are the trackers that breakthrough attacks defeat, implemented
    so the experiments can demonstrate {e why} PT-Guard's threshold-free
    detection is needed. Each mitigation subscribes to a DRAM's
    activation stream and issues victim refreshes through
    {!Ptg_dram.Dram.refresh_row}; those refreshes in turn disturb their
    own neighbours in the fault model, which is exactly the lever
    Half-Double exploits.

    The registry is the extensibility point ramulator2 gets from its
    [IControllerPlugin] implementations: a defense registers once, by
    name, with a schema of typed parameters (ints, floats, booleans,
    each with a default), and every front-end (the attack experiments,
    the CLI's [trace replay --mitigation], the server's [kind:"trace"]
    scenarios) instantiates it through the same validated path. Unknown
    plugin names, unknown parameter keys and type mismatches are
    rejected with messages that name the valid alternatives.

    Built-ins registered at load time, all in the victim-refresh
    paradigm:

    - [trr] (in-DRAM TRR): [sampler_size] entries per bank (default 4);
      every [ref_interval_acts] activations per bank (default 166 =
      tREFI / tRC) a REF refreshes both neighbours of the sampler entry
      with the highest count, then drops it. The sampler observes only
      the first [sample_window] activations of each interval (default 8),
      as reverse-engineered from DDR4 parts; when a new row arrives and
      the sampler is full, the oldest entry is evicted and its count
      lost. The bounded sampler and the predictable window are exactly
      the weaknesses TRRespass/SMASH exploit by hammering outside the
      window and parking decoys inside it, while the per-REF refreshes
      hammer distance-1 rows for Half-Double.
    - [para] (PARA): stateless; on each activation refreshes each
      neighbour with probability [p] (default 0.001). Protection is
      probabilistic and [p] must be provisioned for a known RTH. Needs
      a random stream in the {!ctx}.
    - [graphene] (Graphene): [counters] Misra-Gries entries per bank
      (default 128); refreshes a row's neighbours whenever its estimated
      count reaches [threshold] (default 2500 = design-RTH 10K / 4), then
      resets it. It never misses a row that exceeds the threshold, but
      the threshold is fixed at design time: a module with lower RTH
      than provisioned still flips.
    - [soft-trr] (SoftTRR, Zhang et al., ATC 2022; paper Section
      II-E.3): the OS tracks activations of rows {e adjacent to
      page-table rows} (via PMU-based sampling) and refreshes the PT row
      itself when a neighbour's count reaches [threshold] (default
      2500). Being software, it only sees the attacker's accesses at
      distance 1 from a PT row: distance-2 hammering and the in-DRAM
      mitigation's own refreshes are invisible to it, the Half-Double
      blind spot the paper calls out. Only page-table rows (per the
      {!ctx}'s [pt_row] oracle) are defended at all. *)

type instance
(** A live mitigation subscribed to a DRAM device. *)

val instance_name : instance -> string
(** Display name: ["TRR"], ["PARA"], ["Graphene"], ["SoftTRR"]. *)

val refreshes_issued : instance -> int
(** Victim refreshes this mitigation has issued. *)

(** {1 Typed parameters} *)

type value = Int of int | Float of float | Bool of bool

val value_to_string : value -> string
(** Canonical rendering: decimal ints, [%.17g] floats, [true]/[false]. *)

type param = {
  key : string;
  doc : string;
  default : value;  (** also fixes the parameter's type *)
}

(** {1 Instantiation context}

    What a plugin may need beyond the DRAM device itself. Plugins state
    their requirements by failing instantiation with a descriptive
    error when a needed capability is absent. *)

type ctx = {
  dram : Ptg_dram.Dram.t;
  rng : Ptg_util.Rng.t option;
      (** randomized defenses (PARA) refuse to instantiate without one *)
  pt_row : (channel:int -> bank:int -> row:int -> bool) option;
      (** page-table-row oracle; required by [soft-trr] *)
}

val ctx :
  ?rng:Ptg_util.Rng.t ->
  ?pt_row:(channel:int -> bank:int -> row:int -> bool) ->
  Ptg_dram.Dram.t ->
  ctx

(** {1 Registration and lookup} *)

val register :
  name:string ->
  doc:string ->
  params:param list ->
  ((string -> value) -> ctx -> instance) ->
  unit
(** [register ~name ~doc ~params build] adds a plugin. [build get ctx]
    receives a resolver [get] that returns the validated value of each
    declared parameter (override or default). Raises [Invalid_argument]
    on a duplicate name or a duplicate parameter key. *)

val names : unit -> string list
(** Registered plugin names, in registration order (built-ins first). *)

val resolved_params : string -> (string * value) list -> (string * value) list option
(** [resolved_params name overrides] is the full parameter set of
    [name] — defaults overlaid with [overrides], sorted by key — or
    [None] for an unknown plugin. Unknown override keys are ignored
    here; use {!check_params} first. *)

val check_params : string -> (string * value) list -> (unit, string) result
(** Validate override keys and types against [name]'s schema without
    instantiating (the server does this during scenario validation). *)

val instantiate :
  ?params:(string * value) list -> string -> ctx -> (instance, string) result
(** Look up by name, validate the overrides, and build. All failure
    modes — unknown plugin, unknown key, type mismatch, out-of-range
    value, missing context capability — come back as [Error msg]. *)

val instantiate_exn :
  ?params:(string * value) list -> string -> ctx -> instance
(** {!instantiate} for callers whose plugin name and parameters are
    fixed in code: raises [Invalid_argument msg] with the [Error]
    message, which names the plugin and the failed check. *)

(** {1 CLI spec syntax}

    [NAME] or [NAME:key=value,key=value] — e.g. [para:p=0.002]. *)

val parse_spec : string -> (string * (string * value) list, string) result
(** Split and type-check a spec string against the named plugin's
    schema. *)

val of_spec : string -> ctx -> (instance, string) result
(** [parse_spec] followed by {!instantiate}. *)

val spec_help : unit -> string
(** One line per plugin: name, parameters with defaults, and doc — for
    CLI error messages and [--help] text. *)
