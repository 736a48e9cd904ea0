(** One path for every sliceable run: the warm-start store, the chunked
    driver, and the sweep — a case list computed in order, one unit per
    case.

    A plain run, a sliced run and a resumed run of the same sweep go
    through the same {!drive}: with no store it is the figure's own
    [run]; with a store ({!exec} [~dir]) it adopts the deepest usable
    stored unit prefix, checkpoints, and stops when asked. Cases are
    independent and job-count invariant, so a resumed run computes only
    the missing suffix and finishes byte-identically. *)

open Ptg_snapshot

(** {1 Warm-start store}

    A directory of [<key>.<count>.ptgs] snapshot files, where [key]
    hashes everything the run depends on {e except} how far it goes and
    [count] is the depth covered. *)

val path : dir:string -> key:string -> int -> string

val stored_counts : dir:string -> key:string -> int list
(** Prefix depths present for [key], deepest first; [] when [dir] is
    missing. *)

val default_keep : int
(** Files retained per key by the driver's post-save prune (2: the
    deepest plus one fallback for damaged-file recovery). *)

val ensure_dir : string -> unit
(** Create the store directory unless it already exists; a concurrent
    creator winning the race is not an error. Raises [Sys_error] when
    the directory cannot be created (missing parent, a file in the
    way). *)

val save :
  path:string ->
  kind:string ->
  key:string ->
  count:int ->
  Snapshot.section list ->
  unit
(** Write a checkpoint: a meta section (kind, key, count), then
    [sections]. *)

val load : kind:string -> key:string -> string -> int * Snapshot.section list
(** [(count, sections)] of a checkpoint written by [kind] under [key].
    Raises [Invalid_argument] on a corrupt file or a kind/key
    mismatch. *)

(** {1 The driver} *)

type 's instance = {
  kind : string;  (** the meta kind its checkpoints carry *)
  total : int;  (** units in the whole run *)
  start : 's Lazy.t;
      (** the cold start, forced only when nothing stored is adopted *)
  start_depth : int;  (** [depth] of the cold start *)
  depth : 's -> int;  (** units done *)
  step : 's -> int -> 's;  (** run up to [n] more units *)
  encode : 's -> Snapshot.section list;  (** every section but meta *)
  decode : what:string -> Snapshot.section list -> 's option;
      (** [None] when the stored state belongs to a different run *)
}
(** One sliceable run as the driver sees it; ['s] is its progress (the
    machine for fullsys, the completed unit prefix for a sweep). *)

val drive :
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  key:string ->
  's instance ->
  's * bool * int option
(** Adopt the deepest stored state in [dir] past the cold start and
    within the budget (damaged, foreign or mismatched files are skipped;
    [adopt:false] starts cold), else force the cold start, then loop:
    poll [should_stop] at each chunk top, step up to [every] units (the
    whole rest when absent), checkpoint (every chunk when [every] is
    given, else at completion), prune to the deepest [keep] files,
    report [progress]. A stop saves
    its position only when a step ran since the start or adoption.
    Returns the final state, whether it completed, and the adopted
    depth. Without [dir] nothing is read or written. *)

(** {1 Sweeps} *)

(** What every case shares, computed before the first case. *)
type 'p prologue =
  | Given of 'p  (** known up front; nothing to compute or store *)
  | Stored of {
      name : string;  (** its section *)
      compute : unit -> 'p;
      put : Codec.writer -> 'p -> unit;
      get : Codec.reader -> 'p option;
          (** [None] when it belongs to a different run *)
    }
      (** computed as a step of its own — the cold depth is -1, so a
          prologue-only file is a legal depth-0 checkpoint — and stored
          in every checkpoint so a resumed slice never recomputes it *)

type ('p, 'c, 'u, 'r) t = {
  kind : string;  (** the meta kind its checkpoints carry *)
  section : string;  (** the unit-prefix section *)
  header : string;
      (** bytes between the prefix's case count and its units; a stored
          prefix must carry the same *)
  jobs : int option;  (** domains for the per-case fan-out *)
  prologue : 'p prologue;
  cases : 'c list;
  run : ?obs:Ptg_obs.Sink.t -> 'p -> 'c -> 'u;
      (** one case, from its own seed-derived state alone *)
  finish : 'u list -> 'r;  (** aggregate the units, in case order *)
  put : Codec.writer -> 'u -> unit;
  get : Codec.reader -> 'u;
  answers : 'u -> 'c -> bool;
      (** whether a stored unit is the one its case computes: a prefix is
          adopted only when every unit answers its case, in order *)
}

type ('u, 'r) outcome = {
  o_result : 'r option;  (** [None] when stopped early *)
  o_units : 'u list;  (** the completed prefix *)
  o_completed : bool;
  o_resumed_from : int option;  (** units adopted from the store *)
}

val exec :
  ?obs:Ptg_obs.Sink.t ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  key:string ->
  ('p, 'c, 'u, 'r) t ->
  ('u, 'r) outcome
(** {!drive} the sweep, [every] counted in units. Each case of a chunk
    reports into its own child of [obs], merged back in case order, so
    obs output is the same for any job count or chunking. Raises
    [Invalid_argument] when given both [obs] and [dir]: a checkpointed
    run excludes observability. *)

val units : ?obs:Ptg_obs.Sink.t -> ('p, 'c, 'u, 'r) t -> 'u list
(** Every unit, in case order: {!exec} with no store. *)

val run : ?obs:Ptg_obs.Sink.t -> ('p, 'c, 'u, 'r) t -> 'r
(** [finish (units t)]. *)
