(** LRU result cache for served scenario renderings.

    Keys are canonical request hashes ({!Ptg_sim.Scenario.hash}); values
    are the rendered experiment reports. Deterministic simulations make
    this cache lossless: a hit returns bytes identical to a re-run.

    Capacity is two-dimensional: an entry count, and an optional byte
    budget over encoded entry sizes (key + value bytes) so one huge
    fullsys rendering cannot masquerade as "one entry" next to a
    hundred tiny fig6 rows.

    Not thread-safe by itself — the server guards it with the same mutex
    that protects its scheduler state. Hit/miss/eviction counts live in
    registry counters: an owner that exports them passes its own to
    {!counted}, so each event is counted once. *)

type t

type counters = {
  hits : Ptg_obs.Registry.counter;
  misses : Ptg_obs.Registry.counter;
  evictions : Ptg_obs.Registry.counter;
}

val counted : counters -> ?max_bytes:int -> capacity:int -> unit -> t
(** A cache that counts its hits, misses and evictions in [counters].
    Raises [Invalid_argument] on [capacity < 1] or [max_bytes < 1].
    Without [max_bytes] only the entry count bounds the cache. *)

val create : ?max_bytes:int -> capacity:int -> unit -> t
(** {!counted} over counters of a private registry. *)

val capacity : t -> int
val max_bytes : t -> int option
val length : t -> int

val bytes : t -> int
(** Sum of [weight] over the live entries. *)

val weight : key:string -> value:string -> int
(** The byte cost one entry charges against [max_bytes]:
    [String.length key + String.length value]. *)

val find : t -> string -> string option
(** Returns the cached value and marks the key most-recently-used;
    counts a hit or a miss. *)

val put : t -> string -> string -> unit
(** Insert or refresh a binding, then evict least-recently-used entries
    (counted in {!evictions}) until both the entry count and the byte
    budget are respected. An entry bigger than [max_bytes] by itself
    drains the cache and is then evicted too — oversized values are
    uncacheable, never an error. *)

val mem : t -> string -> bool
(** Presence test without touching recency or hit/miss accounting. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val to_alist : t -> (string * string) list
(** All bindings, most-recently-used first. Touches neither recency nor
    the hit/miss accounting; O(n). The recency order it exposes is the
    contract the model-based property test checks. *)
