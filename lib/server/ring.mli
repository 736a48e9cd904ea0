(** Consistent-hash ring mapping canonical scenario hashes to shard
    indices.

    Each shard owns a fixed set of virtual-node points on a 64-bit
    ring (positions are FNV-1a hashes passed through a splitmix64-style
    finalizer, which is also applied to lookup keys — raw scenario
    hashes cluster, mixed ones spread); a key routes to the shard
    owning the first point clockwise of the key's mixed position. The
    point set never changes after {!create}:
    ejection is expressed per-lookup through the [live] mask, so an
    ejected shard's arcs fall to their clockwise successors while every
    other key keeps its shard, and re-admission restores exactly the
    original ownership. *)

type t

val create : ?vnodes:int -> int -> t
(** [create ?vnodes shards] builds the ring for shard indices
    [0 .. shards - 1] with [vnodes] points each (default 64). Pure
    function of its arguments — router and tests see the same layout.
    Raises [Invalid_argument] when either count is < 1. *)

val shards : t -> int

val route : t -> live:bool array -> int64 -> int option
(** Owning live shard for a 64-bit key ({!Ptg_sim.Scenario.hash64}
    output), or [None] when no shard is live. [live] must have length
    [shards t] (checked). O(log points) plus the walk past dead
    shards. *)

val route_string : t -> live:bool array -> string -> int option
(** {!route} of the FNV-1a hash of an arbitrary string key. *)

val ownership : t -> live:bool array -> float array
(** Fraction of the keyspace each shard currently owns (ejected shards
    own 0; entries sum to ~1 when any shard is live, all-zero
    otherwise). Feeds the per-shard ring-position gauges. *)

