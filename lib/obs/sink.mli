(** An observability sink: one {!Registry} plus one {!Trace} ring, passed
    as a single [?obs] argument through every subsystem constructor.

    Disabled-by-default contract: a subsystem built without a sink keeps
    exactly its pre-observability behaviour — no RNG draws, no timing
    changes, and per-operation cost of at most one [option] branch (none
    for an event the subsystem counts in a field of its own, which the
    registry reads as a {!Registry.source}).

    For [Ptg_util.Pool.parallel_map] fan-outs, each task builds its own
    {!child} sink and the parent reduces them with {!merge_into} in task
    order after the join — snapshots and traces are therefore
    byte-identical for any job count. *)

type t

val create : ?trace_capacity:int -> unit -> t
val registry : t -> Registry.t
val trace : t -> Trace.t

val child : t -> t
(** A fresh empty sink with the same trace capacity; for per-task use. *)

val merge_into : src:t -> dst:t -> unit
(** Absorb [src]'s registry snapshot and append its trace into [dst]. *)

val metrics : t -> Registry.snapshot
val reset : t -> unit
