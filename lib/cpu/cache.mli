(** Set-associative cache timing model (tags only, true-LRU).

    Data never lives here — functional data stays in the DRAM model; the
    caches only decide hit/miss/writeback so the timing simulation knows
    which accesses reach the memory controller (where PT-Guard acts). *)

type config = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;     (** 64 throughout *)
  latency : int;        (** access latency in cycles *)
}

val l1d_32k : config
(** 32 KB, 8-way, 4 cycles (Table III). *)

val l2_256k : config
(** 256 KB, 16-way, 12 cycles. *)

val l3_2m : config
(** 2 MB, 16-way, 38 cycles. *)

val l3_1m : config
(** 1 MB/core multicore slice (Section VII-C). *)

val mmu_8k : config
(** 8 KB 4-way MMU (page-walk) cache. *)

type t

val create : ?obs:Ptg_obs.Sink.t -> ?name:string -> config -> t
(** With [obs], the cache's own access and miss counts are exported as
    [cache_accesses{cache="name"}] / [cache_misses{cache="name"}]
    (default label ["cache"]). *)

val config : t -> config

val access_fast : t -> addr:int64 -> is_write:bool -> bool
(** Look up the line containing [addr] and return [true] on hit; on miss
    the line is installed (allocate-on-miss for reads and writes alike)
    without allocating. On a miss that evicts a dirty line, the
    writeback is published through
    {!writeback_pending}/{!writeback_addr} and stays readable until the
    next access to this cache. *)

val writeback_pending : t -> bool
(** Whether the last {!access_fast} miss evicted a dirty line. *)

val writeback_addr : t -> int64
(** Line address of that dirty victim; meaningful only when
    {!writeback_pending} is [true]. *)

val probe : t -> addr:int64 -> bool
(** Non-intrusive lookup (no LRU update, no fill). *)

val invalidate : t -> addr:int64 -> unit

val accesses : t -> int
val misses : t -> int
val miss_rate : t -> float
(** Lifetime counts: they are never reset. *)
