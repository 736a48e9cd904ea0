(** Fully-associative translation lookaside buffer (Table III: 64 entries),
    true-LRU, keyed by virtual page number. *)

type t

val create : ?entries:int -> ?obs:Ptg_obs.Sink.t -> unit -> t
(** Default 64 entries. With [obs], the TLB's own hit and miss counts
    are exported as [tlb_hits]/[tlb_misses] and each miss records a
    [Tlb_miss] trace event. *)

val lookup : t -> vpn:int64 -> bool
(** True on hit (updates LRU). A miss does {e not} install — call
    {!fill} after the walk completes. *)

val fill : t -> vpn:int64 -> unit
val flush : t -> unit
val hits : t -> int
val misses : t -> int
val miss_rate : t -> float
(** Lifetime counts: they are never reset. *)

(** {2 Checkpointable state} *)

type state = {
  s_entries : (int * bool * int) array;  (** vpn, valid, lru per entry *)
  s_tick : int;
  s_hits : int;
  s_misses : int;
  s_mru : int;
}

val state : t -> state
(** Defensive copy of the mutable contents (entries, recency, counters). *)

val set_state : t -> state -> unit
(** Overwrite the TLB with captured contents; raises [Invalid_argument]
    on an entry-count mismatch or out-of-range MRU index. *)
