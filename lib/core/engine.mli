(** The PT-Guard integrity engine, as implemented in the memory controller
    (paper Figure 5).

    The engine sits on the DRAM side of the controller:

    - {b writes} ({!process_write}): if the line matches the PTE bit
      pattern, the MAC (and, in the Optimized design, the identifier) is
      embedded before the line goes to DRAM. Lines whose existing data
      equals the would-be MAC are recorded in the CTB.
    - {b reads} ({!process_read}): page-table walks ([is_pte = true])
      always verify the MAC; a mismatch triggers best-effort correction
      and, failing that, a PTE-integrity exception (the line is {e not}
      forwarded). Regular reads have the MAC stripped when it verifies,
      are forwarded untouched otherwise, and — in the Optimized design —
      skip MAC computation entirely unless the identifier is present.

    The engine is purely functional with respect to DRAM: callers hand it
    lines on their way in/out of memory. It never sees cache hits, matching
    the hardware placement. *)

type os_event =
  | Pte_integrity_failure of { addr : int64 }
      (** Raised to the OS via the PTECheckFailed path. *)
  | Collision_detected of { addr : int64 }
      (** A colliding line was inserted into the CTB (attack indicator). *)
  | Ctb_overflow
      (** CTB full: the engine re-keys; the OS should suspect an attack. *)
  | Rekey_completed of { writes : int }

type stats = {
  mutable writes_total : int;
  mutable writes_protected : int;   (** MAC embedded *)
  mutable writes_mac_zero : int;    (** embedded via the precomputed MAC-zero *)
  mutable collisions_tracked : int;
  mutable reads_total : int;
  mutable reads_pte : int;
  mutable mac_computations : int;   (** reads that paid the MAC latency *)
  mutable macs_stripped : int;      (** protected lines cleaned before forwarding *)
  mutable integrity_failures : int;
  mutable corrections_attempted : int;
  mutable corrections_succeeded : int;
  mutable rekeys : int;
}

type integrity =
  | Passed
      (** PTE read whose MAC verified (line forwarded, MAC stripped). *)
  | Corrected of { step : Correction.step; guesses : int }
  | Failed
      (** Unrecoverable PTE tampering: exception, line not forwarded. *)
  | Data_protected
      (** Regular read of a line carrying a verified MAC (stripped). *)
  | Data_passthrough
      (** Regular read forwarded untouched (no MAC / mismatch / CTB hit). *)

type read_result = {
  line : Ptg_pte.Line.t option;
      (** What the controller forwards to the caches; [None] on [Failed]. *)
  integrity : integrity;
  extra_latency : int;
      (** Cycles added by this read: the MAC latency when a computation
          was needed, plus correction guesses when correction ran. *)
  raw_line : Ptg_pte.Line.t;
      (** The line as stored in DRAM (what the OS would see on a direct
          read; used for the Section IV-E PFN bounds check). *)
}

type t

val create :
  ?config:Config.t -> ?obs:Ptg_obs.Sink.t -> rng:Ptg_util.Rng.t -> unit -> t
(** Draws the QARMA key and (Optimized) the 56-bit identifier from [rng].
    Default config: {!Config.baseline}. When [obs] is given, every {!stats}
    field is exported as an [engine_*] registry source that reads the field
    (and [engine_writes_unprotected] as [writes_total - writes_protected]),
    CTB overflows are counted in [engine_ctb_overflows], and MAC-verify /
    correction / CTB / rekey events are recorded in the trace ring; without
    it the engine's behaviour and RNG stream are unchanged (a single
    [option] branch per traced event). *)

val config : t -> Config.t
val stats : t -> stats
val key : t -> Ptg_crypto.Qarma.key
val identifier : t -> int64
(** The current identifier (0 under [Baseline]). *)

val on_os_event : t -> (os_event -> unit) -> unit

val process_write : t -> addr:int64 -> Ptg_pte.Line.t -> Ptg_pte.Line.t
(** The line as it should be stored in DRAM (MAC/identifier embedded when
    the pattern matches). Also performs collision detection. *)

val process_read : t -> addr:int64 -> is_pte:bool -> Ptg_pte.Line.t -> read_result
(** [line] is the line as read from DRAM (possibly corrupted).

    Both paths compute MACs through a small host-side memo keyed on the
    line address and all 8 masked words, compared exactly, and emptied
    whenever the key changes. A memo hit still counts as a MAC
    computation and still adds the MAC latency: results, {!stats},
    observability counters and {!state} are those of computing every
    MAC afresh.

    A PTE read whose MAC fails runs {!Correction.correct} through a
    second host-side memo, of correction outcomes, keyed on the line
    address and all 8 stored words, compared exactly. Rowhammer damage
    stays in DRAM until the line is rewritten, so later walks through a
    damaged line ask for the same correction again; a hit returns the
    same outcome, guesses and [extra_latency] as a fresh correction,
    and counts, traces and emits exactly as one. It is emptied by
    {!create}, {!rekey} and {!set_state}, is not part of {!state}, and
    hands out no line: every line a read returns is a fresh copy, so
    mutating one cannot change a later hit. Neither memo models
    hardware. *)

val process_data_read : t -> addr:int64 -> Ptg_pte.Line.t -> Ptg_pte.Line.t * int
(** [process_read ~is_pte:false] for callers that need only the forwarded
    line and the added latency: a data read always forwards a line, so
    none is optional here. Same stats, events and latency. *)

val ctb : t -> Ctb.t

(** {2 Checkpointable state}

    Everything mutable beyond what re-creation from the same seed already
    reproduces: the (possibly re-keyed) 256-bit key input, the CTB
    contents, and the statistics counters. [mac_zero] and the expanded
    round material are recomputed from the key on restore; the identifier
    is immutable and re-derived by creation. *)

type state = {
  s_key_w0 : Ptg_crypto.Block128.t;
  s_key_k0 : Ptg_crypto.Block128.t;
  s_ctb : int64 list;
  s_stats : stats;
}

val state : t -> state
(** Defensive copy (the stats record is duplicated). *)

val set_state : t -> state -> unit
(** Overwrite key, CTB and stats with captured state, and empty both
    memos. The engine must have the same configuration the state was
    captured under. *)

val rekey :
  t ->
  rng:Ptg_util.Rng.t ->
  iter_lines:((addr:int64 -> Ptg_pte.Line.t -> unit) -> unit) ->
  write:(addr:int64 -> Ptg_pte.Line.t -> unit) ->
  unit
(** Gradual re-keying (Section VII-B): draws a fresh key, then
    [iter_lines] must present every stored line (the engine snapshots
    them); each line is verified/stripped under the old key, re-embedded
    under the new key, and handed to [write] in iteration order. The CTB,
    the MAC memo and the correction memo are cleared. *)

val pte_bounds_check : t -> Ptg_pte.Line.t -> bool
(** Section IV-E: would the OS's PFN bounds check flag this stored PTE
    line (a PFN beyond physical memory, i.e. an embedded MAC)? *)
