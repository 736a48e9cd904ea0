(** The DRAM device: banks with row buffers, backing storage for cacheline
    data, per-row activation counting, and refresh.

    This is both a timing model (row-buffer outcome per access) and a
    functional store (lines actually hold data so Rowhammer flips corrupt
    real bits that PT-Guard must then detect/correct). Activation and
    refresh events are exposed to observers — the Rowhammer fault model and
    the TRR-style mitigations both subscribe. *)

type t

type access_result = {
  latency : int;                       (** cycles, excluding integrity-engine delay *)
  outcome : Timing.row_buffer_outcome;
  coords : Geometry.coords;
}

val create :
  ?geometry:Geometry.t ->
  ?timing:Timing.t ->
  ?obs:Ptg_obs.Sink.t ->
  ?hot_row_threshold:int ->
  unit ->
  t
(** Defaults: {!Geometry.ddr4_4gb}, {!Timing.ddr4_3ghz}. Every geometry
    field must be a power of two (accesses decode addresses by shifts and
    masks, exactly as {!Geometry.decode} does for such a geometry);
    otherwise raises [Invalid_argument] naming the first offending field,
    e.g. ["Dram.create: geometry columns = 100 is not a power of two"].
    With [obs], the
    device counts activations, row-buffer outcomes and refresh epochs
    ([dram_*]) and records a [Row_activation] trace event the first time a
    row's per-window activation count reaches [hot_row_threshold]
    (default 4096, roughly half a DDR4 Rowhammer threshold). *)

val geometry : t -> Geometry.t
val timing : t -> Timing.t

val on_activate : t -> (Geometry.coords -> unit) -> unit
(** Register an observer called on every row activation (row-buffer miss
    or conflict), before the access completes. *)

val subscribe_refresh : t -> (channel:int -> bank:int -> row:int -> unit) -> unit
(** Observer for targeted row refreshes (issued by mitigations) and for
    the periodic all-bank refresh sweep (called per refreshed row only for
    targeted refreshes; the periodic sweep is signalled via {!on_refresh_epoch}). *)

val on_refresh_epoch : t -> (unit -> unit) -> unit
(** Observer called when the global refresh window rolls over (all rows
    considered refreshed). *)

val access : t -> now:int -> addr:int64 -> is_write:bool -> access_result
(** Perform a timed access at cycle [now]. Advancing [now] past the
    refresh window triggers the epoch rollover. *)

val access_fast : t -> now:int -> addr:int64 -> is_write:bool -> int
(** Allocation-free variant of {!access}: same device-state updates,
    returns only the latency in cycles. The decoded outcome and channel
    of the most recent [access_fast] (or {!access}, which is a wrapper)
    are published via {!last_outcome} / {!last_channel} and stay valid
    until the next access — the same publication protocol as
    [Cache.access_fast]. *)

val last_outcome : t -> Timing.row_buffer_outcome
val last_channel : t -> int

val read_line : t -> int64 -> Ptg_pte.Line.t
(** Functional read of the 64-byte line containing [addr]. Unwritten lines
    read as zero. *)

val write_line : t -> int64 -> Ptg_pte.Line.t -> unit
(** Functional write (line-aligned). *)

val refresh_row : t -> channel:int -> bank:int -> row:int -> unit
(** Targeted refresh (the mitigation action): notifies subscribers and
    resets the row's activation count. Raises [Invalid_argument] naming
    the channel, bank or row that lies outside the geometry. *)

val activations : t -> channel:int -> bank:int -> row:int -> int
(** Activations of the row since it was last refreshed. Raises
    [Invalid_argument] like {!refresh_row}. *)

val lines_in_row : t -> channel:int -> bank:int -> row:int -> (int64 * Ptg_pte.Line.t) list
(** All (address, line) pairs currently stored in the given row, in
    ascending address order — stable across checkpoint save/restore, which
    matters because fault injection draws RNG per visited line. *)

val flip_stored_bit : t -> addr:int64 -> bit:int -> unit
(** Corrupt one bit of the stored line at [addr] (fault injection). *)

val total_activations : t -> int
(** Lifetime activate-command count (for bench reporting). *)

val iter_stored : t -> (int64 -> Ptg_pte.Line.t -> unit) -> unit
(** Visit every stored (non-zero-initialized) line in ascending address
    order. The callback receives copies; mutating storage during iteration
    is safe only via {!write_line} on already-visited addresses (used by
    re-keying, which snapshots addresses first). *)

val stored_line_count : t -> int

(** {2 Checkpointable state}

    The device's full mutable state as plain data: per-bank open row and
    nonzero activation counts (row-sorted), the stored lines (address-sorted),
    the refresh epoch, and the published last-access decode. *)

type bank_snapshot = { bs_open_row : int; bs_activations : (int * int) list }

type state = {
  s_banks : bank_snapshot array array;
  s_storage : (int64 * Ptg_pte.Line.t) list;
  s_epoch : int;
  s_total_activations : int;
  s_last_outcome : Timing.row_buffer_outcome;
  s_last_channel : int;
  s_last_rank : int;
  s_last_bank : int;
  s_last_row : int;
  s_last_col : int;
}

val state : t -> state
(** Defensive copy of the current device state. *)

val set_state : t -> state -> unit
(** Overwrite the device with captured state. Requires identical
    geometry (bank/row counts), rows inside it and non-negative counts;
    raises [Invalid_argument] otherwise, before changing anything.
    Listeners are untouched. *)
