(** Rowhammer disturbance fault model.

    Physics abstracted to what the defense can observe: every activation of
    a row leaks charge from its neighbours; when a victim row's accumulated
    disturbance since its last refresh crosses the Rowhammer threshold
    (RTH), bits of data stored in that row flip with a per-bit probability,
    subject to the cell's orientation (true cells flip 1->0, anti cells
    0->1 — the basis of the Monotonic-Pointers defense the paper compares
    against).

    Crucially for the breakthrough attacks: a {e refresh} of a row also
    activates it, so mitigation-issued victim refreshes disturb the
    refreshed row's own neighbours ([refresh_disturb_weight]). This is the
    Half-Double effect — hammering row A makes a TRR-style mitigation
    refresh A±1 so intensely that A±2 flips.

    The model subscribes to a {!Ptg_dram.Dram.t}'s activation and refresh
    events and injects flips directly into its stored lines. *)

type orientation = All_true | All_anti | Per_row_hash
(** How cell orientation is assigned. [Per_row_hash] (default) gives each
    row a pseudo-random orientation, stable across runs. *)

type config = {
  rth : int;                    (** Rowhammer threshold (activations) *)
  p_flip : float;               (** per-bit flip probability at threshold *)
  distance2_weight : float;     (** disturbance from activations 2 rows away *)
  refresh_disturb_weight : float; (** disturbance a refresh inflicts at distance 1 *)
  orientation : orientation;
}

val ddr4 : config
(** RTH = 10K, worst-case p_flip ~ 0.2% (Kim et al., ISCA 2020). *)

val lpddr4 : config
(** RTH = 4.8K, worst-case p_flip ~ 1%. *)

val legacy_ddr3 : config
(** RTH = 139K (Kim et al., ISCA 2014) — the 2014 baseline. *)

type flip = { addr : int64; bit : int; row : int; bank : int; channel : int }

type t

val attach : ?config:config -> rng:Ptg_util.Rng.t -> Ptg_dram.Dram.t -> t
(** Create the fault model and subscribe it to the DRAM's activation and
    refresh events. Default config: {!ddr4}. *)

val config : t -> config

val flip_count : t -> int
(** Flips injected since the model was attached. *)

val on_flip : t -> (flip -> unit) -> unit
(** Call [f] on every flip from now on. The model keeps no journal of
    its flips: a caller that needs them, or a subset, collects them
    here. *)

(** {2 Checkpointable state}

    The model's own RNG stream, the accumulated per-row disturbance, and
    the flip count. Listeners and the DRAM subscription are structural
    and survive in the re-created model. *)

type state = {
  s_rng : int64 array;
  s_disturbance : ((int * int * int) * float) list;
  s_flip_count : int;
}

val state : t -> state
val set_state : t -> state -> unit
(** Replace the model's RNG stream, disturbance and flip count.
    [s_disturbance] may list its keys in any order. Raises
    [Invalid_argument] naming the [(channel, bank, row)] key, before
    changing anything, when a key lies outside the device's geometry,
    when a key appears twice, or when a value is NaN, infinite or
    negative ([-0.0] included): a NaN row would never reach the
    threshold again, and an infinite one would flip on its next
    activation. *)

val disturbance : t -> channel:int -> bank:int -> row:int -> float
val row_is_true_cell : t -> row:int -> bool
(** Orientation assigned to a row (under [Per_row_hash]). *)
