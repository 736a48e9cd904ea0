(** Timing-only model of PT-Guard's memory-controller delay.

    The performance experiments (Figures 6 and 7) need to know {e when} a
    DRAM read pays the MAC-computation latency — not the MAC values
    themselves. This module captures the classification rules of the two
    designs without running the cipher, which keeps billion-access timing
    runs fast. The functional engine ({!Ptguard.Engine}) is the
    bit-accurate counterpart used by the correction and attack
    experiments; the unit tests cross-check the two classifications. *)

type t

val unprotected : t
(** The no-integrity baseline: zero added latency. *)

val of_config :
  ?p_data_protected:float ->
  ?obs:Ptg_obs.Sink.t ->
  Ptguard.Config.t ->
  rng:Ptg_util.Rng.t ->
  t
(** [p_data_protected] is the probability that a {e data} line read from
    DRAM carries an embedded MAC whose check cannot be skipped:
    - [Baseline] design: ignored — every DRAM read computes the MAC;
    - [Optimized]: only reads whose identifier matches compute it; the
      paper measures < 2% of DRAM reads in total, of which page walks are
      the majority, so the default for data reads is 0.005.

    With [obs], the guard's own counts of reads and charged MAC
    computations are exported as [guard_reads]/[guard_mac_computations].
    The shared {!unprotected} instance carries no sink and counts
    nothing: every domain uses it, so nothing may write it. *)

val read_penalty : t -> is_pte:bool -> int
(** Extra cycles charged to this DRAM read. *)

val mac_computations : t -> int
(** Number of reads that paid the MAC latency so far. *)

val reads_observed : t -> int
(** DRAM reads this guard has classified; always 0 for {!unprotected}. *)
