(** Sections IV-G and VI-E: analytical security of the MAC.

    Paper results being reproduced: a 96-bit MAC takes > 10^14 years to
    defeat at one attempt per 50 ns; soft-matching k = 4 MAC bits (needed
    for < 1% uncorrectable MACs at p_flip = 1%) with G_max = 372 guesses
    leaves an effective 66-bit MAC, still > 10^4 years. *)

type k_row = {
  k : int;
  p_uncorrectable_1pct : float;
  p_uncorrectable_0p2pct : float;
  n_eff : float;
  years : float;
}

type result = {
  report : Ptg_crypto.Security.report;
  k_sweep : k_row list;          (** k = 0..8: the Section VI-E trade-off *)
  chosen_k : int;                (** smallest k with <1% uncorrectable @ 1% *)
  mac_width_sweep : (int * float * float) list;
      (** (width, n_eff with k=4 corr., years) — Section VII-A ablation *)
}

val run : ?g_max:int -> unit -> result
val to_string : result -> string
(** The report the [security] subcommand prints. *)
