(** Prior page-table defenses vs PT-Guard (paper Sections II-E and VIII-C).

    Reproduces the paper's qualitative comparison as a measured matrix.
    Six threat scenarios are thrown at four defenses (none, Monotonic
    Pointers, SecWalk-style EDC, PT-Guard) and each trial is scored:

    - [blocked]: the tampering could not produce a dangerous value
      (Monotonic's placement guarantee);
    - [detected]: the defense flagged the corruption before use;
    - [corrected]: flagged and transparently repaired (PT-Guard only);
    - [escaped]: a tampered PTE would have been consumed.

    The paper's claims this table demonstrates: Monotonic leaves every
    non-PFN field exposed and collapses on anti-cell flips; a keyless EDC
    is forged outright and never binds the address; PT-Guard detects
    everything and corrects most. *)

type outcome_counts = {
  trials : int;
  blocked : int;
  detected : int;
  corrected : int;
  escaped : int;
}

type threat =
  | Pfn_true_cell  (** flip a set PFN bit 1->0 *)
  | Pfn_anti_cell  (** flip a clear PFN bit 0->1 *)
  | Us_bit  (** flip the U/S privilege bit *)
  | Random_flips  (** 5 random flips across flags and PFN *)
  | Surgical_forge  (** write an attacker-chosen PTE, without the key *)
  | Relocation_replay  (** replay a valid line at another address *)

type defense =
  | Undefended
  | Monotonic_pointers
  | Secwalk_edc
  | Pte_encryption
  | Pt_guard

type row = { threat : threat; defense : defense; counts : outcome_counts }
type result = { rows : row list }

val threats : threat list
(** Table order. *)

val threat_name : threat -> string
(** The table label, e.g. ["PTE relocation/replay"]. *)

val defenses : defense list
(** Table order. *)

val defense_name : defense -> string
(** The table label, e.g. ["PT-Guard"]. *)

val run : ?trials:int -> ?seed:int64 -> unit -> result
(** Default 500 trials per (threat, defense) cell. *)

val to_string : result -> string
(** The report the [baselines] subcommand prints. *)

val to_csv : result -> path:string -> unit
