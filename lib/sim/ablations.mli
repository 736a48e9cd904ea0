(** Ablation studies for the design choices DESIGN.md calls out.

    These go beyond the paper's headline figures to quantify {e why} each
    mechanism is there: the marginal coverage of every correction
    strategy, the selectivity of the 96- vs 152-bit write patterns, and
    the CTB-overflow / re-keying defense of Section VII-B exercised by an
    actual known-plaintext collision attack. *)

(** {2 Correction-strategy ablation} *)

type correction_row = {
  label : string;
  corrected_pct : float;
  avg_guesses_when_corrected : float;
}

type correction_result = {
  p_flip : float;
  lines : int;
  rows : correction_row list;  (** "all", "without X...", "only X..." *)
}

val correction :
  ?jobs:int -> ?lines:int -> ?seed:int64 -> ?p_flip:float -> unit -> correction_result
(** [jobs] fans the strategy masks across domains; every mask replays the
    same pre-drawn faults, so results are independent of the job count. *)

(** {2 Write-pattern selectivity} *)

type pattern_result = {
  data_lines_tested : int;
  basic_matches : int;     (** random/realistic data matching the 96-bit pattern *)
  extended_matches : int;
  zero_lines : int;
  pte_lines_tested : int;
  pte_basic_matches : int;      (** must equal pte_lines_tested *)
  pte_extended_matches : int;   (** must equal pte_lines_tested *)
}

val pattern : ?lines:int -> ?seed:int64 -> unit -> pattern_result

(** {2 Page-size sensitivity (Section III's remark)} *)

type page_size_row = {
  page : string;            (** "4K" or "2M" *)
  avg_slowdown_pct : float;
  walks_per_kinstr : float;
}

type page_size_result = { rows : page_size_row list }

val page_size :
  ?jobs:int -> ?instrs:int -> ?seed:int64 ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  unit -> page_size_result
(** PT-Guard's slowdown with 4 KB vs 2 MB pages: "larger page sizes would
    only reduce the slowdown by reducing frequency of page-table-walks"
    — measured. Defaults to the high-MPKI workload subset. *)

(** {2 CTB overflow and re-keying (Section VII-B)} *)

type ctb_result = {
  collisions_planted : int;    (** via the known-plaintext MAC leak *)
  ctb_entries_before : int;
  overflow_signalled : bool;
  rekeys : int;
  collisions_after_rekey : int; (** stale MACs must stop colliding: 0 *)
  reads_correct_after_rekey : bool;
}

val ctb_overflow : ?seed:int64 -> unit -> ctb_result

(** {2 All four} *)

type result = {
  correction : correction_result;
  pattern : pattern_result;
  ctb : ctb_result;
  page_size : page_size_result;
}

val run : ?jobs:int -> lines:int -> instrs:int -> seed:int64 -> unit -> result
(** Every ablation at one [seed]; [lines] and [instrs] size the
    correction and page-size ablations. *)

val to_string : result -> string
(** The report the [ablations] subcommand prints. *)
