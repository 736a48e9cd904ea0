(** Attack-vs-mitigation matrix (paper Sections II-B/II-C and IV-G).

    Reproduces the motivation story end-to-end on the DRAM + fault-model
    substrate, with real PTE cachelines stored in the victim row:

    - double-sided hammering flips bits on unprotected DRAM;
    - in-DRAM TRR stops it, but many-sided (TRRespass) thrashes TRR's
      sampler and flips anyway;
    - Half-Double flips a distance-2 victim {e through} the mitigation's
      own victim refreshes;
    - Graphene provisioned for RTH 10K fails on an RTH 4.8K (LPDDR4-class)
      module — the design-time-threshold weakness;
    - in every breakthrough case, PT-Guard detects (or corrects) all
      tampered PTE lines on the simulated page-table walk: zero escapes. *)

type row = {
  attack : string;
  mitigation : string;
  rth : int;                 (** module's actual Rowhammer threshold *)
  activations : int;
  mitigation_refreshes : int;
  bit_flips : int;           (** flips landed in the victim row *)
  pte_lines_tampered : int;  (** victim PTE cachelines with flipped bits *)
  detected : int;            (** walks that raised PTECheckFailed *)
  corrected : int;           (** walks transparently corrected *)
  escapes : int;             (** tampered lines consumed: must be 0 *)
}

type result = { rows : row list }

val run : ?seed:int64 -> ?iterations:int -> unit -> result
(** [iterations] scales every attack's activation budget (default 400K
    rotations — enough to clear the RTH in each scripted scenario). *)

val to_string : result -> string
(** The report the [attacks] subcommand prints. *)

val to_csv : result -> path:string -> unit
