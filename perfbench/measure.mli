(** Measurement helpers shared by the benchmark workloads: order
    statistics, the percentile rule, failure accounting, layer coverage,
    resident-memory probes and the JSON result line. Pure
    except for {!now_ns}, {!peak_rss_mb} and {!print_result}. *)

val time : (unit -> 'a) -> 'a * float
(** Run a thunk; return its value and its duration in seconds on the
    monotonic clock. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or 0 when [b] is not positive. *)

val counter : Ptg_obs.Registry.snapshot -> string -> float
(** A metric of an observation snapshot; 0 when absent. *)

(** {1 Order statistics} *)

val median : float list -> float
(** Midpoint of the two middle values for an even count. Raises
    [Invalid_argument] on an empty list. *)

val mean : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs]: nearest-rank percentile, the value at rank
    [ceil (p / 100 * n)] of the sorted sample. Raises [Invalid_argument]
    on an empty list or [p] outside (0, 100]. *)

val beyond : float -> int -> int
(** [beyond p n]: samples ranked strictly above the nearest-rank
    [p]-th percentile of [n] samples. *)

type tail = { pct : float; value : float; samples : int }
(** A percentile, its value and the sample count it was read from. *)

val tail : ?min_beyond:int -> float list -> float list -> tail option
(** [tail candidates xs]: the highest percentile of [candidates] that
    leaves at least [min_beyond] (default 10) samples beyond it; [None]
    when no candidate is supported. *)

val supports : ?min_beyond:int -> float -> int -> bool
(** Whether [n] samples leave [min_beyond] (default 10) beyond the
    [p]-th percentile. *)

(** {1 Failure accounting} *)

type outcome =
  | Passed
  | Refused  (** the system shed the operation (overloaded) *)
  | Timed_out
  | Errored of string  (** an error reply or a transport failure *)
  | Mismatch of string  (** the output did not match its check *)

type tally

val tally : unit -> tally
val record : tally -> outcome -> unit
(** Count one attempted operation; anything but [Passed] also counts as
    failed. The first few failure reasons are kept for the report. *)

val attempted : tally -> int
val failed : tally -> int
val failed_frac : tally -> float
(** [failed / attempted]; 0 when nothing was attempted. *)

val reasons : tally -> string list
(** Up to 8 failure descriptions, in the order they happened. *)

(** {1 Layer coverage} *)

type layer = { name : string; calls : float; cost_s : float }
(** [calls] operations into one layer, each costing [cost_s] seconds of
    host time as measured by replaying captured inputs through the
    layer's own API. *)

val layer_s : layer -> float
(** [calls *. cost_s]. *)

val share : wall:float -> layer -> float
(** [layer_s / wall]. *)

val unattributed_share : wall:float -> layer list -> float
(** [1 - sum layer_s / wall] over layers that do not nest in one
    another. Negative when the replayed costs exceed the measured wall
    time. Raises [Invalid_argument] when [wall <= 0]. *)

(** {1 Processes} *)

val peak_rss_mb : int -> float
(** Peak resident set (VmHWM) of a live process, in MiB; raises
    [Failure] when the kernel does not report it. *)

(** {1 Result line} *)

type metric = { name : string; value : float; unit_ : string }

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The one-line JSON result printed last: [correct], [attempted],
    [failed] and [metrics] (name -> value and unit). Raises
    [Invalid_argument] on a non-finite value, which JSON cannot carry. *)

(** {1 Workload reports} *)

type report = {
  tally : tally;
  metrics : (string * float) list;  (** name -> value; units come from BENCHMARK.json *)
  notes : string list;  (** human-readable lines printed before the result *)
}
