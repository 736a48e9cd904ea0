(** Minimal JSON, the one codec under the wire protocol, the scenario
    codec and its canonical form ({!Ptg_sim.Scenario}, which sorts keys
    itself), the fullsys warm-start key, the bench gate and the line-JSON
    exporters ({!escape}). The repo carries no external JSON dependency.
    Integers are kept exact ([Int] of [int64]) because scenario seeds
    are 64-bit. Object field order is preserved by parser and printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage rejected). Errors carry a byte offset. Number literals that
    overflow to a non-finite float (["1e999"]) are rejected: a
    non-finite value cannot re-serialize as valid JSON. *)

val to_string : t -> string
(** Compact rendering, no whitespace, field order preserved. Raises
    [Invalid_argument] on a non-finite [Float] — JSON has no encoding
    for nan/inf, and emitting the bare tokens would produce a frame
    {!parse} itself rejects. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val keys : t -> string list
(** Field names of an [Obj] in order; [] otherwise. *)

val escape : string -> string
(** JSON string-content escaping of double quotes, backslashes and
    control characters.
    {!to_string} applies it to every string and key; the line-JSON
    exporters of [Ptg_obs] call it directly. *)

val as_int : string -> t -> (int, string) result
(** [as_int what v]: [v] as an OCaml [int]. The error names [what]:
    ["<what> must be an integer"] or ["<what> out of range"]. *)
