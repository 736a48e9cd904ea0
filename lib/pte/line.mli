(** 64-byte cachelines as eight 64-bit words.

    A cacheline holds either eight PTEs (a "PTE line") or arbitrary data —
    PT-Guard cannot tell the difference except by bit pattern, which is the
    whole point of the opportunistic design.

    A line is 64 bytes of unboxed storage: word [i] is bytes [8i .. 8i+7],
    little-endian, read and written through {!get} and {!set}, which are
    inlined at their call sites so a word never leaves a register as a
    boxed [int64]. A fresh line is one 9-word heap block. The type is a
    public equation so that {!Ptg_crypto.Mac}, which cannot depend on this
    library, takes lines as plain [bytes]. *)

type t = bytes
(** Always 64 bytes. Word [i] covers byte offsets [8i .. 8i+7]. *)

val words : int
(** 8. *)

val size_bytes : int
(** 64. *)

val get : t -> int -> int64
(** [get line i] is word [i], [i] in [0, 7]. Allocates nothing. *)

val set : t -> int -> int64 -> unit
(** [set line i w] overwrites word [i] in place. *)

val check : string -> t -> unit
(** [check fn line] raises [Invalid_argument] naming [fn] unless [line]
    is 64 bytes long. A loop over a line checks once, then uses the
    unchecked accessors below. *)

val unsafe_get : t -> int -> int64
val unsafe_set : t -> int -> int64 -> unit
(** {!get} and {!set} without the bounds check: only on a line that
    {!check} has passed or that this module made. *)

val create : unit -> t
(** All-zero line. *)

val init : (int -> int64) -> t
(** [init f] is the line whose word [i] is [f i]. *)

val copy : t -> t
val equal : t -> t -> bool
val is_zero : t -> bool

val of_words : int64 array -> t
(** Validates length 8 and copies into a fresh line. *)

val to_words : t -> int64 array
(** The eight words as a fresh array. *)

val map : (int64 -> int64) -> t -> t

val exists : (int64 -> bool) -> t -> bool
(** [exists p line]: some word satisfies [p]. *)

val keep : int64 -> t -> t
(** [keep mask line]: every word ANDed with [mask], as a fresh line (the
    only allocation). *)

val zero_under : int64 -> t -> bool
(** [zero_under mask line]: every word is zero under [mask]. Allocates
    nothing. *)

val hamming : t -> t -> int
(** Bit-level Hamming distance over all 512 bits. *)

val flip_bit : t -> int -> t
(** [flip_bit line i] flips bit [i] of the 512-bit line, [i] in [0, 511];
    bit [i] lives in word [i/64]. Returns a new line. *)

val flip_bit_in_place : t -> int -> unit
(** {!flip_bit} on [line] itself. *)

val get_bit : t -> int -> bool
val set_bit : t -> int -> bool -> t

val line_addr : int64 -> int64
(** [line_addr a] clears the low 6 bits: the line-aligned address of [a]. *)

val pp : Format.formatter -> t -> unit
