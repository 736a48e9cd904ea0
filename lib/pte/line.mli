(** 64-byte cachelines as arrays of eight 64-bit words.

    A cacheline holds either eight PTEs (a "PTE line") or arbitrary data —
    PT-Guard cannot tell the difference except by bit pattern, which is the
    whole point of the opportunistic design. *)

type t = int64 array
(** Always length 8. Word [i] covers byte offsets [8i .. 8i+7]. *)

val words : int
(** 8. *)

val size_bytes : int
(** 64. *)

val create : unit -> t
(** All-zero line. *)

val copy : t -> t
val equal : t -> t -> bool
val is_zero : t -> bool

val of_words : int64 array -> t
(** Validates length 8 and copies. *)

val map : (int64 -> int64) -> t -> t

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

val get_bit : t -> int -> bool
val set_bit : t -> int -> bool -> t

val line_addr : int64 -> int64
(** [line_addr a] clears the low 6 bits: the line-aligned address of [a]. *)

val pp : Format.formatter -> t -> unit
