(** 64-bit bit-manipulation primitives.

    All functions operate on [int64] values interpreted as unsigned 64-bit
    words. Bit positions are numbered 0 (least significant) to 63. These are
    the workhorse operations for PTE field extraction, MAC embedding, and
    fault injection throughout the code base. *)

val bit : int -> int64
(** [bit i] is the word with only bit [i] set. Requires [0 <= i < 64]. *)

val get : int64 -> int -> bool
(** [get w i] is the value of bit [i] of [w]. *)

val set : int64 -> int -> int64
(** [set w i] is [w] with bit [i] set to 1. *)

val clear : int64 -> int -> int64
(** [clear w i] is [w] with bit [i] set to 0. *)

val flip : int64 -> int -> int64
(** [flip w i] is [w] with bit [i] inverted. *)

val assign : int64 -> int -> bool -> int64
(** [assign w i b] is [w] with bit [i] set to [b]. *)

val mask : int -> int64
(** [mask n] is a word with the [n] least-significant bits set.
    Requires [0 <= n <= 64]; [mask 64] is all-ones. *)

val field_mask : lo:int -> hi:int -> int64
(** [field_mask ~lo ~hi] has bits [lo..hi] (inclusive) set.
    Requires [0 <= lo <= hi < 64]. *)

val extract : int64 -> lo:int -> hi:int -> int64
(** [extract w ~lo ~hi] is the value of bits [lo..hi] of [w], shifted down
    so the field's bit [lo] becomes bit 0 of the result. *)

val insert : int64 -> lo:int -> hi:int -> int64 -> int64
(** [insert w ~lo ~hi v] replaces bits [lo..hi] of [w] with the low bits
    of [v]. Bits of [v] above the field width are ignored. *)

val popcount : int64 -> int
(** Number of set bits. *)

val hamming : int64 -> int64 -> int
(** [hamming a b] is the Hamming distance between [a] and [b]. *)

val parity : int64 -> bool
(** [parity w] is [true] when [w] has an odd number of set bits. *)

val rotl : int64 -> int -> int64
(** Rotate left by [n] (mod 64). *)

val rotr : int64 -> int -> int64
(** Rotate right by [n] (mod 64). *)

val rotl8 : int -> int -> int
(** [rotl8 x n] rotates the 8-bit value [x] left by [n] (mod 8); the result
    is again within [0, 255]. Used by the QARMA cell diffusion matrix. *)

val bytes_of_int64_le : int64 -> bytes
(** Little-endian 8-byte encoding. *)

val int64_of_bytes_le : bytes -> off:int -> int64
(** Little-endian decoding of 8 bytes starting at [off]. *)

val to_hex : int64 -> string
(** 16-digit lowercase hexadecimal rendering (no 0x prefix). *)

val pp_hex : Format.formatter -> int64 -> unit
(** Formatter version of {!to_hex}, prefixed with [0x]. *)

(** {2 Native-int sizes}

    For the simulators' power-of-two geometries (cache sets and lines,
    DRAM rows, banks, channels and columns), split by shifts and masks. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is [true] when [n > 0] is a power of two. *)

val log2 : int -> int
(** [log2 n] is the least [r] with [2^r >= n]: the exact logarithm of a
    power of two. *)
