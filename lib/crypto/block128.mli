(** 128-bit blocks for the QARMA cipher and MAC values.

    A block is an immutable pair of 64-bit halves. Cell-array conversion
    views the block as 16 byte-sized cells, cell 0 being the most
    significant byte — the cell ordering used by the QARMA state. *)

type t = { hi : int64; lo : int64 }

val zero : t
val make : hi:int64 -> lo:int64 -> t
val logxor : t -> t -> t
val logand : t -> t -> t
val lognot : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val of_int64 : int64 -> t
(** Zero-extends into the low half. *)

val hamming : t -> t -> int
(** Hamming distance over all 128 bits. *)

val popcount : t -> int

val rotr1 : t -> t
(** Rotate the whole 128-bit word right by one bit (used by the QARMA
    key-derivation orthomorphism). *)

val shift_right_127 : t -> t
(** Logical shift right by 127 bits: isolates the top bit in bit 0. *)

val to_cells : t -> int array
(** 16 cells, cell.(0) = most significant byte. *)

val of_cells : int array -> t
(** Inverse of {!to_cells}; requires length 16, each cell in [0, 255]. *)

val to_hex : t -> string
val pp : Format.formatter -> t -> unit
