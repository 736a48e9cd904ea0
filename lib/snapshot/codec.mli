(** Binary primitives for the snapshot format.

    Unsigned LEB128 varints frame every length and counter; signed ints
    travel zigzag-encoded; [int64] payloads (addresses, RNG words, float
    bits) are fixed 8-byte little-endian words. Readers reject malformed
    input with [Invalid_argument] messages naming the input and the byte
    offset — the same contract as [Mem_trace.load_binary]. *)

type writer

val writer : ?size:int -> unit -> writer
(** An empty writer with room for [size] bytes (default 4096) before it
    grows. *)

val reset : writer -> unit
(** Empty the writer, keeping its room for reuse. *)

val contents : writer -> string

val output : out_channel -> writer -> unit
(** Write the writer's bytes to the channel, without copying them
    first. *)

val put_varint : writer -> int -> unit
(** Unsigned; raises [Invalid_argument] on a negative value. *)

val put_int : writer -> int -> unit
(** Signed (zigzag). *)

val put_bool : writer -> bool -> unit
val put_i64 : writer -> int64 -> unit
val put_float : writer -> float -> unit
val put_raw : writer -> string -> unit
(** The bytes alone, with no length prefix. *)

val put_string : writer -> string -> unit
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val put_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val put_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

type reader

val reader : what:string -> string -> reader
(** [what] names the input (a path, or ["<memory>"]) in error messages. *)

val corrupt : reader -> string -> 'a
val get_varint : reader -> int
val get_int : reader -> int
val get_bool : reader -> bool
val get_i64 : reader -> int64
val get_float : reader -> float
val get_raw : reader -> int -> string
(** Exactly that many bytes, with no length prefix. *)

val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list
val get_array : reader -> (reader -> 'a) -> 'a array
val get_option : reader -> (reader -> 'a) -> 'a option

val expect_end : reader -> unit
(** Raises unless every byte has been consumed. *)

val fnv1a64 : ?pos:int -> ?len:int -> string -> int64
(** The content-hash primitive (FNV-1a, 64-bit) of snapshots, scenario
    keys and ring positions, over [len] bytes of the string from [pos]
    (default: from 0 to the end) without copying them. Allocation-free.
    Raises [Invalid_argument] when the range leaves the string. *)

val hash : writer -> from:int -> int64
(** {!fnv1a64} of the bytes written from offset [from] on, hashed in
    place. Raises [Invalid_argument] when [from] is outside them. *)
