(** The PT-Guard MAC over a 64-byte PTE cacheline (paper Section IV-F).

    The cacheline (eight little-endian 64-bit words in 64 bytes,
    unprotected bits zeroed by the caller) is split into four 16-byte
    chunks [C_i]; each chunk is enciphered as [Q(C_i xor A_i)] where
    [A_i] encodes the line's physical address and the chunk index, and
    the four outputs are XOR-folded. The upper 32 bits are dropped,
    leaving the 96-bit MAC that fits the pooled unused-PFN bits (12 bits
    in each of the 8 PTEs). *)

type t = { hi32 : int64; lo : int64 }
(** A 96-bit MAC: [hi32] holds bits 64..95 (top 32 bits are always zero),
    [lo] holds bits 0..63. *)

val equal : t -> t -> bool
val zero : t

val is_well_formed : t -> bool
(** [hi32] fits in 32 bits. *)

val hamming : t -> t -> int
(** Hamming distance over the 96 MAC bits. *)

val soft_match : k:int -> t -> t -> bool
(** [soft_match ~k a b] is the fault-tolerant comparison of Section VI-C:
    true when the Hamming distance is at most [k]. [soft_match ~k:0] is
    exact equality. *)

val compute : Qarma.key -> addr:int64 -> bytes -> t
(** [compute key ~addr line] is the 96-bit MAC of the 64-byte [line] (a
    {!Ptg_pte.Line.t}: eight little-endian words) at physical line
    address [addr]. The caller must already have masked the line to its
    protected bits and zeroed the MAC field itself. Safe to call from
    several domains or threads at once (each call uses a fresh {!ctx}). *)

type ctx
(** Reusable working state: a {!Qarma.scratch} whose tweak schedule
    follows the chunks enciphered through it. Another chunk at the same
    (key, line address) patches the schedule instead of expanding it
    again. Not thread-safe: one per domain. *)

val ctx : unit -> ctx

val compute_with : ctx -> Qarma.key -> addr:int64 -> bytes -> t
(** {!compute} with a caller-owned context: identical result. *)

(** {2 Chunks}

    The MAC is the fold of four chunk ciphers, so a caller that knows
    which chunks of a line changed (the engine's MAC memo, correction
    guesses) re-enciphers only those and xors the rest from a cache. *)

val chunk : ctx -> Qarma.key -> addr:int64 -> int -> hi:int64 -> lo:int64 -> unit
(** [chunk ctx key ~addr i ~hi ~lo] enciphers chunk [i] (0..3) of the
    line at [addr], whose words [2i+1] and [2i] are [hi] and [lo]:
    [Q(C_i xor A_i)] under the tweak [A_i = { hi = i; lo = addr }]. The
    output is left in [ctx] for {!out_hi}/{!out_lo}. Inlined and
    allocation-free; the tweak is expanded only when [ctx]'s last chunk
    was under another key or address. *)

val out_hi : ctx -> int64
val out_lo : ctx -> int64

val of_fold : hi:int64 -> lo:int64 -> t
(** [of_fold ~hi ~lo] is the MAC whose four chunk outputs xor to
    [(hi, lo)]: the upper 32 bits are dropped. [compute_with] is
    [of_fold] over {!chunk} for [i = 0..3]. *)

val compute_zero : Qarma.key -> t
(** The pre-computed MAC of the all-zero cacheline {e without} the address
    input — the MAC-zero optimization of Section V-B. Equals
    [compute key ~addr:0L all_zero_line]. *)

val truncate : width:int -> t -> t
(** Keep only the low [width] bits (for the 64-bit-MAC ablation of
    Section VII-A). Requires [1 <= width <= 96]. *)

val split12 : t -> int array
(** The 8 twelve-bit slices of the MAC, slice [i] destined for PTE [i] of
    the line (bits 51:40 of that PTE). Slice 0 holds MAC bits 0..11. *)

val join12 : int array -> t
(** Inverse of {!split12}; requires 8 values, each within 12 bits. *)

val piece12 : t -> int -> int
(** [piece12 m i] is slice [i] of {!split12} without building the array. *)

val gather12 : (int -> int) -> bytes -> t
(** [gather12 piece line] is the MAC whose slice [i] is the low 12 bits
    of [piece] applied to word [i] of the 64-byte [line], for [i < 8]:
    {!join12} over a per-word extractor, without building the pieces
    array. [piece] receives the word as an [int], so bit 63 is dropped
    and no word is boxed; the MAC fields lie far below it. *)

val flip_bit : t -> int -> t
(** [flip_bit m i] flips MAC bit [i] (0..95) — used by fault injection. *)

val pp : Format.formatter -> t -> unit
