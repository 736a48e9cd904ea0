(** Versioned, hashed snapshot container.

    A snapshot is an ordered list of named binary sections wrapped in a
    compact envelope:

    {v magic "PTGS" | version (1 byte) | sections | FNV-1a hash (8 bytes LE) v}

    where the section region is a varint count followed by
    length-prefixed (name, payload) pairs, and the trailing hash covers
    exactly that region. Loading rejects — with [Invalid_argument]
    messages naming the input — a bad magic, an unsupported version, a
    hash mismatch, truncation, and trailing bytes, in that order of
    detection. Section payloads are produced and consumed with {!Codec}
    by the per-subsystem encoders in {!Sections}. *)

type section = { name : string; payload : string }

val section : name:string -> string -> section

val to_string : section list -> string
val of_string : what:string -> string -> section list
(** [what] names the input in error messages. *)

val save : path:string -> section list -> unit
(** Atomic: written to a temp file beside [path], then renamed over it —
    a crash or a concurrent writer on the same path can never leave a
    torn snapshot (last complete writer wins). *)

val load : path:string -> section list

val content_hash : section list -> int64
(** FNV-1a over the encoded section region — the same value the trailer
    stores; two snapshots are byte-identical iff their hashes agree
    (modulo 64-bit collisions). *)

(** {1 Warm-start store}

    The store convention shared by every checkpoint driver: a directory
    of [<key>.<count>.ptgs] files where [key] hashes everything the run
    depends on except its depth and [count] is the prefix covered. *)

val store_path : dir:string -> key:string -> int -> string

val store_counts : dir:string -> key:string -> int list
(** Prefix depths present for [key], deepest first; [] when [dir] is
    missing. *)

val prune : ?keep:int -> dir:string -> key:string -> unit -> int
(** Delete every stored checkpoint for [key] below the deepest [keep]
    (default 2: the warm-start candidate plus one fallback); returns how
    many files were removed. Removal races with concurrent readers are
    benign — a failure to delete is ignored, and surviving files are
    always complete snapshots. Raises [Invalid_argument] when
    [keep < 1]. *)

val reader : what:string -> section list -> string -> Codec.reader
(** A {!Codec.reader} over the named section, whose error messages
    carry both the input name and the section name. Raises
    [Invalid_argument] naming [what] and the section when it is
    missing. *)
