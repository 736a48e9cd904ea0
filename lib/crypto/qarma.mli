(** QARMA-128 tweakable block cipher (Avanzi, ToSC 2017).

    This is the low-latency reflector cipher PT-Guard uses to build the PTE
    MAC (paper Section IV-F: "18 round QARMA-128 ... 256-bit key").

    The construction follows the published cipher: a 16-cell state (8-bit
    cells for the 128-bit block), [r] forward rounds of AddRoundTweakey /
    cell shuffle [tau] / involutory diffusion matrix [M] / S-box, a keyed
    pseudo-reflector, and [r] mirrored backward rounds, with the tweak
    evolving through the [h] cell permutation and a cell LFSR. Key
    material is [w0 || k0] (256 bits); [w1] is derived by the
    orthomorphism [o(w) = (w >>> 1) xor (w >> 127)] and the reflector key
    is [k1 = M(k0)].

    The implementation is table-driven: four 32-bit column words. [M] is
    linear, so a forward unit is one lookup per byte in an [M o S] column
    table plus four key words already pushed through [M]; a backward unit
    xors four key words into the state, then gathers through [tau^-1]
    with one lookup per byte in [M o S^-1]. A schedule is four words per
    unit. The pure cell-array cipher is kept under test/ as the
    differential oracle.

    No official QARMA-128 test vectors are reachable in this offline
    environment, so the round constants (the SHA-512 round constants) and
    the 8-bit cell S-box (nibble-parallel sigma_1 with nibble swap) are
    documented choices; correctness is established by the property tests:
    exact inverse, ~50% avalanche, key/tweak sensitivity, pinned golden
    vectors and agreement with the reference cipher. See DESIGN.md. *)

type key
(** Expanded key schedule. *)

val default_rounds : int
(** Forward-round count [r] matching the paper's "18-round" deployment:
    [r = 8] (8 forward + 2 reflector + 8 backward). *)

val expand_key : ?rounds:int -> w0:Block128.t -> Block128.t -> key
(** [expand_key ~w0 k0] builds a key schedule from the 256-bit key
    [w0 || k0].
    [rounds] defaults to {!default_rounds}; it must be within [1, 16]
    (bounded by the round-constant table). *)

val key_of_rng : ?rounds:int -> Ptg_util.Rng.t -> key
(** Draw a uniformly random key. *)

val rounds : key -> int

val key_material : key -> Block128.t * Block128.t
(** The 256-bit key input [(w0, k0)] the schedule was expanded from.
    [expand_key ~rounds:(rounds k) ~w0 k0] rebuilds an identical schedule
    — this is how checkpoints serialize a key without persisting the
    derived round material. *)

(** {2 Cipher calls}

    A {!scratch} holds the working tweak schedule and the last output; the
    calls below reuse it instead of allocating. A scratch is not
    thread-safe: give each domain (each engine, each correction search)
    its own. *)

type scratch

val scratch : unit -> scratch
(** Allocate a fresh scratch context. *)

val encrypt_with : scratch -> key -> tweak:Block128.t -> Block128.t -> Block128.t
(** [encrypt_with sc key ~tweak p] is the ciphertext of block [p] under
    [tweak]. Only the result block is allocated. *)

val decrypt_with : scratch -> key -> tweak:Block128.t -> Block128.t -> Block128.t
(** Exact inverse of {!encrypt_with} for the same key and tweak. *)

val encrypt_raw :
  scratch -> key -> t_hi:int64 -> t_lo:int64 -> p_hi:int64 -> p_lo:int64 -> unit
(** Fully allocation-free encryption: tweak and plaintext halves are passed
    as bare [int64]s and the ciphertext is left in the scratch, readable
    via {!out_hi}/{!out_lo} until the next call on it. *)

val encrypt_retweaked : scratch -> cell:int -> int -> p_hi:int64 -> p_lo:int64 -> unit
(** [encrypt_retweaked sc ~cell v ~p_hi ~p_lo] encrypts [p] under the
    tweak of the scratch's last {!encrypt_raw} (or [encrypt_retweaked])
    call, which must be its last call, with
    the byte [v] xored into tweak cell [cell] (cell 0 = most significant
    byte of [t_hi], cell 7 its least significant). The schedule is patched
    one word per unit instead of re-expanded: the MAC's chunk tweaks
    [A_i] differ only in cell 7. *)

val tweak : scratch -> key -> t_hi:int64 -> t_lo:int64 -> unit
(** [tweak sc key ~t_hi ~t_lo] expands the tweak into the scratch's own
    schedule: the first half of {!encrypt_raw}. *)

val retweak : scratch -> cell:int -> int -> unit
(** [retweak sc ~cell v] patches the scratch's schedule as
    {!encrypt_retweaked} does, without enciphering. *)

val encrypt : scratch -> p_hi:int64 -> p_lo:int64 -> unit
(** [encrypt sc ~p_hi ~p_lo] enciphers under the scratch's current
    schedule (from {!tweak} and {!retweak}): [tweak] then [encrypt] is
    {!encrypt_raw}. Inlined like {!encrypt_scheduled}, so a caller's
    unboxed [int64] halves stay unboxed. *)

val out_hi : scratch -> int64
(** High 64 bits of the last result left in the scratch. *)

val out_lo : scratch -> int64
(** Low 64 bits of the last result left in the scratch. *)

(** {2 Fixed tweaks}

    About half the cost of a call is expanding the tweak into per-unit key
    words. A caller that encrypts many blocks under one tweak (correction
    guesses under the chunk tweaks [A_i]) expands it once. *)

type schedule
(** Every unit's key-xor-tweak words for one (key, tweak). Immutable once
    built. *)

val schedule : key -> t_hi:int64 -> t_lo:int64 -> schedule

val encrypt_scheduled : scratch -> schedule -> p_hi:int64 -> p_lo:int64 -> unit
(** [encrypt_scheduled sc (schedule key ~t_hi ~t_lo) ~p_hi ~p_lo] leaves
    the same result in [sc] as [encrypt_raw sc key ~t_hi ~t_lo ~p_hi
    ~p_lo]. It allocates nothing, and it is inlined at its call sites, so
    a caller's unboxed [int64] halves stay unboxed. *)
