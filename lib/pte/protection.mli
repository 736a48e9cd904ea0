(** Table IV of the paper: which PTE bits the MAC protects, where the MAC
    and identifier live, and the write-time bit-pattern matches.

    All functions are parameterized on [m], the number of physical address
    bits of the machine (Table IV's "M"). With [m = 40] (1 TB) every PTE
    has a 28-bit PFN and 12 unused PFN bits; the MAC always occupies bits
    51:40 and the identifier the OS-ignored bits 58:52. *)

type config = {
  phys_addr_bits : int;  (** M; 32..40 supported *)
}

val default : config
(** M = 40 — the paper's headline configuration ("even with ... 1TB ...
    there are 12 unused bits per PFN"; Section VI-F protects 28-bit PFNs). *)

val make : phys_addr_bits:int -> config

val protected_mask : config -> int64
(** Per-PTE mask of MAC-protected bits: flags 8:0 except Accessed (bit 5),
    programmable bits 11:9, PFN bits (M-1):12, and protection keys/NX
    (63:59). For M = 40 this is 44 bits = 28 PFN + 16 flag bits. *)

val mac_field_mask : int64
(** Bits 51:40 — the 12-bit per-PTE MAC slice. *)

val identifier_field_mask : int64
(** Bits 58:52 — the 7-bit per-PTE identifier slice. *)

val unused_pfn_mask : config -> int64
(** Bits 39:M (zero-width when M = 40): PFN bits beyond the machine's
    physical memory, which the OS also zeroes. Not MAC-protected. *)

val protected_bits_per_pte : config -> int
(** Popcount of {!protected_mask}. *)

(** {2 Write-time pattern matches (Sections IV-B and V-A)} *)

val matches_basic_pattern : config -> Line.t -> bool
(** Apply to the [config] once and keep the predicate: the partial
    application computes the pattern mask, the line check allocates
    nothing. The original 96-bit pattern: every PTE's MAC field (and any unused PFN
    bits) is zero. True for every line the trusted OS writes as PTEs, and
    for data lines that happen to be zero there. *)

val matches_extended_pattern : config -> Line.t -> bool
(** The optimized 152-bit pattern: basic pattern plus all identifier
    fields zero. *)

(** {2 MAC embed / extract / strip} *)

val embed_mac : Line.t -> Ptg_crypto.Mac.t -> Line.t
(** Write the 96-bit MAC into the 8 per-PTE MAC fields. *)

val extract_mac : Line.t -> Ptg_crypto.Mac.t
(** Read the stored MAC out of the MAC fields. *)

val strip_mac : Line.t -> Line.t
(** Zero the MAC fields (what the memory controller forwards upward). *)

val masked_for_mac : config -> Line.t -> Line.t
(** Staged like {!matches_basic_pattern}. The canonical MAC input: the line restricted to its protected bits
    (everything else zeroed, including the MAC/identifier fields). *)

(** {2 Identifier embed / extract / strip (Section V-A)} *)

val embed_identifier : Line.t -> int64 -> Line.t
(** [embed_identifier line ident] writes the 56-bit identifier, 7 bits
    into each PTE's ignored field. *)

val extract_identifier : Line.t -> int64
val strip_identifier : Line.t -> Line.t

val split7 : int64 -> int array
(** The 8 seven-bit slices of a 56-bit identifier. *)

val join7 : int array -> int64

val pfn_out_of_bounds : config -> int64 -> bool
(** [pfn_out_of_bounds cfg pte]: the OS-visible bounds check of Section
    IV-E — a PFN referencing memory beyond the machine's physical limit,
    which is how the OS notices a MAC left in a faulty PTE it read
    directly. *)

val pp_table_iv : config -> Format.formatter -> unit -> unit
(** Render Table IV for this configuration. *)
