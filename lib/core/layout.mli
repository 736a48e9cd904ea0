(** ISA abstraction for the PT-Guard engine.

    Section IV-F: "Without loss of generality, we use x86_64 page table
    format for PT-Guard, but the principles apply to ARMv8 or any other
    ISA." This module is that claim made executable: everything the
    engine and the correction algorithm need to know about a page-table
    format is captured in {!S}, and both the x86-64 and ARMv8 layouts
    implement it — {!Ptguard.Engine} and {!Ptguard.Correction} work
    unchanged over either. *)

module type S = sig
  val name : string

  val phys_addr_bits : int
  (** M, the machine's physical address width. *)

  (** {2 Protection and spare-bit geometry} *)

  val protected_mask : int64
  (** Per-entry mask of MAC-protected bits. *)

  val mac_field_mask : int64
  (** Per-entry bits holding the 12-bit MAC slice (possibly scattered). *)

  val identifier_field_mask : int64
  val identifier_bits : int
  (** Total identifier width across the 8 entries (56 on x86, 32 on ARM). *)

  (** {2 Write-time pattern matches} *)

  val matches_basic_pattern : Ptg_pte.Line.t -> bool
  val matches_extended_pattern : Ptg_pte.Line.t -> bool

  (** {2 MAC / identifier embedding} *)

  val embed_mac : Ptg_pte.Line.t -> Ptg_crypto.Mac.t -> Ptg_pte.Line.t
  val extract_mac : Ptg_pte.Line.t -> Ptg_crypto.Mac.t
  val strip_mac : Ptg_pte.Line.t -> Ptg_pte.Line.t
  val masked_for_mac : Ptg_pte.Line.t -> Ptg_pte.Line.t
  (** [Ptg_pte.Line.keep protected_mask]: the engine's MAC memo masks
      words with {!protected_mask} directly. *)

  val embed_identifier : Ptg_pte.Line.t -> int64 -> Ptg_pte.Line.t
  val extract_identifier : Ptg_pte.Line.t -> int64
  val strip_identifier : Ptg_pte.Line.t -> Ptg_pte.Line.t

  (** {2 What correction needs to guess} *)

  val pfn : int64 -> int64
  (** The entry's frame number as a value (handles split encodings). *)

  val set_pfn : int64 -> int64 -> int64

  val pfn_word_bits : int * int
  (** (lo, hi) word-bit range of the in-use PFN bits that flip-and-check
      and the top-bits majority vote operate on. *)

  val flag_bits : int list
  (** Protected non-PFN bit positions (the majority-vote targets). *)

  val pfn_out_of_bounds : int64 -> bool
  (** The OS-side bounds check of Section IV-E. *)
end

val x86 : ?phys_addr_bits:int -> unit -> (module S)
(** The paper's primary target (Tables I and IV). Default M = 40. *)

val armv8 : ?phys_addr_bits:int -> unit -> (module S)
(** The ARMv8 descriptor layout (Table II), MAC in the scattered unused
    PFN bits. Default M = 40. *)

val default : (module S)
(** [x86 ()]. *)
