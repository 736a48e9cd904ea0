(** Tables I-IV of the paper, regenerated from the implementation.

    These are definitional tables (PTE layouts, system configuration,
    protected bits); regenerating them from the codecs proves the
    implementation encodes the same architecture the paper describes, and
    the unit tests assert every row. *)

val to_string : unit -> string
(** Table I (x86_64 PTE layout, from {!Ptg_pte.X86}), Table II (ARMv8
    descriptor layout, from {!Ptg_pte.Armv8}), Table III (baseline system
    configuration, from the timing model's defaults), Table IV
    (MAC-protected bits, from {!Ptg_pte.Protection}) and the Section V-E
    storage/power summary of both designs: the report the [tables]
    subcommand prints. *)
