(** Per-subsystem snapshot-section codecs for the fullsys machine.

    Each [put_x]/[get_x] pair round-trips one checkpointable state
    record ([X.state]) through {!Codec}. Decoders only reconstruct the
    record; applying it with the subsystem's [set_state] is where
    geometry and range invariants are enforced. *)

val put_words : Codec.writer -> int64 array -> unit
(** RNG word vectors ({!Ptg_util.Rng.state}). *)

val get_words : Codec.reader -> int64 array

val put_tlb : Codec.writer -> Ptg_cpu.Tlb.state -> unit
val get_tlb : Codec.reader -> Ptg_cpu.Tlb.state
val put_dram : Codec.writer -> Ptg_dram.Dram.state -> unit
val get_dram : Codec.reader -> Ptg_dram.Dram.state
val put_engine : Codec.writer -> Ptguard.Engine.state -> unit
val get_engine : Codec.reader -> Ptguard.Engine.state
val put_fault : Codec.writer -> Ptg_rowhammer.Fault_model.state -> unit
val get_fault : Codec.reader -> Ptg_rowhammer.Fault_model.state
val put_frame_allocator : Codec.writer -> Ptg_vm.Frame_allocator.state -> unit
val get_frame_allocator : Codec.reader -> Ptg_vm.Frame_allocator.state
val put_page_table : Codec.writer -> Ptg_vm.Page_table.state -> unit
val get_page_table : Codec.reader -> Ptg_vm.Page_table.state
