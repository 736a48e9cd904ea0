(** Per-subsystem snapshot-section codecs.

    Each [put_x]/[get_x] pair round-trips one checkpointable state
    record ([X.state]) through {!Codec}. Decoders only reconstruct the
    record; applying it with the subsystem's [set_state] is where
    geometry and range invariants are enforced. *)

val put_words : Codec.writer -> int64 array -> unit
(** RNG word vectors ({!Ptg_util.Rng.state}). *)

val get_words : Codec.reader -> int64 array
val put_line : Codec.writer -> Ptg_pte.Line.t -> unit
val get_line : Codec.reader -> Ptg_pte.Line.t
val put_addr_line : Codec.writer -> int64 * Ptg_pte.Line.t -> unit
val get_addr_line : Codec.reader -> int64 * Ptg_pte.Line.t
val put_block : Codec.writer -> Ptg_crypto.Block128.t -> unit
val get_block : Codec.reader -> Ptg_crypto.Block128.t

val put_cache : Codec.writer -> Ptg_cpu.Cache.state -> unit
val get_cache : Codec.reader -> Ptg_cpu.Cache.state
val put_tlb : Codec.writer -> Ptg_cpu.Tlb.state -> unit
val get_tlb : Codec.reader -> Ptg_cpu.Tlb.state
val put_dram : Codec.writer -> Ptg_dram.Dram.state -> unit
val get_dram : Codec.reader -> Ptg_dram.Dram.state
val put_engine : Codec.writer -> Ptguard.Engine.state -> unit
val get_engine : Codec.reader -> Ptguard.Engine.state
val put_guard : Codec.writer -> Ptg_cpu.Guard_timing.state -> unit
val get_guard : Codec.reader -> Ptg_cpu.Guard_timing.state
val put_core : Codec.writer -> Ptg_cpu.Core.state -> unit
val get_core : Codec.reader -> Ptg_cpu.Core.state
val put_multicore : Codec.writer -> Ptg_cpu.Multicore.state -> unit
val get_multicore : Codec.reader -> Ptg_cpu.Multicore.state
val put_fault : Codec.writer -> Ptg_rowhammer.Fault_model.state -> unit
val get_fault : Codec.reader -> Ptg_rowhammer.Fault_model.state
val put_frame_allocator : Codec.writer -> Ptg_vm.Frame_allocator.state -> unit
val get_frame_allocator : Codec.reader -> Ptg_vm.Frame_allocator.state
val put_page_table : Codec.writer -> Ptg_vm.Page_table.state -> unit
val get_page_table : Codec.reader -> Ptg_vm.Page_table.state
