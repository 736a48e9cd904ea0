(** In-order single-core timing model (paper Table III).

    One instruction issues per cycle; loads and stores block on the memory
    hierarchy: L1D -> L2 -> L3 -> DRAM, with a hardware page-table walker
    fed by a 64-entry TLB and an 8 KB MMU (page-walk) cache. PT-Guard's
    delay is charged by a {!Guard_timing.t} on every read that reaches
    DRAM, tagged with the walk/data distinction the paper's isPTE wire
    carries (Figure 5).

    The paper's own analysis (Section IV-H) reduces slowdown to "extra MAC
    cycles per DRAM read x DRAM reads per instruction / baseline CPI";
    this model reproduces exactly those terms — L1 hits are pipelined
    (free), deeper hits and DRAM accesses stall. Page tables live in a
    synthetic physical region so leaf-PTE lines contend for L2/L3 space
    like real walks do.

    This module owns the one timing hierarchy: {!Multicore} runs N
    cores built with {!create_shared} and differs only in the
    {!dram_read} each core calls at an LLC miss.

    {2 Timing lanes}

    A core simulates one functional hierarchy for one or more timing
    {e lanes} ({!create_lanes}). The hierarchy is computed once per
    instruction and shared by every lane: the TLB, the MMU cache, the
    L1/L2/L3 tags and LRU state, page walks, writeback victims, and the
    [dram_reads], [pte_dram_reads], [walks] and [cache_writebacks]
    counts. Each lane owns what PT-Guard changes: its DRAM device, its
    {!Guard_timing.t}, its LLC-miss read and its clock. Every writeback
    and every LLC-miss read is issued to each lane at that lane's own
    cycle; within one instruction, all of a lane's DRAM calls see the
    same cycle, and the lane's clock then advances by the hierarchy's
    stall plus its own read latencies.

    Sharing is exact: nothing in the hierarchy reads the clock (caches
    and the TLB age by access ticks, not cycles), so a lane makes the
    same DRAM calls at the same cycles, and returns the same {!result},
    as a one-lane core given the same stream. A Figure 6 row's
    unprotected and guarded machines are two lanes of one core over one
    stream. {!create} is the one-lane case of the same code. *)

type op =
  | Nonmem
  | Load of int64   (** virtual address *)
  | Store of int64

type config = {
  l1 : Cache.config;
  l2 : Cache.config;
  l3 : Cache.config;
  tlb_entries : int;
  mmu_cache : Cache.config;
  llc_miss_overhead : int;
      (** fixed request-path cycles added to every DRAM access (queues,
          on-chip network); calibrated against Figure 6's slowdowns *)
  page_shift : int;
      (** 12 for 4 KB pages (the paper's default); 21 models transparent
          2 MB huge pages — each TLB entry and leaf PTE then covers 512x
          more memory, shrinking walk traffic (Section III's remark) *)
  data_region_bytes : int64;
      (** virtual data addresses are folded into [0, data_region);
          page tables live above it *)
}

val default_config : config

type result = {
  instrs : int;
  cycles : int;
  ipc : float;
  llc_mpki : float;        (** demand data misses per kilo-instruction *)
  dram_reads : int;        (** data reads reaching DRAM *)
  pte_dram_reads : int;    (** walk reads reaching DRAM *)
  walks : int;             (** page-table walks performed *)
  tlb_miss_rate : float;
  guard_mac_computations : int;
  cache_writebacks : int;
      (** dirty victims written back to DRAM (posted: they update device
          state and activation counts but charge no stall) *)
}

type t

val create :
  ?config:config ->
  ?geometry:Ptg_dram.Geometry.t ->
  ?timing:Ptg_dram.Timing.t ->
  ?obs:Ptg_obs.Sink.t ->
  guard:Guard_timing.t ->
  unit ->
  t
(** A one-lane core: [create_lanes ~guards:[| guard |]].

    With [obs], the core exports its own DRAM read, walk and writeback
    counts as [core_*] sources, propagates the sink to its caches (labelled
    [l1]/[l2]/[l3]/[mmu]), TLB and DRAM device, and records an
    [Mmu_cache_miss] trace event per upper-level walk miss. The caller's
    [guard] is {e not} rewired — build it with
    {!Guard_timing.of_config} [?obs] to observe it too. *)

val create_lanes :
  ?config:config ->
  ?geometry:Ptg_dram.Geometry.t ->
  ?timing:Ptg_dram.Timing.t ->
  ?obs:Ptg_obs.Sink.t ->
  guards:Guard_timing.t array ->
  unit ->
  t
(** One shared hierarchy with one lane per guard, in order; each lane
    gets a fresh DRAM device of the given geometry and timing. Raises
    [Invalid_argument] when [guards] is empty. Lanes must not share a
    guarded {!Guard_timing.t} (its counters and RNG would interleave);
    {!Guard_timing.unprotected} draws nothing and may repeat.

    With [obs], the hierarchy counts each event once (caches, TLB,
    [core_*] counters, trace events) and only the {e last} lane's DRAM
    device carries the sink: list a pair as [[| unprotected; guarded |]]
    and the sink sees exactly what a lone guarded core would show. *)

type dram_read = now:int -> paddr:int64 -> is_pte:bool -> int
(** An LLC miss's demand read at cycle [now]: returns its latency in
    cycles beyond the core's [llc_miss_overhead]. A lane of
    {!create_lanes} (or {!create}) performs the read on its own DRAM
    device, then draws its guard's penalty for it. DRAM sees the miss's
    writebacks (L1, L2, LLC victims) before this call. *)

val create_shared :
  config:config ->
  llc:Cache.t ->
  dram:Ptg_dram.Dram.t ->
  base:int64 ->
  guard:Guard_timing.t ->
  read:dram_read ->
  t
(** A core over a shared LLC ([config.l3] is not built) and a shared
    DRAM device, its data region and page tables offset by the physical
    [base] ({!create}'s core has base 0). Writebacks go straight to
    [dram]; demand reads go through [read]. [guard] is the one {!run}
    reports MAC computations of. No sink is attached. *)

val step : t -> op -> unit
(** Execute one instruction on every lane: one issue cycle, plus the
    walk and memory stalls of a load or store. *)

val run_lanes : t -> instrs:int -> stream:(unit -> op) -> result array
(** Execute [instrs] instructions drawn from [stream] ({!step} in a
    loop) and return one result per lane, in lane order. Can be called
    repeatedly (warm caches); statistics are per-call. The hierarchy's
    fields ([dram_reads], [pte_dram_reads], [walks], [tlb_miss_rate],
    [cache_writebacks], [llc_mpki]) are equal across lanes; [cycles],
    [ipc] and [guard_mac_computations] are each lane's own. *)

val run : t -> instrs:int -> stream:(unit -> op) -> result
(** The first lane's result of {!run_lanes} (the only lane of a
    {!create}d core). *)

(** {2 Running totals} since the core was built. *)

val now : t -> int
(** The first lane's clock. *)

val dram_reads : t -> int
val pte_dram_reads : t -> int
val cache_writebacks : t -> int

val on_walk : t -> (vpn:int64 -> leaf_line_addr:int64 -> unit) -> unit
(** Observer invoked on every page-table walk with the virtual page and
    the physical line address of the leaf PTE cacheline the walker read —
    the paper's "execution traces of Page Table Walks accessing [the]
    memory controller" (Section VI-F). *)
