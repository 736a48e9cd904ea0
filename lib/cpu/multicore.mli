(** Four-core timing model for the Section VII-C study.

    Private L1/L2 per core, a shared LLC (1 MB per core), and shared
    memory channels with a contention model: each DRAM access occupies a
    channel for a fixed service time, and later requests queue behind it.
    This reproduces the paper's observation that multicore contention
    inflates the {e base} memory latency, shrinking PT-Guard's constant
    MAC delay in relative terms (0.5% average vs 1.3% single-core). *)

type config = {
  cores : int;                  (** 4 in the paper *)
  l1 : Cache.config;
  l2 : Cache.config;
  llc : Cache.config;           (** shared; 1 MB x cores *)
  tlb_entries : int;
  mmu_cache : Cache.config;
  llc_miss_overhead : int;
  channel_service : int;        (** cycles a DRAM access occupies its channel *)
  channels : int;               (** 2 (16 GB DDR4, Section VII-C) *)
  mlp_expose : int;
      (** out-of-order latency tolerance: the integrity engine's delay
          reaches the critical path on 1 read in [mlp_expose] (default 4),
          approximating the paper's O3 cores *)
  data_region_bytes : int64;
}

val default_config : config

type per_core = {
  instrs : int;
  cycles : int;
  ipc : float;
  llc_mpki : float;
}

type result = {
  per_core : per_core array;
  total_cycles : int;           (** cycles until the last core finished *)
  aggregate_ipc : float;        (** total instructions / total_cycles *)
  dram_reads : int;
  pte_dram_reads : int;
  avg_queue_delay : float;      (** mean channel queueing per DRAM access *)
  cache_writebacks : int;
      (** dirty victims written back to DRAM across all cores (posted:
          no stall, no channel occupancy, but they touch row buffers) *)
  macs_verified : int;
      (** engine-backed verification mode only: PTE reads whose MAC
          verified (0 when no [verify_engine] was given) *)
  mac_verify_failures : int;
      (** PTE reads whose verification failed outright *)
}

type t

val create :
  ?config:config -> ?verify_engine:Ptguard.Engine.t -> guard:Guard_timing.t -> unit -> t
(** With [verify_engine], the scheduler runs {e content-level} MAC
    verification on top of the timing model: the first DRAM touch of each
    PTE line installs deterministic MAC-embedded content through the
    engine, and every PTE DRAM read from any core is verified by that
    one shared engine.
    Timing is unchanged: the MAC {e latency} is already modeled by
    [guard], so all cycle/IPC numbers are identical with or without
    [verify_engine]; only [macs_verified]/[mac_verify_failures] differ. *)

val run : t -> instrs_per_core:int -> streams:(unit -> Core.op) array -> result
(** [streams] must have length [config.cores]; each core executes
    [instrs_per_core] instructions from its own stream, interleaved in
    (approximate) global time order. *)
