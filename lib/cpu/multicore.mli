(** Four-core timing model for the Section VII-C study.

    A scheduler over {!Core.t} values: the cache hierarchy, TLB, walker
    and writeback path are {!Core}'s, built with {!Core.create_shared}
    over one shared LLC (1 MB per core) and one DRAM device, each core in
    its own physical slice. This module owns only what differs at the
    LLC miss — the read function every core calls there — plus the
    earliest-core scheduler and result assembly. The read function adds
    to the single core's (DRAM read, then guard penalty): content-level
    verification before the read (with [verify_engine]), a shared-channel
    contention model (each DRAM read occupies a channel for a fixed
    service time and later reads queue behind it), and out-of-order
    masking of the guard penalty. This reproduces the paper's observation
    that multicore contention inflates the {e base} memory latency,
    shrinking PT-Guard's constant MAC delay in relative terms (0.5%
    average vs 1.3% single-core). *)

type config = {
  cores : int;                  (** 4 in the paper *)
  core : Core.config;
      (** every core's hierarchy; its [l3] is the shared LLC (1 MB x
          cores) and its [llc_miss_overhead] the request path to the
          channels *)
  channel_service : int;        (** cycles a DRAM read occupies its channel *)
  channels : int;               (** 2 (16 GB DDR4, Section VII-C) *)
  mlp_expose : int;
      (** out-of-order latency tolerance: the integrity engine's delay
          reaches the critical path on 1 read in [mlp_expose] (default 4),
          approximating the paper's O3 cores; the guard's RNG is still
          drawn on every read *)
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
