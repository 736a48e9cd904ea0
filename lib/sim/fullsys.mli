(** Full-system co-simulation: the analogue of the paper's gem5
    full-system mode.

    Unlike the calibrated timing model behind Figures 6/7 (synthetic
    page-table layout, classification-only guard), this mode wires
    {e everything} together functionally:

    - a process's 4-level page tables are built in simulated DRAM through
      the guarded memory controller (MACs embedded by the engine on every
      kernel write);
    - the core's TLB misses trigger {!Ptg_memctrl.Mmu.walk}s that read the
      {e actual} PTE cachelines back through the controller, paying real
      verification (and correction) work;
    - a Rowhammer attacker hammers the DRAM rows holding the leaf page
      table concurrently with execution, injecting real flips via the
      disturbance fault model;
    - a shadow copy of the intended address space checks every
      translation the core consumes: any mismatch is an exploit
      ([wrong_translations] — the number the whole paper is about).

    Runs are slower than the calibrated model (the cipher executes in
    software on every walk line), so use demo-scale instruction counts. *)

type config = {
  guarded : bool;
  attack : bool;
  hammer_period : int;   (** instructions between attacker bursts *)
  hammer_burst : int;    (** double-sided rotations per burst *)
  fault : Ptg_rowhammer.Fault_model.config;
}

val default_config : config
(** Guarded, under attack, bursts of 2000 rotations every 2000
    instructions, LPDDR4-class fault model (RTH 4.8K, p_flip 1%). *)

val comparison : (string * bool * bool) list
(** The Section IV-G comparison as [(label, guarded, attack)], in the
    order it is reported: the guarded machine without and under attack,
    then the unprotected machine under attack — the only one whose
    [wrong_translations] may be nonzero. *)

type result = {
  instrs : int;
  cycles : int;
  ipc : float;
  walks : int;
  walk_corrections : int;   (** walks that survived via correction *)
  walk_exceptions : int;    (** PTECheckFailed walks (OS re-faulted) *)
  refaults : int;           (** pages the OS rebuilt after exceptions *)
  flips_landed : int;       (** Rowhammer flips in the PT rows *)
  wrong_translations : int; (** translations disagreeing with the shadow
                                mapping: MUST be 0 when guarded *)
}

type t

val create :
  ?config:config -> ?pages:int -> ?obs:Ptg_obs.Sink.t -> seed:int64 -> unit -> t
(** Build the machine and a process with [pages] mapped pages
    (default 2048; [Invalid_argument] below 1). With [obs], the DRAM device, integrity engine, memory
    controller and TLB all report into the sink, and a read-only
    {!Ptg_os.Os_handler} is attached (auto-rekey disabled, private RNG) so
    journal entries land in the trace — the observed run consumes exactly
    the same random stream and produces exactly the same {!result} as the
    unobserved one. *)

val run : t -> instrs:int -> result
(** Execute [instrs] more instructions. The attacker's hammer schedule
    keys off the {e absolute} instruction counter, so splitting a budget
    across several [run] calls (checkpointing, resume) replays exactly
    the bursts of one uninterrupted call. The returned statistics cover
    this call only; use {!totals} for the lifetime numbers. *)

val instrs_done : t -> int
(** Instructions executed so far, across all [run] calls. *)

val totals : t -> result
(** Lifetime result — equal to the single-[run] result when the whole
    budget ran in one call, however many chunks actually produced it. *)

val memctrl : t -> Ptg_memctrl.Memctrl.t
val os_handler : t -> Ptg_os.Os_handler.t option
(** The journal observer; [Some] exactly when [obs] was passed. *)

val engine : t -> Ptguard.Engine.t option
(** The controller's integrity engine ([None] when unguarded). *)

val pp_result : Format.formatter -> result -> unit

(** {2 Checkpointable state}

    The full mutable surface of the machine. Everything else — the
    shadow mapping, the vaddr array, victim coordinates — is write-once
    in [create] and reconstructed bit-identically from the same
    (config, pages, seed), which is the restore contract: build a fresh
    [t] with the creation parameters of the checkpointed run, then
    [set_state] it, or let {!of_state} do both without the cost of
    building the page tables through the controller. Checkpointing
    excludes observability ([obs]), whose sinks cannot be
    serialized. *)

type state = {
  s_rng : int64 array;
  s_dram : Ptg_dram.Dram.state;
  s_fault : Ptg_rowhammer.Fault_model.state;
  s_engine : Ptguard.Engine.state option;
  s_mc_now : int;
  s_table : Ptg_vm.Page_table.state;
  s_alloc : Ptg_vm.Frame_allocator.state;
  s_tlb : Ptg_cpu.Tlb.state;
  s_translations : (int64 * int64) list;  (** vpn-sorted *)
  s_instr : int;
  s_now : int;
  s_walks : int;
  s_walk_corrections : int;
  s_walk_exceptions : int;
  s_refaults : int;
  s_wrong_translations : int;
}

val state : t -> state

val set_state : t -> state -> unit
(** Raises [Invalid_argument] when the state's guarded/unguarded shape
    does not match this machine's configuration. *)

val of_state : ?config:config -> ?pages:int -> seed:int64 -> state -> t
(** The machine [create] followed by [set_state] would give, without
    building its page tables through the controller: they are built on
    scratch memory for the frame choices and the shadow mapping alone,
    and the device contents come from the state. About a tenth of
    [create]'s cost; the warm-start path. Raises like [create] and
    [set_state]. *)
