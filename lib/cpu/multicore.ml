type config = {
  cores : int;
  core : Core.config;
  channel_service : int;
  channels : int;
  mlp_expose : int;
}

let default_config =
  {
    cores = 4;
    core =
      {
        Core.default_config with
        l3 = { Cache.l3_1m with size_bytes = 4 * 1024 * 1024 };
        llc_miss_overhead = 60;
      };
    channel_service = 30;
    channels = 2;
    mlp_expose = 4;
  }

type per_core = { instrs : int; cycles : int; ipc : float; llc_mpki : float }

type result = {
  per_core : per_core array;
  total_cycles : int;
  aggregate_ipc : float;
  dram_reads : int;
  pte_dram_reads : int;
  avg_queue_delay : float;
  cache_writebacks : int;
  macs_verified : int;
  mac_verify_failures : int;
}

(* Engine-backed verification (optional): every PTE line that reaches DRAM
   gets real MAC'd content installed on first touch, and every PTE DRAM
   read from any core is verified by the one shared engine. Purely
   additive: timing still comes from [Guard_timing] (which already models
   the pipelined MAC latency), so results with [verify] off are
   bit-identical to builds without this feature. *)
type verify = {
  engine : Ptguard.Engine.t;
  store : (int64, Ptg_pte.Line.t) Hashtbl.t;
  mutable passed : int;
  mutable failed : int;
}

(* What the cores share below their LLC: the DRAM device, the guard and
   the channel queues. *)
type memory = {
  cfg : config;
  dram : Ptg_dram.Dram.t;
  guard : Guard_timing.t;
  verify : verify option;
  channel_busy : int array;
  mutable read_counter : int;
  mutable queue_delay_total : int;
  mutable queued_accesses : int;
}

type t = { mem : memory; cores : Core.t array; done_instrs : int array }

(* First PTE touch installs deterministic MAC-embedded content; every PTE
   read verifies it. Address-derived PFNs keep the synthetic tables
   reproducible without consuming any RNG stream. *)
let verify_pte_read v ~paddr =
  let laddr = Ptg_pte.Line.line_addr paddr in
  let stored =
    match Hashtbl.find_opt v.store laddr with
    | Some l -> l
    | None ->
        let idx =
          Int64.to_int (Int64.logand (Int64.shift_right_logical laddr 6) 0xffffL)
        in
        let line =
          Ptg_pte.Line.init (fun i ->
              Ptg_pte.X86.make ~writable:true ~user:true ~accessed:false
                ~pfn:(Int64.of_int (((idx lsl 3) lor i) land 0xfffff))
                ())
        in
        let s = Ptguard.Engine.process_write v.engine ~addr:laddr line in
        Hashtbl.replace v.store laddr s;
        s
  in
  match (Ptguard.Engine.process_read v.engine ~addr:laddr ~is_pte:true stored).integrity with
  | Ptguard.Engine.Passed | Ptguard.Engine.Corrected _ -> v.passed <- v.passed + 1
  | _ -> v.failed <- v.failed + 1

(* Every core's LLC miss: verify a PTE line, read DRAM, queue behind the
   read's channel, then charge the guard penalty on exposed reads only. *)
let dram_read m ~now ~paddr ~is_pte =
  (match m.verify with
  | Some v when is_pte -> verify_pte_read v ~paddr
  | Some _ | None -> ());
  let dram_lat = Ptg_dram.Dram.access_fast m.dram ~now ~addr:paddr ~is_write:false in
  let chan = Ptg_dram.Dram.last_channel m.dram mod m.cfg.channels in
  let wait = max 0 (m.channel_busy.(chan) - now) in
  m.channel_busy.(chan) <- max m.channel_busy.(chan) now + m.cfg.channel_service;
  m.queue_delay_total <- m.queue_delay_total + wait;
  m.queued_accesses <- m.queued_accesses + 1;
  let guard_extra = Guard_timing.read_penalty m.guard ~is_pte in
  (* The paper's multicore cores are out-of-order: overlapping misses hide
     the controller's pipelined MAC latency except on reads at the head of
     a dependence chain — modeled as 1 exposed read in [mlp_expose]. *)
  m.read_counter <- m.read_counter + 1;
  let guard_extra = if m.read_counter mod m.cfg.mlp_expose = 0 then guard_extra else 0 in
  wait + dram_lat + guard_extra

let create ?(config = default_config) ?verify_engine ~guard () =
  let mem =
    {
      cfg = config;
      dram = Ptg_dram.Dram.create ~geometry:Ptg_dram.Geometry.ddr4_16gb ();
      guard;
      verify =
        Option.map
          (fun engine -> { engine; store = Hashtbl.create 1024; passed = 0; failed = 0 })
          verify_engine;
      channel_busy = Array.make config.channels 0;
      read_counter = 0;
      queue_delay_total = 0;
      queued_accesses = 0;
    }
  in
  let llc = Cache.create config.core.Core.l3 in
  (* Cores address disjoint physical slices so they do not share data but
     do share LLC capacity and channel bandwidth — the SE-mode setup of
     the paper's multicore evaluation. *)
  let slice = Int64.mul 4L config.core.Core.data_region_bytes in
  let read ~now ~paddr ~is_pte = dram_read mem ~now ~paddr ~is_pte in
  {
    mem;
    cores =
      Array.init config.cores (fun id ->
          Core.create_shared ~config:config.core ~llc ~dram:mem.dram
            ~base:(Int64.mul (Int64.of_int id) slice)
            ~guard ~read);
    done_instrs = Array.make config.cores 0;
  }

let run t ~instrs_per_core ~streams =
  let ncores = Array.length t.cores in
  if Array.length streams <> ncores then
    invalid_arg "Multicore.run: need one stream per core";
  let total = ncores * instrs_per_core in
  for _ = 1 to total do
    (* Advance the core that is earliest in global time and not done —
       leftmost minimum. *)
    let next = ref (-1) in
    for i = 0 to ncores - 1 do
      if t.done_instrs.(i) < instrs_per_core
         && (!next < 0 || Core.now t.cores.(i) < Core.now t.cores.(!next))
      then next := i
    done;
    let i = !next in
    if i >= 0 then begin
      Core.step t.cores.(i) (streams.(i) ());
      t.done_instrs.(i) <- t.done_instrs.(i) + 1
    end
  done;
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 t.cores in
  let total_cycles = Array.fold_left (fun acc c -> max acc (Core.now c)) 0 t.cores in
  let m = t.mem in
  {
    per_core =
      Array.mapi
        (fun i c ->
          let instrs = t.done_instrs.(i) and cycles = Core.now c in
          {
            instrs;
            cycles;
            ipc = float_of_int instrs /. float_of_int (max 1 cycles);
            llc_mpki = 1000.0 *. float_of_int (Core.dram_reads c) /. float_of_int (max 1 instrs);
          })
        t.cores;
    total_cycles;
    aggregate_ipc = float_of_int total /. float_of_int (max 1 total_cycles);
    dram_reads = sum Core.dram_reads;
    pte_dram_reads = sum Core.pte_dram_reads;
    avg_queue_delay =
      (if m.queued_accesses = 0 then 0.0
       else float_of_int m.queue_delay_total /. float_of_int m.queued_accesses);
    cache_writebacks = sum Core.cache_writebacks;
    macs_verified = (match m.verify with None -> 0 | Some v -> v.passed);
    mac_verify_failures = (match m.verify with None -> 0 | Some v -> v.failed);
  }
