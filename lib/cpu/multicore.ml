type config = {
  cores : int;
  l1 : Cache.config;
  l2 : Cache.config;
  llc : Cache.config;
  tlb_entries : int;
  mmu_cache : Cache.config;
  llc_miss_overhead : int;
  channel_service : int;
  channels : int;
  mlp_expose : int;
  data_region_bytes : int64;
}

let default_config =
  {
    cores = 4;
    l1 = Cache.l1d_32k;
    l2 = Cache.l2_256k;
    llc = { Cache.l3_1m with size_bytes = 4 * 1024 * 1024 };
    tlb_entries = 64;
    mmu_cache = Cache.mmu_8k;
    llc_miss_overhead = 60;
    channel_service = 30;
    channels = 2;
    mlp_expose = 4;
    data_region_bytes = Int64.mul 3L (Int64.mul 1024L (Int64.mul 1024L 1024L));
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

type core_state = {
  id : int;
  l1 : Cache.t;
  l2 : Cache.t;
  tlb : Tlb.t;
  mmu : Cache.t;
  mutable now : int;
  mutable done_instrs : int;
  mutable dram_reads : int;
}

type t = {
  cfg : config;
  cores : core_state array;
  llc : Cache.t;
  dram : Ptg_dram.Dram.t;
  guard : Guard_timing.t;
  channel_busy : int array;
  mutable read_counter : int;
  mutable dram_reads : int;
  mutable pte_dram_reads : int;
  mutable queue_delay_total : int;
  mutable queued_accesses : int;
  mutable cache_writebacks : int;
  verify : verify option;
}

let create ?(config = default_config) ?verify_engine ~guard () =
  {
    verify =
      Option.map
        (fun engine ->
          {
            engine;
            store = Hashtbl.create 1024;
            passed = 0;
            failed = 0;
          })
        verify_engine;
    cfg = config;
    cores =
      Array.init config.cores (fun id ->
          {
            id;
            l1 = Cache.create config.l1;
            l2 = Cache.create config.l2;
            tlb = Tlb.create ~entries:config.tlb_entries ();
            mmu = Cache.create config.mmu_cache;
            now = 0;
            done_instrs = 0;
            dram_reads = 0;
          });
    llc = Cache.create config.llc;
    dram = Ptg_dram.Dram.create ~geometry:Ptg_dram.Geometry.ddr4_16gb ();
    guard;
    channel_busy = Array.make config.channels 0;
    read_counter = 0;
    dram_reads = 0;
    pte_dram_reads = 0;
    queue_delay_total = 0;
    queued_accesses = 0;
    cache_writebacks = 0;
  }

(* Cores address disjoint physical slices so they do not share data but do
   share LLC capacity and channel bandwidth — the SE-mode setup of the
   paper's multicore evaluation. *)
let core_base t core =
  Int64.mul (Int64.of_int core.id) (Int64.mul 4L t.cfg.data_region_bytes)

let translate t core vaddr =
  let a = Int64.rem vaddr t.cfg.data_region_bytes in
  let a = if Int64.compare a 0L < 0 then Int64.add a t.cfg.data_region_bytes else a in
  Int64.add a (core_base t core)

let pt_base t core = Int64.add (core_base t core) t.cfg.data_region_bytes
let leaf_pte_addr t core vpn = Int64.add (pt_base t core) (Int64.mul vpn 8L)

let upper_entry_addr t core ~level vpn =
  let index = Int64.shift_right_logical vpn (9 * level) in
  Int64.add
    (Int64.add (pt_base t core) (Int64.of_int (512 * 1024 * 1024 * level)))
    (Int64.mul index 8L)

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
          Array.init 8 (fun i ->
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

let dram_access t core ~paddr ~is_pte =
  (match t.verify with
  | Some v when is_pte -> verify_pte_read v ~paddr
  | Some _ | None -> ());
  let dram_lat =
    Ptg_dram.Dram.access_fast t.dram ~now:core.now ~addr:paddr ~is_write:false
  in
  let chan = Ptg_dram.Dram.last_channel t.dram mod t.cfg.channels in
  let wait = max 0 (t.channel_busy.(chan) - core.now) in
  t.channel_busy.(chan) <- max t.channel_busy.(chan) core.now + t.cfg.channel_service;
  t.queue_delay_total <- t.queue_delay_total + wait;
  t.queued_accesses <- t.queued_accesses + 1;
  let guard_extra = Guard_timing.read_penalty t.guard ~is_pte in
  (* The paper's multicore cores are out-of-order: overlapping misses hide
     the controller's pipelined MAC latency except on reads at the head of
     a dependence chain — modeled as 1 exposed read in [mlp_expose]. *)
  t.read_counter <- t.read_counter + 1;
  let guard_extra =
    if t.read_counter mod t.cfg.mlp_expose = 0 then guard_extra else 0
  in
  if is_pte then t.pte_dram_reads <- t.pte_dram_reads + 1
  else begin
    t.dram_reads <- t.dram_reads + 1;
    core.dram_reads <- core.dram_reads + 1
  end;
  wait + t.cfg.llc_miss_overhead + dram_lat + guard_extra

(* Posted writebacks: dirty victims update DRAM device state but skip the
   channel-queue model and charge no stall (write buffers absorb them). *)
let drain_writeback t core cache =
  if Cache.writeback_pending cache then begin
    ignore
      (Ptg_dram.Dram.access_fast t.dram ~now:core.now
         ~addr:(Cache.writeback_addr cache) ~is_write:true);
    t.cache_writebacks <- t.cache_writebacks + 1
  end

let mem_access t core ~paddr ~is_write ~is_pte ~through_l1 =
  if through_l1 && Cache.access_fast core.l1 ~addr:paddr ~is_write then 0
  else begin
    if through_l1 then drain_writeback t core core.l1;
    if Cache.access_fast core.l2 ~addr:paddr ~is_write:false then
      (Cache.config core.l2).Cache.latency
    else begin
      drain_writeback t core core.l2;
      let l2_lat = (Cache.config core.l2).Cache.latency in
      if Cache.access_fast t.llc ~addr:paddr ~is_write:false then
        l2_lat + (Cache.config t.llc).Cache.latency
      else begin
        drain_writeback t core t.llc;
        l2_lat + (Cache.config t.llc).Cache.latency
        + dram_access t core ~paddr ~is_pte
      end
    end
  end

let walk t core vpn =
  let stall = ref 0 in
  for level = 3 downto 1 do
    let addr = upper_entry_addr t core ~level vpn in
    if Cache.access_fast core.mmu ~addr ~is_write:false then
      stall := !stall + (Cache.config core.mmu).Cache.latency
    else
      stall := !stall + mem_access t core ~paddr:addr ~is_write:false ~is_pte:true ~through_l1:false
  done;
  stall :=
    !stall
    + mem_access t core ~paddr:(leaf_pte_addr t core vpn) ~is_write:false
        ~is_pte:true ~through_l1:false;
  Tlb.fill core.tlb ~vpn;
  !stall

let step t core op =
  core.now <- core.now + 1;
  (match op with
  | Core.Nonmem -> ()
  | Core.Load vaddr | Core.Store vaddr ->
      let is_write = match op with Core.Store _ -> true | _ -> false in
      let paddr = translate t core vaddr in
      let vpn = Int64.shift_right_logical paddr 12 in
      let stall = ref 0 in
      if not (Tlb.lookup core.tlb ~vpn) then stall := !stall + walk t core vpn;
      stall := !stall + mem_access t core ~paddr ~is_write ~is_pte:false ~through_l1:true;
      core.now <- core.now + !stall);
  core.done_instrs <- core.done_instrs + 1

let run t ~instrs_per_core ~streams =
  if Array.length streams <> t.cfg.cores then
    invalid_arg "Multicore.run: need one stream per core";
  let total = t.cfg.cores * instrs_per_core in
  let ncores = Array.length t.cores in
  for _ = 1 to total do
    (* Advance the core that is earliest in global time and not done —
       leftmost minimum, same pick as the option-accumulating scan this
       index loop replaced. *)
    let next = ref (-1) in
    for i = 0 to ncores - 1 do
      let c = t.cores.(i) in
      if c.done_instrs < instrs_per_core
         && (!next < 0 || c.now < t.cores.(!next).now)
      then next := i
    done;
    if !next >= 0 then begin
      let c = t.cores.(!next) in
      step t c (streams.(c.id) ())
    end
  done;
  let total_cycles = Array.fold_left (fun acc c -> max acc c.now) 0 t.cores in
  {
    per_core =
      Array.map
        (fun c ->
          {
            instrs = c.done_instrs;
            cycles = c.now;
            ipc = float_of_int c.done_instrs /. float_of_int (max 1 c.now);
            llc_mpki = 1000.0 *. float_of_int c.dram_reads /. float_of_int (max 1 c.done_instrs);
          })
        t.cores;
    total_cycles;
    aggregate_ipc = float_of_int total /. float_of_int (max 1 total_cycles);
    dram_reads = t.dram_reads;
    pte_dram_reads = t.pte_dram_reads;
    avg_queue_delay =
      (if t.queued_accesses = 0 then 0.0
       else float_of_int t.queue_delay_total /. float_of_int t.queued_accesses);
    cache_writebacks = t.cache_writebacks;
    macs_verified = (match t.verify with None -> 0 | Some v -> v.passed);
    mac_verify_failures = (match t.verify with None -> 0 | Some v -> v.failed);
  }
