type op = Nonmem | Load of int64 | Store of int64

type config = {
  l1 : Cache.config;
  l2 : Cache.config;
  l3 : Cache.config;
  tlb_entries : int;
  mmu_cache : Cache.config;
  llc_miss_overhead : int;
  page_shift : int;
  data_region_bytes : int64;
}

let default_config =
  {
    l1 = Cache.l1d_32k;
    l2 = Cache.l2_256k;
    l3 = Cache.l3_2m;
    tlb_entries = 64;
    mmu_cache = Cache.mmu_8k;
    llc_miss_overhead = 30;
    page_shift = 12;
    data_region_bytes = Int64.mul 3L (Int64.mul 1024L (Int64.mul 1024L 1024L));
  }

type result = {
  instrs : int;
  cycles : int;
  ipc : float;
  llc_mpki : float;
  dram_reads : int;
  pte_dram_reads : int;
  walks : int;
  tlb_miss_rate : float;
  guard_mac_computations : int;
  cache_writebacks : int;
}

type obs = {
  o_dram_reads : Ptg_obs.Registry.counter;
  o_pte_dram_reads : Ptg_obs.Registry.counter;
  o_walks : Ptg_obs.Registry.counter;
  o_cache_writebacks : Ptg_obs.Registry.counter;
  o_trace : Ptg_obs.Trace.t;
}

let obs_of_sink sink =
  let c = Ptg_obs.Registry.counter (Ptg_obs.Sink.registry sink) in
  {
    o_dram_reads = c "core_dram_reads";
    o_pte_dram_reads = c "core_pte_dram_reads";
    o_walks = c "core_walks";
    o_cache_writebacks = c "core_cache_writebacks";
    o_trace = Ptg_obs.Sink.trace sink;
  }

type t = {
  cfg : config;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  tlb : Tlb.t;
  mmu : Cache.t;
  dram : Ptg_dram.Dram.t;
  guard : Guard_timing.t;
  obs : obs option;
  mutable now : int;
  mutable dram_reads : int;
  mutable pte_dram_reads : int;
  mutable walks : int;
  mutable cache_writebacks : int;
  mutable walk_listeners : (vpn:int64 -> leaf_line_addr:int64 -> unit) list;
}

let create ?(config = default_config) ?geometry ?timing ?obs ~guard () =
  {
    cfg = config;
    l1 = Cache.create ?obs ~name:"l1" config.l1;
    l2 = Cache.create ?obs ~name:"l2" config.l2;
    l3 = Cache.create ?obs ~name:"l3" config.l3;
    tlb = Tlb.create ~entries:config.tlb_entries ?obs ();
    mmu = Cache.create ?obs ~name:"mmu" config.mmu_cache;
    dram = Ptg_dram.Dram.create ?geometry ?timing ?obs ();
    guard;
    obs = Option.map obs_of_sink obs;
    now = 0;
    dram_reads = 0;
    pte_dram_reads = 0;
    walks = 0;
    cache_writebacks = 0;
    walk_listeners = [];
  }

(* Synthetic page-table layout: four physically-contiguous regions above
   the data fold. Each level's entry for a vpn sits at base + index * 8,
   which gives walks the same spatial locality real radix tables have
   (adjacent pages share leaf-PTE cachelines). *)
let leaf_pte_addr t vpn = Int64.add t.cfg.data_region_bytes (Int64.mul vpn 8L)

let upper_entry_addr t ~level vpn =
  (* level 1 = PD, 2 = PDPT, 3 = PML4. *)
  let index = Int64.shift_right_logical vpn (9 * level) in
  let base =
    Int64.add t.cfg.data_region_bytes
      (Int64.of_int (512 * 1024 * 1024 * level))
  in
  Int64.add base (Int64.mul index 8L)

(* A dirty victim published by the last miss is retired to DRAM as a
   posted write: it updates device state (row buffers, activation counts)
   but charges no stall — write buffers take it off the critical path. *)
let drain_writeback t cache =
  if Cache.writeback_pending cache then begin
    let addr = Cache.writeback_addr cache in
    ignore (Ptg_dram.Dram.access_fast t.dram ~now:t.now ~addr ~is_write:true);
    t.cache_writebacks <- t.cache_writebacks + 1;
    match t.obs with
    | None -> ()
    | Some o ->
        Ptg_obs.Registry.incr o.o_cache_writebacks;
        Ptg_obs.Trace.record o.o_trace (Ptg_obs.Trace.Cache_writeback { addr })
  end

(* A read or write climbing the hierarchy; returns the stall in cycles.
   L1 hits are fully pipelined (no stall); hardware-walker accesses skip
   L1 as real walkers do. Each level's dirty eviction is drained before
   the next level is probed, so DRAM sees a deterministic order:
   L1 writeback, L2 access, L2 writeback, L3 access, L3 writeback,
   demand read. *)
let mem_access t ~paddr ~is_write ~is_pte ~through_l1 =
  if through_l1 && Cache.access_fast t.l1 ~addr:paddr ~is_write then 0
  else begin
    if through_l1 then drain_writeback t t.l1;
    if Cache.access_fast t.l2 ~addr:paddr ~is_write:false then
      (Cache.config t.l2).Cache.latency
    else begin
      drain_writeback t t.l2;
      let l2_lat = (Cache.config t.l2).Cache.latency in
      if Cache.access_fast t.l3 ~addr:paddr ~is_write:false then
        l2_lat + (Cache.config t.l3).Cache.latency
      else begin
        drain_writeback t t.l3;
        let l3_lat = (Cache.config t.l3).Cache.latency in
        let dram_lat =
          Ptg_dram.Dram.access_fast t.dram ~now:t.now ~addr:paddr
            ~is_write:false
        in
        let guard_extra = Guard_timing.read_penalty t.guard ~is_pte in
        if is_pte then t.pte_dram_reads <- t.pte_dram_reads + 1
        else t.dram_reads <- t.dram_reads + 1;
        (match t.obs with
        | None -> ()
        | Some o ->
            Ptg_obs.Registry.incr
              (if is_pte then o.o_pte_dram_reads else o.o_dram_reads));
        l2_lat + l3_lat + t.cfg.llc_miss_overhead + dram_lat + guard_extra
      end
    end
  end

(* Page-table walk: three upper levels through the MMU cache, leaf PTE
   through the cache hierarchy (walker port: no L1). *)
let on_walk t f = t.walk_listeners <- f :: t.walk_listeners

let walk t vpn =
  t.walks <- t.walks + 1;
  (match t.obs with None -> () | Some o -> Ptg_obs.Registry.incr o.o_walks);
  List.iter
    (fun f ->
      f ~vpn ~leaf_line_addr:(Ptg_pte.Line.line_addr (leaf_pte_addr t vpn)))
    t.walk_listeners;
  let stall = ref 0 in
  for level = 3 downto 1 do
    let addr = upper_entry_addr t ~level vpn in
    if Cache.access_fast t.mmu ~addr ~is_write:false then
      (* Configured MMU-cache hit latency, not a hardcoded cycle (equal
         under the default preset, where latency = 1). *)
      stall := !stall + (Cache.config t.mmu).Cache.latency
    else begin
      (match t.obs with
      | None -> ()
      | Some o ->
          Ptg_obs.Trace.record o.o_trace
            (Ptg_obs.Trace.Mmu_cache_miss { addr }));
      stall := !stall + mem_access t ~paddr:addr ~is_write:false ~is_pte:true ~through_l1:false
    end
  done;
  let leaf = leaf_pte_addr t vpn in
  stall := !stall + mem_access t ~paddr:leaf ~is_write:false ~is_pte:true ~through_l1:false;
  Tlb.fill t.tlb ~vpn;
  !stall

let translate t vaddr =
  (* Fold virtual data addresses into the physical data region, keeping
     page and line locality. An address already inside the region is its
     own fold (every Figure 6 stream stays inside), and returning it
     skips the division and the fresh box. *)
  let region = t.cfg.data_region_bytes in
  if Int64.compare vaddr 0L >= 0 && Int64.compare vaddr region < 0 then vaddr
  else
    let a = Int64.rem vaddr region in
    if Int64.compare a 0L < 0 then Int64.add a region else a

let run t ~instrs ~stream =
  let start_cycles = t.now in
  let start_dram = t.dram_reads and start_pte = t.pte_dram_reads in
  let start_walks = t.walks in
  let start_wb = t.cache_writebacks in
  let start_mac = Guard_timing.mac_computations t.guard in
  Tlb.reset_stats t.tlb;
  for _ = 1 to instrs do
    t.now <- t.now + 1;
    match stream () with
    | Nonmem -> ()
    | Load vaddr | Store vaddr as op ->
        let is_write = match op with Store _ -> true | Load _ | Nonmem -> false in
        let paddr = translate t vaddr in
        let vpn = Int64.shift_right_logical paddr t.cfg.page_shift in
        let stall = ref 0 in
        if not (Tlb.lookup t.tlb ~vpn) then stall := !stall + walk t vpn;
        stall := !stall + mem_access t ~paddr ~is_write ~is_pte:false ~through_l1:true;
        t.now <- t.now + !stall
  done;
  let cycles = t.now - start_cycles in
  let dram_reads = t.dram_reads - start_dram in
  let pte_dram_reads = t.pte_dram_reads - start_pte in
  {
    instrs;
    cycles;
    ipc = float_of_int instrs /. float_of_int (max 1 cycles);
    llc_mpki = 1000.0 *. float_of_int dram_reads /. float_of_int instrs;
    dram_reads;
    pte_dram_reads;
    walks = t.walks - start_walks;
    tlb_miss_rate = Tlb.miss_rate t.tlb;
    guard_mac_computations = Guard_timing.mac_computations t.guard - start_mac;
    cache_writebacks = t.cache_writebacks - start_wb;
  }
