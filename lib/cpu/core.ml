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

(* The hierarchy's event counts, apart from the core: a registry source
   reads this record, so a sink never keeps a finished core alive. *)
type counts = {
  mutable dram_reads : int;
  mutable pte_dram_reads : int;
  mutable walks : int;
  mutable cache_writebacks : int;
}

let export counts sink =
  let source = Ptg_obs.Registry.source (Ptg_obs.Sink.registry sink) in
  source "core_dram_reads" (fun () -> counts.dram_reads);
  source "core_pte_dram_reads" (fun () -> counts.pte_dram_reads);
  source "core_walks" (fun () -> counts.walks);
  source "core_cache_writebacks" (fun () -> counts.cache_writebacks)

type dram_read = now:int -> paddr:int64 -> is_pte:bool -> int

(* What one machine owns below the shared hierarchy. Its clock is the
   hierarchy's clock plus [lag]; [pending] holds the read latencies of
   the instruction in flight, folded into [lag] when it retires, so
   every DRAM call of one instruction sees the same cycle. *)
type lane = {
  dram : Ptg_dram.Dram.t;
  guard : Guard_timing.t;
  read : dram_read;
  mutable lag : int;
  mutable pending : int;
}

type t = {
  cfg : config;
  base : int64;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  tlb : Tlb.t;
  mmu : Cache.t;
  lanes : lane array;
  counts : counts;
  trace : Ptg_obs.Trace.t option;
  mutable now : int;
      (* the hierarchy's clock: issue cycles plus cache and walk stalls *)
  mutable read_pending : bool;  (* a lane holds a pending read latency *)
  mutable walk_listeners : (vpn:int64 -> leaf_line_addr:int64 -> unit) list;
}

let lane ~dram ~guard ~read = { dram; guard; read; lag = 0; pending = 0 }

let make ?obs ~config ~base ~l3 ~lanes () =
  let counts = { dram_reads = 0; pte_dram_reads = 0; walks = 0; cache_writebacks = 0 } in
  (match obs with Some sink -> export counts sink | None -> ());
  {
    cfg = config;
    base;
    l1 = Cache.create ?obs ~name:"l1" config.l1;
    l2 = Cache.create ?obs ~name:"l2" config.l2;
    l3;
    tlb = Tlb.create ~entries:config.tlb_entries ?obs ();
    mmu = Cache.create ?obs ~name:"mmu" config.mmu_cache;
    lanes;
    counts;
    trace = Option.map Ptg_obs.Sink.trace obs;
    now = 0;
    read_pending = false;
    walk_listeners = [];
  }

(* A lane's LLC miss: the demand read on its own device, then its
   guard's penalty for it (the guard's RNG is drawn on every read). Only
   the last lane's device carries the sink, so each DRAM event of a
   paired run is counted once, on the measured machine. *)
let create_lanes ?(config = default_config) ?geometry ?timing ?obs ~guards () =
  let n = Array.length guards in
  if n = 0 then invalid_arg "Core.create_lanes: no guards";
  let lanes =
    Array.mapi
      (fun i guard ->
        let obs = if i = n - 1 then obs else None in
        let dram = Ptg_dram.Dram.create ?geometry ?timing ?obs () in
        let read ~now ~paddr ~is_pte =
          let dram_lat = Ptg_dram.Dram.access_fast dram ~now ~addr:paddr ~is_write:false in
          dram_lat + Guard_timing.read_penalty guard ~is_pte
        in
        lane ~dram ~guard ~read)
      guards
  in
  make ?obs ~config ~base:0L ~l3:(Cache.create ?obs ~name:"l3" config.l3) ~lanes ()

let create ?config ?geometry ?timing ?obs ~guard () =
  create_lanes ?config ?geometry ?timing ?obs ~guards:[| guard |] ()

let create_shared ~config ~llc ~dram ~base ~guard ~read =
  make ~config ~base ~l3:llc ~lanes:[| lane ~dram ~guard ~read |] ()

let now t = t.now + t.lanes.(0).lag
let dram_reads t = t.counts.dram_reads
let pte_dram_reads t = t.counts.pte_dram_reads
let cache_writebacks t = t.counts.cache_writebacks

(* Synthetic page-table layout: four physically-contiguous regions above
   the core's data region. Each level's entry for a vpn sits at
   base + index * 8, which gives walks the same spatial locality real
   radix tables have (adjacent pages share leaf-PTE cachelines). *)
let pt_base t = Int64.add t.base t.cfg.data_region_bytes
let leaf_pte_addr t vpn = Int64.add (pt_base t) (Int64.mul vpn 8L)

let upper_entry_addr t ~level vpn =
  (* level 1 = PD, 2 = PDPT, 3 = PML4. *)
  let index = Int64.shift_right_logical vpn (9 * level) in
  Int64.add
    (Int64.add (pt_base t) (Int64.of_int (512 * 1024 * 1024 * level)))
    (Int64.mul index 8L)

(* A dirty victim published by the last miss is retired to every
   lane's DRAM as a posted write: it updates device state (row buffers,
   activation counts) but charges no stall and skips any channel queue —
   write buffers take it off the critical path. *)
let drain_writeback t cache =
  if Cache.writeback_pending cache then begin
    let addr = Cache.writeback_addr cache in
    let lanes = t.lanes in
    for i = 0 to Array.length lanes - 1 do
      let l = Array.unsafe_get lanes i in
      ignore (Ptg_dram.Dram.access_fast l.dram ~now:(t.now + l.lag) ~addr ~is_write:true)
    done;
    t.counts.cache_writebacks <- t.counts.cache_writebacks + 1;
    match t.trace with
    | None -> ()
    | Some tr -> Ptg_obs.Trace.record tr (Ptg_obs.Trace.Cache_writeback { addr })
  end

(* An LLC miss's demand read on every lane, each at its own clock; the
   latencies wait in [pending] until the instruction retires. *)
let read_lanes t ~paddr ~is_pte =
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = Array.unsafe_get lanes i in
    l.pending <- l.pending + l.read ~now:(t.now + l.lag) ~paddr ~is_pte
  done;
  t.read_pending <- true

(* A read or write climbing the hierarchy; returns the hierarchy's stall
   in cycles, which every lane pays (a lane's DRAM read latencies are its
   own, see [read_lanes]). L1 hits are fully pipelined (no stall);
   hardware-walker accesses skip L1 as real walkers do. Each level's
   dirty eviction is drained before the next level is probed, so DRAM
   sees a deterministic order: L1 writeback, L2 access, L2 writeback, L3
   access, L3 writeback, then each lane's [read] (the demand read). *)
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
        read_lanes t ~paddr ~is_pte;
        let c = t.counts in
        if is_pte then c.pte_dram_reads <- c.pte_dram_reads + 1
        else c.dram_reads <- c.dram_reads + 1;
        l2_lat + l3_lat + t.cfg.llc_miss_overhead
      end
    end
  end

(* Page-table walk: three upper levels through the MMU cache, leaf PTE
   through the cache hierarchy (walker port: no L1). *)
let on_walk t f = t.walk_listeners <- f :: t.walk_listeners

let walk t vpn =
  t.counts.walks <- t.counts.walks + 1;
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
      (match t.trace with
      | None -> ()
      | Some tr -> Ptg_obs.Trace.record tr (Ptg_obs.Trace.Mmu_cache_miss { addr }));
      stall := !stall + mem_access t ~paddr:addr ~is_write:false ~is_pte:true ~through_l1:false
    end
  done;
  let leaf = leaf_pte_addr t vpn in
  stall := !stall + mem_access t ~paddr:leaf ~is_write:false ~is_pte:true ~through_l1:false;
  Tlb.fill t.tlb ~vpn;
  !stall

let translate t vaddr =
  (* Fold virtual data addresses into the core's physical data region,
     keeping page and line locality. An address already inside the
     region is its own fold (every Figure 6 stream stays inside), and
     returning it skips the division and, at the single core's base 0,
     the fresh box. *)
  let region = t.cfg.data_region_bytes in
  let a =
    if Int64.compare vaddr 0L >= 0 && Int64.compare vaddr region < 0 then vaddr
    else
      let a = Int64.rem vaddr region in
      if Int64.compare a 0L < 0 then Int64.add a region else a
  in
  if Int64.equal t.base 0L then a else Int64.add a t.base

(* Retire an instruction's reads: each lane falls behind the hierarchy's
   clock by its own read latencies. *)
let retire_reads t =
  t.read_pending <- false;
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = Array.unsafe_get lanes i in
    l.lag <- l.lag + l.pending;
    l.pending <- 0
  done

let step t op =
  t.now <- t.now + 1;
  match op with
  | Nonmem -> ()
  | Load vaddr | Store vaddr ->
      let is_write = match op with Store _ -> true | Load _ | Nonmem -> false in
      let paddr = translate t vaddr in
      let vpn = Int64.shift_right_logical paddr t.cfg.page_shift in
      let stall = if Tlb.lookup t.tlb ~vpn then 0 else walk t vpn in
      let stall = stall + mem_access t ~paddr ~is_write ~is_pte:false ~through_l1:true in
      t.now <- t.now + stall;
      if t.read_pending then retire_reads t

let run_lanes t ~instrs ~stream =
  let lanes = t.lanes in
  let start_cycles = Array.map (fun l -> t.now + l.lag) lanes in
  let start_mac = Array.map (fun l -> Guard_timing.mac_computations l.guard) lanes in
  let c = t.counts in
  let start_dram = c.dram_reads and start_pte = c.pte_dram_reads in
  let start_walks = c.walks in
  let start_wb = c.cache_writebacks in
  let start_hits = Tlb.hits t.tlb and start_misses = Tlb.misses t.tlb in
  for _ = 1 to instrs do
    step t (stream ())
  done;
  let dram_reads = c.dram_reads - start_dram in
  let pte_dram_reads = c.pte_dram_reads - start_pte in
  let llc_mpki = 1000.0 *. float_of_int dram_reads /. float_of_int instrs in
  let walks = c.walks - start_walks in
  let tlb_miss_rate =
    let misses = Tlb.misses t.tlb - start_misses in
    let total = Tlb.hits t.tlb - start_hits + misses in
    if total = 0 then 0.0 else float_of_int misses /. float_of_int total
  in
  let cache_writebacks = c.cache_writebacks - start_wb in
  Array.mapi
    (fun i l ->
      let cycles = t.now + l.lag - start_cycles.(i) in
      {
        instrs;
        cycles;
        ipc = float_of_int instrs /. float_of_int (max 1 cycles);
        llc_mpki;
        dram_reads;
        pte_dram_reads;
        walks;
        tlb_miss_rate;
        guard_mac_computations = Guard_timing.mac_computations l.guard - start_mac.(i);
        cache_writebacks;
      })
    lanes

let run t ~instrs ~stream = (run_lanes t ~instrs ~stream).(0)
