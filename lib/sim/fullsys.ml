open Ptg_util
open Ptg_vm

type config = {
  guarded : bool;
  attack : bool;
  hammer_period : int;
  hammer_burst : int;
  fault : Ptg_rowhammer.Fault_model.config;
}

let default_config =
  {
    guarded = true;
    attack = true;
    hammer_period = 2000;
    hammer_burst = 2000;
    fault = Ptg_rowhammer.Fault_model.lpddr4;
  }

let comparison =
  [
    ("baseline, no attack", true, false);
    ("PT-Guard under attack", true, true);
    ("UNPROTECTED under attack", false, true);
  ]

type result = {
  instrs : int;
  cycles : int;
  ipc : float;
  walks : int;
  walk_corrections : int;
  walk_exceptions : int;
  refaults : int;
  flips_landed : int;
  wrong_translations : int;
}

type t = {
  cfg : config;
  rng : Rng.t;
  dram : Ptg_dram.Dram.t;
  fault : Ptg_rowhammer.Fault_model.t;
  mc : Ptg_memctrl.Memctrl.t;
  os : Ptg_os.Os_handler.t option;
  table : Page_table.t;
  root : int64;
  shadow : (int64, int64) Hashtbl.t; (* vpn -> intended pfn *)
  vaddrs : int64 array;              (* mapped pages, index-addressable *)
  tlb : Ptg_cpu.Tlb.t;
  translations : (int64, int64) Hashtbl.t; (* vpn -> cached paddr (TLB payload) *)
  victim : Ptg_dram.Geometry.coords;
  mutable instr : int; (* absolute executed-instruction count, across runs *)
  mutable now : int;
  mutable walks : int;
  mutable walk_corrections : int;
  mutable walk_exceptions : int;
  mutable refaults : int;
  mutable wrong_translations : int;
}

let vaddr_base = 0x1000_0000L

(* Every draw [create] makes, in its order. The page tables are built
   through [table_mem mc] and then used through the controller: a cold
   start builds them on the device itself, through the integrity engine;
   a restore builds them on scratch memory, only for the frame choices,
   the shadow mapping and the victim, since the device contents come
   from the snapshot. *)
let build ?obs ~(config : config) ~pages ~seed ~table_mem () =
  if pages < 1 then
    invalid_arg (Printf.sprintf "Fullsys.create: pages must be >= 1 (got %d)" pages);
  let rng = Rng.create seed in
  let dram = Ptg_dram.Dram.create ?obs () in
  let fault =
    Ptg_rowhammer.Fault_model.attach ~config:config.fault ~rng:(Rng.split rng) dram
  in
  let engine =
    if config.guarded then
      Some (Ptguard.Engine.create ~config:Ptguard.Config.optimized ?obs ~rng:(Rng.split rng) ())
    else None
  in
  let mc = Ptg_memctrl.Memctrl.create ?engine ?obs dram in
  (* OS journal observer: only attached when observability is on, and
     carefully non-perturbing — a private RNG (never drawn from: rekey-on-
     overflow is disabled) so the simulation's own stream is untouched. *)
  let os =
    match obs with
    | None -> None
    | Some _ ->
        Some
          (Ptg_os.Os_handler.attach
             ~policy:
               {
                 Ptg_os.Os_handler.auto_rekey_on_overflow = false;
                 failure_threshold_per_row = 1;
               }
             ?obs ~rng:(Rng.create 0L) mc)
  in
  (* Contiguous kernel pool: the leaf tables land in a couple of DRAM rows,
     which is exactly what the attacker wants to aim at. *)
  let kernel_alloc = Frame_allocator.create ~p_break:0.0 ~start_frame:0x20000L rng in
  let user_alloc = Frame_allocator.create ~p_break:0.05 ~start_frame:0x80000L rng in
  let table = Page_table.create ~mem:(table_mem mc) ~alloc:kernel_alloc in
  let shadow = Hashtbl.create pages in
  let vaddrs =
    Array.init pages (fun i ->
        let vaddr = Int64.add vaddr_base (Int64.of_int (i * 4096)) in
        let pfn = Frame_allocator.alloc user_alloc in
        Page_table.map table ~vaddr
          ~pte:(Ptg_pte.X86.make ~writable:true ~user:true ~pfn ());
        Hashtbl.replace shadow (Int64.shift_right_logical vaddr 12) pfn;
        vaddr)
  in
  let victim =
    match Page_table.leaf_line_addrs table with
    | first :: _ -> Ptg_dram.Geometry.decode (Ptg_dram.Dram.geometry dram) first
    | [] -> failwith "Fullsys.create: the page table has no leaf line to aim the attack at"
  in
  {
    cfg = config;
    rng;
    dram;
    fault;
    mc;
    os;
    table = Page_table.with_mem table (Ptg_memctrl.Memctrl.phys_mem mc);
    root = Page_table.root table;
    shadow;
    vaddrs;
    tlb = Ptg_cpu.Tlb.create ?obs ();
    translations = Hashtbl.create 64;
    victim;
    instr = 0;
    now = 0;
    walks = 0;
    walk_corrections = 0;
    walk_exceptions = 0;
    refaults = 0;
    wrong_translations = 0;
  }

let create ?(config = default_config) ?(pages = 2048) ?obs ~seed () =
  build ?obs ~config ~pages ~seed ~table_mem:Ptg_memctrl.Memctrl.phys_mem ()

(* The OS page-fault path after an integrity exception (or a PTE whose
   Present bit was flipped off): rebuild the whole damaged PTE cacheline
   from the kernel's authoritative records (the shadow mapping) and flush
   the TLB, as a real kernel would after INVLPG/remap. *)
let refault t vaddr =
  t.refaults <- t.refaults + 1;
  let vpn = Int64.shift_right_logical vaddr 12 in
  let line_base_vpn = Int64.mul (Int64.div vpn 8L) 8L in
  for k = 0 to 7 do
    let v = Int64.add line_base_vpn (Int64.of_int k) in
    match Hashtbl.find_opt t.shadow v with
    | Some pfn ->
        Page_table.map t.table
          ~vaddr:(Int64.shift_left v 12)
          ~pte:(Ptg_pte.X86.make ~writable:true ~user:true ~pfn ())
    | None -> ()
  done;
  Ptg_cpu.Tlb.flush t.tlb;
  Hashtbl.reset t.translations

let check_translation t vaddr paddr =
  let vpn = Int64.shift_right_logical vaddr 12 in
  match Hashtbl.find_opt t.shadow vpn with
  | Some pfn ->
      if not (Int64.equal (Int64.shift_right_logical paddr 12) pfn) then
        t.wrong_translations <- t.wrong_translations + 1
  | None -> ()

let rec do_walk ?(retried = false) t vaddr =
  t.walks <- t.walks + 1;
  match Ptg_memctrl.Mmu.walk t.mc ~root:t.root ~vaddr with
  | Ptg_memctrl.Mmu.Translated { paddr; latency; _ } ->
      check_translation t vaddr paddr;
      t.now <- t.now + latency;
      Some paddr
  | Ptg_memctrl.Mmu.Corrected_then_translated { paddr; latency; _ } ->
      t.walk_corrections <- t.walk_corrections + 1;
      check_translation t vaddr paddr;
      t.now <- t.now + latency;
      Some paddr
  | Ptg_memctrl.Mmu.Integrity_failure { latency; _ } ->
      t.walk_exceptions <- t.walk_exceptions + 1;
      t.now <- t.now + latency + 2000 (* exception + kernel fault handler *);
      if retried then None
      else begin
        refault t vaddr;
        do_walk ~retried:true t vaddr
      end
  | Ptg_memctrl.Mmu.Not_present { latency; _ } ->
      (* a flip cleared a Present bit (or tore an upper level): the kernel
         sees an ordinary page fault and rebuilds from its records *)
      t.now <- t.now + latency + 2000;
      if retried then None
      else begin
        refault t vaddr;
        do_walk ~retried:true t vaddr
      end

let hammer t =
  ignore
    (Ptg_rowhammer.Attack.run t.dram ~channel:t.victim.Ptg_dram.Geometry.channel
       ~bank:t.victim.Ptg_dram.Geometry.bank
       (Ptg_rowhammer.Attack.Double_sided { victim = t.victim.Ptg_dram.Geometry.row })
       ~iterations:t.cfg.hammer_burst ~start_time:t.now)

let run t ~instrs =
  let start_cycles = t.now and start_walks = t.walks in
  let start_corr = t.walk_corrections and start_exc = t.walk_exceptions in
  let start_refaults = t.refaults and start_wrong = t.wrong_translations in
  let hot = Array.sub t.vaddrs 0 (min 32 (Array.length t.vaddrs)) in
  (* The hammer schedule keys off the absolute instruction counter, so a
     run split into chunks (checkpointed, or resumed from a snapshot)
     fires bursts at exactly the instants one uninterrupted run would. *)
  for _ = 1 to instrs do
    t.instr <- t.instr + 1;
    t.now <- t.now + 1;
    if t.cfg.attack && t.instr mod t.cfg.hammer_period = 0 then hammer t;
    (* 35% memory operations: mostly hot pages (TLB-resident), a cold
       tail that walks. *)
    if Rng.bernoulli t.rng 0.35 then begin
      let vaddr =
        if Rng.bernoulli t.rng 0.8 then Rng.choose t.rng hot
        else Rng.choose t.rng t.vaddrs
      in
      let vpn = Int64.shift_right_logical vaddr 12 in
      let paddr =
        if Ptg_cpu.Tlb.lookup t.tlb ~vpn then Hashtbl.find_opt t.translations vpn
        else begin
          match do_walk t vaddr with
          | Some paddr ->
              Ptg_cpu.Tlb.fill t.tlb ~vpn;
              Hashtbl.replace t.translations vpn paddr;
              Some paddr
          | None -> None
        end
      in
      match paddr with
      | Some paddr ->
          (* the data access itself, timed through the controller *)
          let r = Ptg_memctrl.Memctrl.read_line t.mc ~now:t.now ~addr:paddr ~is_pte:false () in
          t.now <- t.now + (r.Ptg_memctrl.Memctrl.latency / 4)
          (* /4: a crude cache-hit discount so data traffic does not
             swamp the walk effects this mode studies *)
      | None -> ()
    end
  done;
  let cycles = t.now - start_cycles in
  {
    instrs;
    cycles;
    ipc = float_of_int instrs /. float_of_int (max 1 cycles);
    walks = t.walks - start_walks;
    walk_corrections = t.walk_corrections - start_corr;
    walk_exceptions = t.walk_exceptions - start_exc;
    refaults = t.refaults - start_refaults;
    flips_landed = Ptg_rowhammer.Fault_model.flip_count t.fault;
    wrong_translations = t.wrong_translations - start_wrong;
  }

let memctrl t = t.mc
let os_handler t = t.os
let engine t = Ptg_memctrl.Memctrl.engine t.mc
let instrs_done t = t.instr

(* Lifetime result: identical to what a single [run] over the whole
   instruction budget returns, however many chunks (or snapshot resumes)
   actually produced it — the checkpoint drivers report this. *)
let totals t =
  {
    instrs = t.instr;
    cycles = t.now;
    ipc = float_of_int t.instr /. float_of_int (max 1 t.now);
    walks = t.walks;
    walk_corrections = t.walk_corrections;
    walk_exceptions = t.walk_exceptions;
    refaults = t.refaults;
    flips_landed = Ptg_rowhammer.Fault_model.flip_count t.fault;
    wrong_translations = t.wrong_translations;
  }

type state = {
  s_rng : int64 array;
  s_dram : Ptg_dram.Dram.state;
  s_fault : Ptg_rowhammer.Fault_model.state;
  s_engine : Ptguard.Engine.state option;
  s_mc_now : int;
  s_table : Page_table.state;
  s_alloc : Frame_allocator.state;
  s_tlb : Ptg_cpu.Tlb.state;
  s_translations : (int64 * int64) list; (* vpn-sorted *)
  s_instr : int;
  s_now : int;
  s_walks : int;
  s_walk_corrections : int;
  s_walk_exceptions : int;
  s_refaults : int;
  s_wrong_translations : int;
}

let state t =
  {
    s_rng = Rng.state t.rng;
    s_dram = Ptg_dram.Dram.state t.dram;
    s_fault = Ptg_rowhammer.Fault_model.state t.fault;
    s_engine = Option.map Ptguard.Engine.state (engine t);
    s_mc_now = Ptg_memctrl.Memctrl.now t.mc;
    s_table = Page_table.state t.table;
    s_alloc = Frame_allocator.state (Page_table.allocator t.table);
    s_tlb = Ptg_cpu.Tlb.state t.tlb;
    s_translations =
      Hashtbl.fold (fun vpn paddr acc -> (vpn, paddr) :: acc) t.translations []
      |> List.sort (fun (a, _) (b, _) -> Int64.compare a b);
    s_instr = t.instr;
    s_now = t.now;
    s_walks = t.walks;
    s_walk_corrections = t.walk_corrections;
    s_walk_exceptions = t.walk_exceptions;
    s_refaults = t.refaults;
    s_wrong_translations = t.wrong_translations;
  }

(* Everything not restored here is reconstructed bit-identically by
   [create] from the same (config, pages, seed): the shadow mapping,
   victim coordinates and vaddr array are write-once, and the OS journal
   observer only exists under observability (which checkpointing
   excludes). *)
let set_state t s =
  (match (engine t, s.s_engine) with
  | None, None | Some _, Some _ -> ()
  | _ -> invalid_arg "Fullsys.set_state: guarded/unguarded mismatch");
  (* The fault model checks its state against the device and refuses it
     before changing anything; going first, its refusal leaves the whole
     machine as it was. *)
  Ptg_rowhammer.Fault_model.set_state t.fault s.s_fault;
  Rng.set_state t.rng s.s_rng;
  Ptg_dram.Dram.set_state t.dram s.s_dram;
  (match (engine t, s.s_engine) with
  | Some e, Some es -> Ptguard.Engine.set_state e es
  | _ -> ());
  Ptg_memctrl.Memctrl.set_now t.mc s.s_mc_now;
  Page_table.set_state t.table s.s_table;
  Frame_allocator.set_state (Page_table.allocator t.table) s.s_alloc;
  Ptg_cpu.Tlb.set_state t.tlb s.s_tlb;
  Hashtbl.reset t.translations;
  List.iter (fun (vpn, paddr) -> Hashtbl.replace t.translations vpn paddr)
    s.s_translations;
  t.instr <- s.s_instr;
  t.now <- s.s_now;
  t.walks <- s.s_walks;
  t.walk_corrections <- s.s_walk_corrections;
  t.walk_exceptions <- s.s_walk_exceptions;
  t.refaults <- s.s_refaults;
  t.wrong_translations <- s.s_wrong_translations

let of_state ?(config = default_config) ?(pages = 2048) ~seed s =
  let t = build ~config ~pages ~seed ~table_mem:(fun _ -> Phys_mem.of_hashtbl ()) () in
  set_state t s;
  t

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>instructions:        %d@,\
     cycles:              %d (IPC %.3f)@,\
     page-table walks:    %d@,\
     corrected walks:     %d@,\
     walk exceptions:     %d (OS re-faults: %d)@,\
     Rowhammer flips:     %d@,\
     WRONG TRANSLATIONS:  %d@]"
    r.instrs r.cycles r.ipc r.walks r.walk_corrections r.walk_exceptions r.refaults
    r.flips_landed r.wrong_translations
