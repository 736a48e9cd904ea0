open Ptg_cpu

(* --- Guard_timing ------------------------------------------------------ *)

let test_guard_unprotected () =
  let g = Guard_timing.unprotected in
  Alcotest.(check int) "no penalty" 0 (Guard_timing.read_penalty g ~is_pte:true);
  Alcotest.(check int) "no computations" 0 (Guard_timing.mac_computations g)

(* Every unprotected machine, on every domain, shares the one global
   guard, so nothing may write it: after a two-domain Figure 6 sweep its
   counts are still 0. *)
let test_guard_unprotected_untouched () =
  let workloads = List.filter_map Ptg_workloads.Workload.by_name [ "mcf"; "bc" ] in
  ignore (Ptg_sim.Fig6.run ~jobs:2 ~instrs:6_000 ~warmup:2_000 ~workloads ());
  let g = Guard_timing.unprotected in
  Alcotest.(check (pair int int)) "reads, MAC computations" (0, 0)
    (Guard_timing.reads_observed g, Guard_timing.mac_computations g)

let test_guard_baseline_charges_all () =
  let g =
    Guard_timing.of_config Ptguard.Config.baseline ~rng:(Ptg_util.Rng.create 1L)
  in
  for _ = 1 to 10 do
    Alcotest.(check int) "data read pays" 10 (Guard_timing.read_penalty g ~is_pte:false);
    Alcotest.(check int) "pte read pays" 10 (Guard_timing.read_penalty g ~is_pte:true)
  done;
  Alcotest.(check int) "all computed" 20 (Guard_timing.mac_computations g);
  Alcotest.(check int) "reads observed" 20 (Guard_timing.reads_observed g)

let test_guard_optimized () =
  let g =
    Guard_timing.of_config ~p_data_protected:0.0 Ptguard.Config.optimized
      ~rng:(Ptg_util.Rng.create 1L)
  in
  for _ = 1 to 10 do
    Alcotest.(check int) "data read free" 0 (Guard_timing.read_penalty g ~is_pte:false);
    Alcotest.(check int) "pte read pays" 10 (Guard_timing.read_penalty g ~is_pte:true)
  done;
  Alcotest.(check int) "only PTE reads computed" 10 (Guard_timing.mac_computations g)

let test_guard_latency_config () =
  let cfg = Ptguard.Config.with_mac_latency Ptguard.Config.baseline 17 in
  let g = Guard_timing.of_config cfg ~rng:(Ptg_util.Rng.create 1L) in
  Alcotest.(check int) "configured latency" 17 (Guard_timing.read_penalty g ~is_pte:false)

(* --- Core timing -------------------------------------------------------- *)

let test_nonmem_ipc_one () =
  let core = Core.create ~guard:Guard_timing.unprotected () in
  let r = Core.run core ~instrs:10_000 ~stream:(fun () -> Core.Nonmem) in
  Alcotest.(check int) "1 cycle per instr" 10_000 r.Core.cycles;
  Alcotest.(check (float 1e-9)) "IPC 1" 1.0 r.Core.ipc;
  Alcotest.(check int) "no dram traffic" 0 (r.Core.dram_reads + r.Core.pte_dram_reads)

let test_l1_resident_stream () =
  let core = Core.create ~guard:Guard_timing.unprotected () in
  (* loop over 4 lines of one page: after warmup, all L1 hits *)
  let i = ref 0 in
  let stream () =
    incr i;
    Core.Load (Int64.of_int (64 * (!i mod 4)))
  in
  ignore (Core.run core ~instrs:100 ~stream);
  let r = Core.run core ~instrs:10_000 ~stream in
  Alcotest.(check int) "L1 hits are pipelined" 10_000 r.Core.cycles;
  Alcotest.(check int) "one walk at most" 0 r.Core.walks

let test_miss_costs_latency () =
  let core = Core.create ~guard:Guard_timing.unprotected () in
  (* a single load to a cold address *)
  let fired = ref false in
  let stream () =
    if !fired then Core.Nonmem
    else begin
      fired := true;
      Core.Load 0x12345000L
    end
  in
  let r = Core.run core ~instrs:10 ~stream in
  Alcotest.(check int) "one walk" 1 r.Core.walks;
  Alcotest.(check bool) "dram read happened" true
    (r.Core.dram_reads + r.Core.pte_dram_reads >= 1);
  Alcotest.(check bool) "stall charged" true (r.Core.cycles > 200)

let test_guard_adds_exact_latency () =
  (* Identical streams; the guarded run must cost exactly
     10 * (#DRAM reads) more cycles. *)
  let mk_stream seed = Ptg_workloads.Workload.stream (Ptg_util.Rng.create seed)
      (Option.get (Ptg_workloads.Workload.by_name "omnetpp")) in
  let base_core = Core.create ~guard:Guard_timing.unprotected () in
  let base = Core.run base_core ~instrs:200_000 ~stream:(mk_stream 5L) in
  let g = Guard_timing.of_config Ptguard.Config.baseline ~rng:(Ptg_util.Rng.create 1L) in
  let guard_core = Core.create ~guard:g () in
  let guarded = Core.run guard_core ~instrs:200_000 ~stream:(mk_stream 5L) in
  Alcotest.(check int) "same memory behaviour"
    (base.Core.dram_reads + base.Core.pte_dram_reads)
    (guarded.Core.dram_reads + guarded.Core.pte_dram_reads);
  Alcotest.(check int) "extra cycles = 10 per DRAM read"
    (10 * (guarded.Core.dram_reads + guarded.Core.pte_dram_reads))
    (guarded.Core.cycles - base.Core.cycles)

let test_writeback_reaches_dram () =
  (* A dirty L1 victim must produce exactly one DRAM write: counted in
     the result, the obs counter, and the trace — with the victim's line
     address. Direct-mapped 2-set L1 makes the eviction easy to force. *)
  let cfg =
    { Core.default_config with
      Core.l1 = { Cache.size_bytes = 128; assoc = 1; line_bytes = 64; latency = 1 } }
  in
  let sink = Ptg_obs.Sink.create () in
  let core = Core.create ~config:cfg ~obs:sink ~guard:Guard_timing.unprotected () in
  (* Store dirties line 0; the load at 128 maps to the same set (2 sets *
     64 B) and evicts it. Both live in page 0: one walk, no other stores. *)
  let ops = [| Core.Store 0L; Core.Load 128L; Core.Nonmem |] in
  let i = ref (-1) in
  let stream () =
    incr i;
    ops.(min !i 2)
  in
  let r = Core.run core ~instrs:3 ~stream in
  Alcotest.(check int) "one writeback in result" 1 r.Core.cache_writebacks;
  let wb_events =
    List.filter_map
      (function
        | Ptg_obs.Trace.Cache_writeback { addr } -> Some addr
        | _ -> None)
      (Ptg_obs.Trace.events (Ptg_obs.Sink.trace sink))
  in
  Alcotest.(check (list int64)) "one trace event, victim line address" [ 0L ]
    wb_events;
  Alcotest.(check int) "clean reruns add none" 0
    (Core.run core ~instrs:3 ~stream:(fun () -> Core.Nonmem)).Core.cache_writebacks

let test_tlb_miss_rate_reported () =
  let core = Core.create ~guard:Guard_timing.unprotected () in
  let rng = Ptg_util.Rng.create 3L in
  let stream () =
    Core.Load (Int64.mul 4096L (Ptg_util.Rng.int64_bounded rng 100_000L))
  in
  let r = Core.run core ~instrs:20_000 ~stream in
  Alcotest.(check bool) "random pages miss the TLB" true (r.Core.tlb_miss_rate > 0.5);
  Alcotest.(check bool) "walks roughly match TLB misses" true (r.Core.walks > 1000)

(* --- Multicore ----------------------------------------------------------- *)

let test_multicore_runs () =
  let mc = Multicore.create ~guard:Guard_timing.unprotected () in
  let streams = Array.init 4 (fun _ -> fun () -> Core.Nonmem) in
  let r = Multicore.run mc ~instrs_per_core:1000 ~streams in
  Array.iter
    (fun pc -> Alcotest.(check int) "each core ran" 1000 pc.Multicore.instrs)
    r.Multicore.per_core;
  Alcotest.(check int) "nonmem total cycles" 1000 r.Multicore.total_cycles;
  Alcotest.(check (float 1e-9)) "aggregate ipc 4" 4.0 r.Multicore.aggregate_ipc

let test_multicore_stream_count () =
  let mc = Multicore.create ~guard:Guard_timing.unprotected () in
  Alcotest.check_raises "stream arity"
    (Invalid_argument "Multicore.run: need one stream per core") (fun () ->
      ignore (Multicore.run mc ~instrs_per_core:1 ~streams:[||]))

let test_multicore_contention () =
  let spec = Option.get (Ptg_workloads.Workload.by_name "pr") in
  let mc = Multicore.create ~guard:Guard_timing.unprotected () in
  let streams =
    Array.init 4 (fun i ->
        Ptg_workloads.Workload.stream (Ptg_util.Rng.create (Int64.of_int i)) spec)
  in
  let r = Multicore.run mc ~instrs_per_core:100_000 ~streams in
  Alcotest.(check bool) "memory-heavy mix queues" true (r.Multicore.avg_queue_delay > 0.1);
  Alcotest.(check bool) "dram reads recorded" true (r.Multicore.dram_reads > 1000)

let test_multicore_verify_engine () =
  (* Engine-backed verification: every PTE DRAM read goes through the
     shared engine and must verify against the content the engine
     itself installed — zero failures, one verification per PTE read. *)
  let spec = Option.get (Ptg_workloads.Workload.by_name "pr") in
  let engine = Ptguard.Engine.create ~rng:(Ptg_util.Rng.create 9L) () in
  let mc = Multicore.create ~verify_engine:engine ~guard:Guard_timing.unprotected () in
  let streams =
    Array.init 4 (fun i ->
        Ptg_workloads.Workload.stream (Ptg_util.Rng.create (Int64.of_int i)) spec)
  in
  let r = Multicore.run mc ~instrs_per_core:50_000 ~streams in
  Alcotest.(check bool) "verifications ran" true (r.Multicore.macs_verified > 100);
  Alcotest.(check int) "no failures on untampered PTEs" 0 r.Multicore.mac_verify_failures;
  Alcotest.(check int) "one verification per PTE DRAM read"
    r.Multicore.pte_dram_reads r.Multicore.macs_verified

let test_multicore_verify_timing_invariant () =
  (* Content verification is additive: cycle/IPC numbers are identical
     with and without the verify engine. *)
  let spec = Option.get (Ptg_workloads.Workload.by_name "pr") in
  let run ?verify_engine () =
    let mc = Multicore.create ?verify_engine ~guard:Guard_timing.unprotected () in
    let streams =
      Array.init 4 (fun i ->
          Ptg_workloads.Workload.stream (Ptg_util.Rng.create (Int64.of_int i)) spec)
    in
    Multicore.run mc ~instrs_per_core:20_000 ~streams
  in
  let plain = run () in
  let verified =
    run ~verify_engine:(Ptguard.Engine.create ~rng:(Ptg_util.Rng.create 9L) ()) ()
  in
  Alcotest.(check int) "total cycles unchanged" plain.Multicore.total_cycles
    verified.Multicore.total_cycles;
  Alcotest.(check int) "dram reads unchanged" plain.Multicore.dram_reads
    verified.Multicore.dram_reads;
  Array.iteri
    (fun i pc ->
      Alcotest.(check int)
        (Printf.sprintf "core %d cycles unchanged" i)
        pc.Multicore.cycles verified.Multicore.per_core.(i).Multicore.cycles)
    plain.Multicore.per_core;
  Alcotest.(check int) "plain run verifies nothing" 0 plain.Multicore.macs_verified

(* --- Byte-identity goldens ------------------------------------------------ *)

(* Exact outputs of the timing hierarchy, recorded before the multicore
   model was rebuilt on [Core.t] and unchanged by it: any change to the
   order of DRAM events or of guard RNG draws moves a line here. Floats
   are printed as their bits. *)

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let core_line (r : Core.result) =
  Printf.sprintf "instrs=%d cycles=%d ipc=%s mpki=%s dram=%d pte=%d walks=%d tlb=%s macs=%d wb=%d"
    r.Core.instrs r.Core.cycles (bits r.Core.ipc) (bits r.Core.llc_mpki)
    r.Core.dram_reads r.Core.pte_dram_reads r.Core.walks
    (bits r.Core.tlb_miss_rate) r.Core.guard_mac_computations
    r.Core.cache_writebacks

let multicore_line (r : Multicore.result) =
  Printf.sprintf "total=%d cores=[%s] dram=%d pte=%d wb=%d queue=%s macs=%d fail=%d"
    r.Multicore.total_cycles
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (pc : Multicore.per_core) ->
               Printf.sprintf "%d/%d" pc.Multicore.instrs pc.Multicore.cycles)
             r.Multicore.per_core)))
    r.Multicore.dram_reads r.Multicore.pte_dram_reads r.Multicore.cache_writebacks
    (bits r.Multicore.avg_queue_delay) r.Multicore.macs_verified
    r.Multicore.mac_verify_failures

let core_expected =
  [
    "instrs=10000 cycles=285597 ipc=3fa1ed676949cc83 mpki=4064d33333333333 dram=1666 pte=47 walks=47 tlb=3f8b449ae7c724b2 macs=0 wb=729";
    "instrs=40000 cycles=315154 ipc=3fc03efb8b30ea48 mpki=402d19999999999a dram=582 pte=93 walks=80 tlb=3f779acb84391803 macs=0 wb=3462";
    "instrs=10000 cycles=302727 ipc=3fa0e9b5a8c2ecc5 mpki=4064d33333333333 dram=1666 pte=47 walks=47 tlb=3f8b449ae7c724b2 macs=1713 wb=729";
    "instrs=40000 cycles=321904 ipc=3fbfcf8bc039d1b6 mpki=402d19999999999a dram=582 pte=93 walks=80 tlb=3f779acb84391803 macs=675 wb=3462";
    "instrs=10000 cycles=286157 ipc=3fa1e46c31d0d00d mpki=4064d33333333333 dram=1666 pte=47 walks=47 tlb=3f8b449ae7c724b2 macs=56 wb=729";
    "instrs=40000 cycles=316114 ipc=3fc0325a2e0f6586 mpki=402d19999999999a dram=582 pte=93 walks=80 tlb=3f779acb84391803 macs=96 wb=3462";
  ]

let test_core_golden () =
  let spec = Option.get (Ptg_workloads.Workload.by_name "mcf") in
  let run guard =
    let core = Core.create ~guard () in
    let stream = Ptg_workloads.Workload.stream (Ptg_util.Rng.create 11L) spec in
    let warm = Core.run core ~instrs:10_000 ~stream in
    [ core_line warm; core_line (Core.run core ~instrs:40_000 ~stream) ]
  in
  Alcotest.(check (list string)) "core results" core_expected
    (run Guard_timing.unprotected
    @ run (Guard_timing.of_config Ptguard.Config.baseline ~rng:(Ptg_util.Rng.create 12L))
    @ run (Guard_timing.of_config Ptguard.Config.optimized ~rng:(Ptg_util.Rng.create 13L)))

let multicore_expected =
  [
    "total=613534 cores=[20000/613365;20000/540815;20000/441100;20000/613534] dram=7612 pte=393 wb=6552 queue=400dfaf278f2cad1 macs=0 fail=0";
    "total=613534 cores=[20000/613365;20000/540815;20000/441100;20000/613534] dram=7612 pte=393 wb=6552 queue=400dfaf278f2cad1 macs=393 fail=0";
    "total=607629 cores=[20000/607629;20000/530237;20000/436580;20000/606688] dram=7612 pte=393 wb=6552 queue=400813719ffefa05 macs=0 fail=0";
    "total=607629 cores=[20000/607629;20000/530237;20000/436580;20000/606688] dram=7612 pte=393 wb=6552 queue=400813719ffefa05 macs=393 fail=0";
  ]

let test_multicore_golden () =
  let names = [| "pr"; "mcf"; "omnetpp"; "xalancbmk" |] in
  let run config ~verify =
    let guard = Guard_timing.of_config config ~rng:(Ptg_util.Rng.create 21L) in
    let verify_engine =
      if verify then Some (Ptguard.Engine.create ~rng:(Ptg_util.Rng.create 9L) ())
      else None
    in
    let mc = Multicore.create ?verify_engine ~guard () in
    let streams =
      Array.mapi
        (fun i name ->
          Ptg_workloads.Workload.stream
            (Ptg_util.Rng.create (Int64.of_int (30 + i)))
            (Option.get (Ptg_workloads.Workload.by_name name)))
        names
    in
    multicore_line (Multicore.run mc ~instrs_per_core:20_000 ~streams)
  in
  Alcotest.(check (list string)) "multicore results" multicore_expected
    (List.concat_map
       (fun config -> [ run config ~verify:false; run config ~verify:true ])
       [ Ptguard.Config.baseline; Ptguard.Config.optimized ])

let page_size_expected =
  [
    "4K slowdown=40031c67f5b0e11f walks=4007222222222221";
    "2M slowdown=400203abbc0472a2 walks=4003333333333333";
  ]

let test_page_size_golden () =
  let r =
    Ptg_sim.Ablations.page_size ~jobs:1 ~instrs:40_000
      ~workloads:(List.filteri (fun i _ -> i < 3) Ptg_workloads.Workload.high_mpki)
      ()
  in
  Alcotest.(check (list string)) "page-size rows" page_size_expected
    (List.map
       (fun (row : Ptg_sim.Ablations.page_size_row) ->
         Printf.sprintf "%s slowdown=%s walks=%s" row.Ptg_sim.Ablations.page
           (bits row.Ptg_sim.Ablations.avg_slowdown_pct)
           (bits row.Ptg_sim.Ablations.walks_per_kinstr))
       r.Ptg_sim.Ablations.rows)

let test_walk_trace_golden () =
  let t =
    Ptg_sim.Mem_trace.record_walks ~instrs:80_000
      (Option.get (Ptg_workloads.Workload.by_name "mcf"))
  in
  let b = Buffer.create 4096 in
  Array.iter
    (fun (e : Ptg_sim.Mem_trace.event) ->
      Buffer.add_string b (Printf.sprintf "%Lx/%d\n" e.Ptg_sim.Mem_trace.addr e.Ptg_sim.Mem_trace.cycle))
    t.Ptg_sim.Mem_trace.events;
  Alcotest.(check (pair int string)) "walk events" (193, "130cfd56e54ae6632b81145a3a14bcad")
    (Array.length t.Ptg_sim.Mem_trace.events, Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Timing lanes --------------------------------------------------------- *)

(* Lanes share one hierarchy; each must still equal a core of its own
   over the same stream, field for field, on a warm-up call and a timed
   call. Stores over a working set far above L1 make writebacks, and the
   far addresses make walks at both page sizes. *)
let gen_lane_case =
  QCheck2.Gen.(
    let addr bound = map (fun a -> Int64.of_int (a * 8)) (int_bound (bound - 1)) in
    let op =
      frequency
        [
          (1, pure Core.Nonmem);
          (4, map (fun a -> Core.Load a) (addr (1 lsl 19)));
          (3, map (fun a -> Core.Store a) (addr (1 lsl 19)));
          (1, map (fun a -> Core.Load a) (addr (1 lsl 27)));
          (1, map (fun a -> Core.Store a) (addr (1 lsl 27)));
        ]
    in
    triple (oneofl [ 12; 21 ]) (int_bound 1_000_000) (array_size (int_range 200 3000) op))

(* Fresh guards each call: the same seeds give the same penalty draws. *)
let lane_guards seed =
  let guarded ?p_data_protected config k =
    Guard_timing.of_config ?p_data_protected config
      ~rng:(Ptg_util.Rng.create (Int64.of_int ((4 * seed) + k)))
  in
  let optimized latency =
    Ptguard.Config.with_mac_latency Ptguard.Config.optimized latency
  in
  [|
    Guard_timing.unprotected;
    guarded Ptguard.Config.baseline 1;
    guarded ~p_data_protected:0.25 (optimized 10) 2;
    guarded ~p_data_protected:0.25 (optimized 40) 3;
  |]

let prop_lanes_match_cores =
  QCheck2.Test.make ~name:"lanes equal independent cores" ~count:60
    ~print:(fun (shift, seed, ops) ->
      Printf.sprintf "page_shift=%d seed=%d ops=%d" shift seed (Array.length ops))
    gen_lane_case
    (fun (page_shift, seed, ops) ->
      let config = { Core.default_config with Core.page_shift } in
      let warm = Array.length ops / 2 in
      let timed = Array.length ops - warm in
      let stream () =
        let i = ref 0 in
        fun () ->
          let op = ops.(!i) in
          incr i;
          op
      in
      let lanes =
        let core = Core.create_lanes ~config ~guards:(lane_guards seed) () in
        let stream = stream () in
        let w = Core.run_lanes core ~instrs:warm ~stream in
        let t = Core.run_lanes core ~instrs:timed ~stream in
        Array.map2 (fun w t -> (w, t)) w t
      in
      let alone =
        Array.map
          (fun guard ->
            let core = Core.create ~config ~guard () in
            let stream = stream () in
            let w = Core.run core ~instrs:warm ~stream in
            (w, Core.run core ~instrs:timed ~stream))
          (lane_guards seed)
      in
      compare lanes alone = 0)

(* A core's DRAM device is sparse, so building a core costs its caches
   and TLB — a dense per-row counter array would add 4 MiB. *)
let test_core_create_allocation () =
  let bytes =
    Test_dram.allocated (fun () -> Core.create ~guard:Guard_timing.unprotected ())
  in
  if bytes >= 1048576.0 then
    Alcotest.failf "Core.create allocated %.0f bytes (limit 1 MiB)" bytes

let suite =
  [
    Alcotest.test_case "core: create allocation" `Quick test_core_create_allocation;
    Alcotest.test_case "guard: unprotected" `Quick test_guard_unprotected;
    Alcotest.test_case "guard: global untouched by a -j 2 sweep" `Quick
      test_guard_unprotected_untouched;
    Alcotest.test_case "guard: baseline charges all" `Quick test_guard_baseline_charges_all;
    Alcotest.test_case "guard: optimized" `Quick test_guard_optimized;
    Alcotest.test_case "guard: latency config" `Quick test_guard_latency_config;
    Alcotest.test_case "core: nonmem IPC 1" `Quick test_nonmem_ipc_one;
    Alcotest.test_case "core: L1-resident stream" `Quick test_l1_resident_stream;
    Alcotest.test_case "core: miss cost" `Quick test_miss_costs_latency;
    Alcotest.test_case "core: guard latency exact" `Slow test_guard_adds_exact_latency;
    Alcotest.test_case "core: writeback reaches DRAM" `Quick test_writeback_reaches_dram;
    Alcotest.test_case "core: tlb miss rate" `Quick test_tlb_miss_rate_reported;
    Alcotest.test_case "multicore: runs" `Quick test_multicore_runs;
    Alcotest.test_case "multicore: stream arity" `Quick test_multicore_stream_count;
    Alcotest.test_case "multicore: contention" `Slow test_multicore_contention;
    Alcotest.test_case "multicore: engine-backed verify" `Quick
      test_multicore_verify_engine;
    Alcotest.test_case "multicore: verify is timing-invariant" `Quick
      test_multicore_verify_timing_invariant;
    Alcotest.test_case "golden: core results" `Quick test_core_golden;
    Alcotest.test_case "golden: multicore results" `Quick test_multicore_golden;
    Alcotest.test_case "golden: page-size rows" `Quick test_page_size_golden;
    Alcotest.test_case "golden: walk trace" `Quick test_walk_trace_golden;
    QCheck_alcotest.to_alcotest prop_lanes_match_cores;
  ]
