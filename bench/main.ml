(* PT-Guard benchmark harness.

   Part 1 — Bechamel micro-benchmarks of every hot operation the paper
   costs out in hardware (Section IV-F / V-E): the QARMA cipher, the MAC,
   both write-path classifications, both read paths, and the correction
   engine's best and worst cases.

   Part 2 — regeneration of every table and figure of the paper via the
   experiment harness (the same code `bin/ptguard_cli.exe` drives), at
   bench-friendly sizes. Set PTG_BENCH_FULL=1 for the paper-scale runs
   recorded in EXPERIMENTS.md. The experiment sweeps fan out across
   PTG_BENCH_JOBS worker domains (default: the recommended domain count);
   results are bit-identical for any job count.

   Part 3 — a serial-vs-parallel wall-clock comparison of the Figure 6
   sweep through Ptg_util.Pool, recorded in EXPERIMENTS.md's "Parallel
   runs" section.

   Part 4 — the gated sections (fig6, fullsys, snapshot, slices, serve,
   serve_sharded) each record BENCH_<section>.json; bench/gate.exe
   checks a fresh recording against the committed one.

   Run with: dune exec bench/main.exe *)

open Bechamel

let full = Sys.getenv_opt "PTG_BENCH_FULL" = Some "1"

let jobs =
  match Sys.getenv_opt "PTG_BENCH_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 -> j
      | _ -> invalid_arg "PTG_BENCH_JOBS must be a positive integer")
  | None -> Ptg_util.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures                                            *)
(* ------------------------------------------------------------------ *)

let rng = Ptg_util.Rng.create 2023L
let key = Ptg_crypto.Qarma.key_of_rng rng
let qarma_scratch = Ptg_crypto.Qarma.scratch ()
let baseline_engine = Ptguard.Engine.create ~config:Ptguard.Config.baseline ~rng ()
let optimized_engine = Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng ()

let pte_line =
  Ptg_pte.Line.init (fun i ->
      Ptg_pte.X86.make ~writable:true ~user:true ~pfn:(Int64.of_int (0x52700 + i)) ())

let data_line = Ptg_pte.Line.init (fun i -> Int64.logor 0xDEAD_0000_0000_0000L (Int64.of_int i))
let addr = 0x7F8A_1000L
let stored_pte = Ptguard.Engine.process_write baseline_engine ~addr pte_line
let stored_pte_opt = Ptguard.Engine.process_write optimized_engine ~addr pte_line
let single_flip = Ptg_pte.Line.flip_bit stored_pte ((3 * 64) + 20)

let hopeless =
  (* MAC shredded beyond soft match: correction runs all G_max guesses. *)
  List.fold_left Ptg_pte.Line.flip_bit stored_pte [ 40; 42; 44; 46; 48; 50; 104; 106 ]

(* The correction rows correct under the key the lines were written
   with. A fixture that drifts into another case (single-flip ending
   Uncorrectable times the Gmax case twice) stops the bench here. *)
let line_key = Ptguard.Engine.key baseline_engine

let () =
  let correct line = Ptguard.Correction.correct Ptguard.Config.baseline line_key ~addr line in
  (match correct single_flip with
  | Ptguard.Correction.Corrected { step = Ptguard.Correction.Flip_and_check; _ } -> ()
  | _ -> failwith "bench fixture: single_flip is not corrected by flip-and-check");
  match correct hopeless with
  | Ptguard.Correction.Uncorrectable _ -> ()
  | Ptguard.Correction.Corrected _ -> failwith "bench fixture: hopeless line was corrected"

let block_p = Ptg_crypto.Block128.make ~hi:0x0123456789ABCDEFL ~lo:0xFEDCBA9876543210L
let block_t = Ptg_crypto.Block128.make ~hi:0xAAAAAAAAAAAAAAAAL ~lo:0x5555555555555555L
let masked = Ptg_pte.Protection.masked_for_mac Ptg_pte.Protection.default pte_line

let workload_stream =
  Ptg_workloads.Workload.stream (Ptg_util.Rng.create 11L)
    (Option.get (Ptg_workloads.Workload.by_name "xalancbmk"))

let timing_core = Ptg_cpu.Core.create ~guard:Ptg_cpu.Guard_timing.unprotected ()
let dram = Ptg_dram.Dram.create ()
let dram_cursor = ref 0

(* Observability fixtures (after the unobserved engines, so their RNG
   draws are unchanged). *)
let obs_sink = Ptg_obs.Sink.create ()

let observed_engine =
  Ptguard.Engine.create ~config:Ptguard.Config.baseline ~obs:obs_sink ~rng ()

let stored_pte_obs = Ptguard.Engine.process_write observed_engine ~addr pte_line
let obs_counter = Ptg_obs.Registry.counter (Ptg_obs.Sink.registry obs_sink) "bench_ticks"

let micro_tests =
  [
    Test.make ~name:"qarma128/encrypt"
      (Staged.stage (fun () ->
           Ptg_crypto.Qarma.encrypt_with qarma_scratch key ~tweak:block_t block_p));
    Test.make ~name:"qarma128/decrypt"
      (Staged.stage (fun () ->
           Ptg_crypto.Qarma.decrypt_with qarma_scratch key ~tweak:block_t block_p));
    Test.make ~name:"mac/compute-64B-line"
      (Staged.stage (fun () -> Ptg_crypto.Mac.compute key ~addr masked));
    Test.make ~name:"pattern/basic-96bit"
      (Staged.stage (fun () ->
           Ptg_pte.Protection.matches_basic_pattern Ptg_pte.Protection.default pte_line));
    Test.make ~name:"pattern/extended-152bit"
      (Staged.stage (fun () ->
           Ptg_pte.Protection.matches_extended_pattern Ptg_pte.Protection.default pte_line));
    Test.make ~name:"engine/write-pte-line"
      (Staged.stage (fun () -> Ptguard.Engine.process_write baseline_engine ~addr pte_line));
    Test.make ~name:"engine/write-data-line"
      (Staged.stage (fun () -> Ptguard.Engine.process_write baseline_engine ~addr data_line));
    Test.make ~name:"engine/read-pte-verify"
      (Staged.stage (fun () ->
           Ptguard.Engine.process_read baseline_engine ~addr ~is_pte:true stored_pte));
    Test.make ~name:"engine/read-pte-verify-optimized"
      (Staged.stage (fun () ->
           Ptguard.Engine.process_read optimized_engine ~addr ~is_pte:true stored_pte_opt));
    Test.make ~name:"engine/read-data-optimized-skip"
      (Staged.stage (fun () ->
           Ptguard.Engine.process_read optimized_engine ~addr ~is_pte:false data_line));
    Test.make ~name:"correction/single-flip"
      (Staged.stage (fun () ->
           Ptguard.Correction.correct Ptguard.Config.baseline line_key ~addr single_flip));
    Test.make ~name:"correction/worst-case-Gmax"
      (Staged.stage (fun () ->
           Ptguard.Correction.correct Ptguard.Config.baseline line_key ~addr hopeless));
    Test.make ~name:"obs/counter-incr"
      (Staged.stage (fun () -> Ptg_obs.Registry.incr obs_counter));
    Test.make ~name:"engine/read-pte-verify-observed"
      (Staged.stage (fun () ->
           Ptguard.Engine.process_read observed_engine ~addr ~is_pte:true
             stored_pte_obs));
    Test.make ~name:"dram/timed-access"
      (Staged.stage (fun () ->
           incr dram_cursor;
           Ptg_dram.Dram.access dram ~now:!dram_cursor
             ~addr:(Int64.of_int (!dram_cursor * 8192))
             ~is_write:false));
    Test.make ~name:"sim/core-1K-instrs"
      (Staged.stage (fun () ->
           Ptg_cpu.Core.run timing_core ~instrs:1000 ~stream:workload_stream));
  ]

let run_micro () =
  print_endline "=== Micro-benchmarks (Bechamel, monotonic clock) ===";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if full then 1.0 else 0.25))
      ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"ptguard" micro_tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> Float.nan
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-40s %14.1f ns/op\n" name ns)
    (List.sort compare !rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table/figure regeneration                                           *)
(* ------------------------------------------------------------------ *)

let section title = Printf.printf "\n=== %s ===\n%!" title

let timed f =
  let t0 = Ptg_util.Clock.now_ns () in
  let r = f () in
  (Ptg_util.Clock.elapsed_s t0, r)

let clear_store dir =
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

(* [with_store f] runs [f] on a fresh temporary checkpoint store. *)
let with_store f =
  let dir = Filename.temp_file "ptg_bench_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      clear_store dir;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* Every gated section records its figures through [write_json]: one
   "key": value pair per line, in list order, after the section name and
   size mode. PTG_BENCH_JSON overrides the default BENCH_<section>.json
   path; bench/gate.exe checks the file against the committed baseline. *)
type value = Int of int | Float of int * float | Bool of bool | Str of string

let write_json section fields =
  let path =
    Option.value (Sys.getenv_opt "PTG_BENCH_JSON")
      ~default:(Printf.sprintf "BENCH_%s.json" section)
  in
  let line (k, v) =
    Printf.sprintf "  \"%s\": %s" k
      (match v with
      | Int n -> string_of_int n
      | Float (decimals, x) -> Printf.sprintf "%.*f" decimals x
      | Bool b -> string_of_bool b
      | Str s -> Printf.sprintf "\"%s\"" s)
  in
  let fields =
    ("benchmark", Str section) :: ("mode", Str (if full then "full" else "reduced")) :: fields
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" (List.map line fields)));
  Printf.printf "  wrote %s\n" path

(* The CLI's `all` list at the bench's size mode. *)
let run_experiments () =
  List.iter
    (fun (title, scenario) ->
      section title;
      print_string (Ptg_sim.Scenario.run_to_string scenario))
    (Ptg_sim.Scenario.paper ~reduced:(not full) ~seed:42L ~jobs)

(* ------------------------------------------------------------------ *)
(* Pool scaling: serial vs parallel wall clock                         *)
(* ------------------------------------------------------------------ *)

let run_scaling () =
  section
    (Printf.sprintf "Pool scaling: Figure 6 sweep, jobs 1 vs %d (of %d recommended)"
       (max jobs 4) (Ptg_util.Pool.default_jobs ()));
  let instrs = if full then 2_000_000 else 300_000 in
  let warmup = if full then 500_000 else 100_000 in
  let sweep j = timed (fun () -> Ptg_sim.Fig6.run ~jobs:j ~instrs ~warmup ()) in
  let parallel_jobs = max jobs 4 in
  let t_serial, r_serial = sweep 1 in
  let t_parallel, r_parallel = sweep parallel_jobs in
  let csv r =
    let path = Filename.temp_file "ptg_scaling" ".csv" in
    Ptg_sim.Fig6.to_csv r ~path;
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        In_channel.with_open_bin path In_channel.input_all)
  in
  Printf.printf
    "  jobs 1:  %6.2f s\n  jobs %d:  %6.2f s\n  speedup: %.2fx\n  CSV identical: %b\n"
    t_serial parallel_jobs t_parallel (t_serial /. t_parallel)
    (String.equal (csv r_serial) (csv r_parallel))

(* ------------------------------------------------------------------ *)
(* Figure 6 regression benchmark: BENCH_fig6.json                      *)
(* The same sweep runs with the obs sink off and on: "off" is the      *)
(* gated wall time, "on" bounds the full-instrumentation cost quoted   *)
(* in README.md, and the figure must come out identical either way.    *)
(* ------------------------------------------------------------------ *)

(* Single-job reduced Figure 6 sweep measured on this container before
   the allocation-free hot-path work (commit 9ec9bcf), the denominator
   of the "speedup_vs_pre_pr" field below. *)
let pre_pr_wall_time_s = 7.84

let run_fig6_json () =
  section "Figure 6 regression benchmark (BENCH_fig6.json)";
  let instrs = if full then 2_000_000 else 600_000 in
  let warmup = if full then 500_000 else 200_000 in
  (* Always single-job: the wall-time gate needs the serial path (this
     container has one hardware thread; domain fan-out only adds noise). *)
  let t_off, r_off =
    timed (fun () -> Ptg_sim.Fig6.run ~jobs:1 ~seed:42L ~instrs ~warmup ())
  in
  let sink = Ptg_obs.Sink.create () in
  let t_on, r_on =
    timed (fun () -> Ptg_sim.Fig6.run ~jobs:1 ~seed:42L ~instrs ~warmup ~obs:sink ())
  in
  let n_workloads = List.length r_off.Ptg_sim.Fig6.rows in
  (* Base and guarded runs both simulate warmup + timed instructions. *)
  let simulated = 2 * n_workloads * (instrs + warmup) in
  let instrs_per_sec = float_of_int simulated /. t_off in
  Printf.printf
    "  wall: %.2f s (obs on: %.2f s), %.0f simulated instrs/s\n\
    \  speedup vs pre-PR %.2f s: %.2fx\n"
    t_off t_on instrs_per_sec pre_pr_wall_time_s
    (pre_pr_wall_time_s /. t_off);
  write_json "fig6"
    [
      ("jobs", Int 1);
      ("instrs", Int instrs);
      ("warmup", Int warmup);
      ("workloads", Int n_workloads);
      ("wall_time_s", Float (3, t_off));
      ("wall_time_obs_s", Float (3, t_on));
      ("instrs_per_sec", Float (0, instrs_per_sec));
      ("amean_slowdown_pct", Float (4, r_off.Ptg_sim.Fig6.amean_slowdown_pct));
      ("obs_results_identical", Bool (r_off = r_on));
      ("pre_pr_wall_time_s", Float (2, pre_pr_wall_time_s));
      ("speedup_vs_pre_pr", Float (2, pre_pr_wall_time_s /. t_off));
    ]

(* ------------------------------------------------------------------ *)
(* MAC core: one cipher call with its tweak expanded per call, with a  *)
(* cached tweak schedule (what correction guesses pay), and whole MACs *)
(* through compute_with and compute. Both pairs must agree; check_all  *)
(* runs this section for those two checks.                             *)
(* ------------------------------------------------------------------ *)

let run_mac_bench () =
  section "MAC core: ns per cipher call and per 64-byte-line MAC";
  let reqs = 4096 in
  let passes = if full then 8 else 3 in
  let brng = Ptg_util.Rng.create 77L in
  let addrs = Array.init reqs (fun i -> Int64.of_int (0x4000 + (i * 64))) in
  let lines =
    Array.init reqs (fun _ ->
        Ptg_pte.Line.init (fun _ ->
            (* Masked-shape inputs: any int64s are valid MAC inputs. *)
            Ptg_util.Rng.next brng))
  in
  let ctx = Ptg_crypto.Mac.ctx () in
  let sc = Ptg_crypto.Qarma.scratch () in
  let sch = Ptg_crypto.Qarma.schedule key ~t_hi:1L ~t_lo:0x4000L in
  let per_req f =
    let t, () = timed (fun () -> for _ = 1 to passes do f () done) in
    1e9 *. t /. float_of_int (passes * reqs)
  in
  let ns_raw =
    per_req (fun () ->
        for i = 0 to reqs - 1 do
          Ptg_crypto.Qarma.encrypt_raw sc key ~t_hi:(Int64.of_int (i land 3))
            ~t_lo:addrs.(i) ~p_hi:(Ptg_pte.Line.get lines.(i) 1) ~p_lo:(Ptg_pte.Line.get lines.(i) 0)
        done)
  in
  let ns_sched =
    per_req (fun () ->
        for i = 0 to reqs - 1 do
          Ptg_crypto.Qarma.encrypt_scheduled sc sch ~p_hi:(Ptg_pte.Line.get lines.(i) 1)
            ~p_lo:(Ptg_pte.Line.get lines.(i) 0)
        done)
  in
  let scalar = Array.make reqs Ptg_crypto.Mac.zero in
  let ns_scalar =
    per_req (fun () ->
        for i = 0 to reqs - 1 do
          scalar.(i) <- Ptg_crypto.Mac.compute_with ctx key ~addr:addrs.(i) lines.(i)
        done)
  in
  let identical =
    Array.for_all2 Ptg_crypto.Mac.equal scalar
      (Array.map2 (fun addr line -> Ptg_crypto.Mac.compute key ~addr line) addrs lines)
  in
  (* The scheduled path must leave what a per-call expansion of the same
     tweak leaves. *)
  let sched_identical =
    Array.for_all
      (fun line ->
        let p_hi = Ptg_pte.Line.get line 1 and p_lo = Ptg_pte.Line.get line 0 in
        Ptg_crypto.Qarma.encrypt_scheduled sc sch ~p_hi ~p_lo;
        let hi = Ptg_crypto.Qarma.out_hi sc and lo = Ptg_crypto.Qarma.out_lo sc in
        Ptg_crypto.Qarma.encrypt_raw sc key ~t_hi:1L ~t_lo:0x4000L ~p_hi ~p_lo;
        Int64.equal hi (Ptg_crypto.Qarma.out_hi sc)
        && Int64.equal lo (Ptg_crypto.Qarma.out_lo sc))
      lines
  in
  Printf.printf
    "  encrypt_raw:       %8.1f ns/block (tweak expanded per call)\n\
    \  encrypt_scheduled: %8.1f ns/block (cached tweak schedule)\n\
    \  compute_with:      %8.1f ns/MAC (%d MACs, %d passes)\n\
    \  compute_with == compute: %b\n\
    \  encrypt_scheduled == encrypt_raw: %b\n"
    ns_raw ns_sched ns_scalar reqs passes identical sched_identical;
  if not identical then failwith "mac bench: compute_with diverges from compute";
  if not sched_identical then failwith "mac bench: encrypt_scheduled diverges from encrypt_raw"

(* ------------------------------------------------------------------ *)
(* Full-system regression benchmark: BENCH_fullsys.json                *)
(* The paths the fig6 gate never touches: real QARMA on every walk     *)
(* (fullsys co-simulation) and the multicore scheduler's               *)
(* engine-backed verification.                                         *)
(* ------------------------------------------------------------------ *)

let run_fullsys_json () =
  section "Full-system regression benchmark (BENCH_fullsys.json)";
  let instrs = if full then 60_000 else 30_000 in
  (* Machine construction alone: the median of several guarded
     [Fullsys.create] calls at the run's seed, each from a collected
     heap. Informational: no gate row bounds it. *)
  let builds = 9 in
  let construct_s =
    let ts =
      List.init builds (fun _ ->
          Gc.full_major ();
          fst (timed (fun () -> Ptg_sim.Fullsys.create ~seed:42L ())))
    in
    List.nth (List.sort compare ts) (builds / 2)
  in
  (* Guarded co-simulation under live Rowhammer: every TLB miss pays real
     MAC verification through the controller. *)
  let t_guarded, r_guarded =
    timed (fun () ->
        let t = Ptg_sim.Fullsys.create ~seed:42L () in
        Ptg_sim.Fullsys.run t ~instrs)
  in
  if r_guarded.Ptg_sim.Fullsys.wrong_translations <> 0 then
    failwith "fullsys bench: guarded run consumed a wrong translation";
  (* Multicore with engine-backed verification: PTE reads from all four
     cores verified by one shared engine. *)
  let mc_instrs = if full then 100_000 else 50_000 in
  let t_mc, r_mc =
    timed (fun () ->
        let spec = Option.get (Ptg_workloads.Workload.by_name "pr") in
        let engine = Ptguard.Engine.create ~rng:(Ptg_util.Rng.create 9L) () in
        let mc =
          Ptg_cpu.Multicore.create ~verify_engine:engine
            ~guard:Ptg_cpu.Guard_timing.unprotected ()
        in
        let streams =
          Array.init 4 (fun i ->
              Ptg_workloads.Workload.stream (Ptg_util.Rng.create (Int64.of_int i)) spec)
        in
        Ptg_cpu.Multicore.run mc ~instrs_per_core:mc_instrs ~streams)
  in
  if r_mc.Ptg_cpu.Multicore.mac_verify_failures <> 0 then
    failwith "fullsys bench: multicore verification failed on untampered PTEs";
  let macs = r_mc.Ptg_cpu.Multicore.macs_verified in
  Printf.printf
    "  construction: %.2f ms (median of %d guarded Fullsys.create at seed 42)\n\
    \  fullsys: %.2f s (%d walks, %d flips landed, 0 wrong translations)\n\
    \  multicore verify: %.2f s (%d MACs verified, %.0f MACs/s)\n"
    (1000. *. construct_s) builds t_guarded r_guarded.Ptg_sim.Fullsys.walks
    r_guarded.Ptg_sim.Fullsys.flips_landed
    t_mc macs
    (float_of_int macs /. t_mc);
  write_json "fullsys"
    [
      ("instrs", Int instrs);
      ("wall_time_s", Float (3, t_guarded +. t_mc));
      ("fullsys_wall_s", Float (3, t_guarded));
      ("construct_ms", Float (2, 1000. *. construct_s));
      ("fullsys_walks", Int r_guarded.Ptg_sim.Fullsys.walks);
      ("fullsys_flips_landed", Int r_guarded.Ptg_sim.Fullsys.flips_landed);
      ("fullsys_wrong_translations", Int r_guarded.Ptg_sim.Fullsys.wrong_translations);
      ("mc_wall_s", Float (3, t_mc));
      ("mc_instrs_per_core", Int mc_instrs);
      ("mc_macs_verified", Int macs);
      ("mc_verify_failures", Int r_mc.Ptg_cpu.Multicore.mac_verify_failures);
      ("mc_macs_per_sec", Float (0, float_of_int macs /. t_mc));
    ]

(* ------------------------------------------------------------------ *)
(* Warm-start regression benchmark: BENCH_snapshot.json                *)
(* The checkpoint/restore tier's whole value proposition in one        *)
(* number: re-running a finished fullsys budget against its snapshot   *)
(* store must be at least 5x faster than computing it cold, while the  *)
(* adopted result stays byte-identical.                                *)
(* ------------------------------------------------------------------ *)

let run_snapshot_json () =
  section "Warm-start regression benchmark (BENCH_snapshot.json)";
  let instrs = if full then 60_000 else 20_000 in
  let every = instrs / 10 in
  with_store @@ fun dir ->
  (* Three rounds of a cold run into an emptied store, then a warm start
     from the store it left; medians of the times and of the per-round
     speedups. A warm start takes about as long as machine construction,
     tens of milliseconds, so a round's two runs share the host's load. *)
  let rounds =
    List.init 3 (fun _ ->
        clear_store dir;
        let run () = Ptg_sim.Checkpoint.run_fullsys ~every ~dir ~seed:42L ~instrs () in
        let t_cold, cold = timed run in
        let t_warm, warm = timed run in
        if cold.Ptg_sim.Checkpoint.f_result <> warm.Ptg_sim.Checkpoint.f_result then
          failwith "snapshot bench: warm-started result diverged from the cold run";
        if warm.Ptg_sim.Checkpoint.f_resumed_from <> Some instrs then
          failwith "snapshot bench: warm run did not adopt the completed checkpoint";
        (t_cold, t_warm))
  in
  let median f = List.nth (List.sort compare (List.map f rounds)) 1 in
  let t_cold = median fst and t_warm = median snd in
  let speedup = median (fun (c, w) -> c /. w) in
  (* Both checked in every round above. *)
  let identical = true and resumed_from = instrs in
  let checkpoints = Array.length (Sys.readdir dir) in
  let store_bytes =
    Array.fold_left
      (fun a n -> a + (Unix.stat (Filename.concat dir n)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  Printf.printf
    "  cold: %.2f s (%d checkpoints, %d KiB store)\n\
    \  warm: %.3f s (adopted %d/%d instructions)\n\
    \  speedup: %.1fx, byte-identical: %b\n"
    t_cold checkpoints (store_bytes / 1024) t_warm resumed_from instrs speedup
    identical;
  write_json "snapshot"
    [
      ("instrs", Int instrs);
      ("every", Int every);
      ("wall_time_s", Float (3, t_cold +. t_warm));
      ("cold_wall_s", Float (3, t_cold));
      ("warm_wall_s", Float (3, t_warm));
      ("speedup", Float (2, speedup));
      ("warm_resumed_from", Int resumed_from);
      ("identical", Bool identical);
      ("checkpoints", Int checkpoints);
      ("store_bytes", Int store_bytes);
    ]

let p99 (r : Ptg_server.Client.report) =
  Option.fold ~none:"n/a" ~some:(Printf.sprintf "%.0f us") r.p99_us

(* ------------------------------------------------------------------ *)
(* Serving throughput: cold (computed) vs cache-hot served requests.   *)
(* The server, client and load generator are the real ptg_server       *)
(* stack over a real loopback socket; only the scenario is small.      *)
(* ------------------------------------------------------------------ *)

(* One cache hit's codec work, in process: the client encodes the run
   frame, the server decodes it and hashes the scenario, encodes the hit
   reply, and the client decodes that. The frames are serve-mix's: one-
   workload reduced Figure 6 rows, whose replies carry the rendered row.
   Each hit is timed on its own, and a round's figure is the median of
   its hits. Other tenants of a shared host slow this code by up to 1.7x
   in spells of seconds, so the figure is the quietest of a few rounds:
   the codec's own cost, not the host's. *)
let hit_codec_samples = 20_480
let hit_codec_rounds = 5

let hit_codec_us () =
  let module P = Ptg_server.Protocol in
  let workloads = Ptg_workloads.Workload.names in
  let scenarios =
    Array.init 128 (fun i ->
        Ptg_sim.Scenario.make ~seed:(Int64.of_int (42_000 + i)) ~reduced:true
          ~workloads:[ List.nth workloads (i mod List.length workloads) ]
          ~instrs:2000 ~warmup:500 Ptg_sim.Scenario.Fig6)
  in
  let results =
    Array.init (List.length workloads) (fun i -> Ptg_sim.Scenario.run_to_string scenarios.(i))
  in
  let hit i =
    let sc = scenarios.(i land 127) in
    match P.decode_request (P.encode_request ~id:"r" (P.Run sc)) with
    | Ok ({ P.id; v }, P.Run s) -> (
        let hash = Ptg_util.Bits.to_hex (Ptg_sim.Scenario.hash64 s) in
        let result = results.((i land 127) mod Array.length results) in
        match P.decode_response (P.encode_response ?id ~v (P.Result { cache = P.Hit; hash; result })) with
        | Ok (_, P.Result r) when String.equal r.result result -> ()
        | _ -> failwith "serve bench: hit reply did not decode")
    | _ -> failwith "serve bench: run frame did not decode"
  in
  for i = 0 to 1023 do hit i done;
  let round () =
    let samples =
      Array.init hit_codec_samples (fun i ->
          let t0 = Ptg_util.Clock.now_ns () in
          hit i;
          Ptg_util.Clock.elapsed_us t0)
    in
    Array.sort compare samples;
    samples.(hit_codec_samples / 2)
  in
  List.fold_left Float.min infinity (List.init hit_codec_rounds (fun _ -> round ()))

let run_serve () =
  section "Serving: cold vs cache-hot requests/sec (ptg_server over TCP)";
  let scenario =
    Ptg_sim.Scenario.make ~reduced:true
      ~processes:(if full then 623 else 60)
      Ptg_sim.Scenario.Fig8
  in
  let config =
    {
      (Ptg_server.Server.default_config (Ptg_server.Server.Tcp 0)) with
      Ptg_server.Server.workers = jobs;
    }
  in
  (* Before the server starts: its threads would share the runtime. *)
  let codec_us = hit_codec_us () in
  let server = Ptg_server.Server.start config in
  Fun.protect
    ~finally:(fun () -> Ptg_server.Server.stop server)
    (fun () ->
      let addr = Ptg_server.Server.listen_addr server in
      (* Cold: one request, nothing cached — response time is dominated
         by the experiment itself. *)
      let cold_s, () =
        timed (fun () ->
            let client = Ptg_server.Client.connect addr in
            (match Ptg_server.Client.run client scenario with
            | Ok (Ptg_server.Protocol.Result { cache = Ptg_server.Protocol.Miss; _ })
              -> ()
            | _ -> failwith "serve bench: cold request did not compute");
            Ptg_server.Client.close client)
      in
      (* Hot: a closed-loop load against the now-warm cache. *)
      let report =
        Ptg_server.Client.loadgen ~addr ~clients:4
          ~requests_per_client:(if full then 500 else 200)
          ~scenarios:[ scenario ] ()
      in
      let cold_rps = 1.0 /. cold_s in
      let hot_rps = report.Ptg_server.Client.throughput_rps in
      Printf.printf
        "  cold:   %8.2f req/s (one computed request: %.3f s)\n\
        \  hot:    %8.2f req/s (%d requests, %d clients, p99 %s)\n\
        \  ratio:  %8.0fx\n\
        \  hits %d / misses %d / shed %d / errors %d\n\
        \  codec:  %8.2f us per hit (quietest of %d medians of %d, in process)\n"
        cold_rps cold_s hot_rps report.Ptg_server.Client.ok
        report.Ptg_server.Client.clients (p99 report) (hot_rps /. cold_rps)
        report.Ptg_server.Client.hits report.Ptg_server.Client.misses
        report.Ptg_server.Client.overloaded report.Ptg_server.Client.errors codec_us
        hit_codec_rounds hit_codec_samples;
      write_json "serve"
        [
          ("cold_s", Float (3, cold_s));
          ("hot_rps", Float (2, hot_rps));
          ("ratio", Float (0, hot_rps /. cold_rps));
          ("clients", Int report.Ptg_server.Client.clients);
          ("ok", Int report.Ptg_server.Client.ok);
          ("hits", Int report.Ptg_server.Client.hits);
          ("misses", Int report.Ptg_server.Client.misses);
          ("shed", Int report.Ptg_server.Client.overloaded);
          ("errors", Int report.Ptg_server.Client.errors);
          ("hit_codec_us", Float (2, codec_us));
        ])

(* ------------------------------------------------------------------ *)
(* Sharded serving: 1 vs 2 vs 4 shards behind the consistent-hash      *)
(* router (BENCH_serve_sharded.json).                                  *)
(*                                                                     *)
(* This container has one hardware thread, so the scaling axis is      *)
(* aggregate cache capacity, not CPU: the working set holds [distinct] *)
(* scenarios cycled round-robin, and each shard's LRU holds fewer than *)
(* that. One shard therefore thrashes — a cyclic scan over more keys   *)
(* than the cache holds hits never — and recomputes every request,     *)
(* while two or more shards partition the keyspace until each slice    *)
(* fits its shard's cache and requests are served cache-hot. The       *)
(* router's own LRU is kept far below the working set so it cannot     *)
(* mask the difference.                                                *)
(* ------------------------------------------------------------------ *)

(* Cold routed streams: [cold_runs] never-seen two-workload fig6 rows
   of 2000 instructions, sent back to back as v2 streams on one
   connection. Each shard writes a progress frame between its two rows
   and the router re-emits it, so both hops carry a small frame ahead of
   the result; a socket left with Nagle's algorithm on makes the result
   wait out the peer's delayed ACK (about 40 ms) on most runs. *)
let cold_runs = 64

let cold_routed_p50_ms addr =
  let workloads = Array.of_list Ptg_workloads.Workload.names in
  let c = Ptg_server.Client.connect addr in
  let latency_ms =
    Array.init cold_runs (fun i ->
        let scenario =
          Ptg_sim.Scenario.make
            ~seed:(Int64.of_int (90_000 + i))
            ~reduced:true
            ~workloads:
              (List.init 2 (fun k -> workloads.((2 * i + k) mod Array.length workloads)))
            ~instrs:2000 ~warmup:500 Ptg_sim.Scenario.Fig6
        in
        let t0 = Ptg_util.Clock.now_ns () in
        (match Ptg_server.Client.run_stream c scenario with
        | Ok (Ptg_server.Protocol.Result { cache = Ptg_server.Protocol.Miss; _ }) -> ()
        | Ok _ -> failwith "serve_sharded bench: cold stream did not compute"
        | Error e -> failwith ("serve_sharded bench: cold stream: " ^ e));
        Ptg_util.Clock.elapsed_us t0 /. 1e3)
  in
  Ptg_server.Client.close c;
  Ptg_util.Stats.percentile latency_ms 50.

let run_serve_sharded () =
  section "Sharded serving: throughput vs shard count (router over TCP)";
  let distinct = 64 in
  let shard_cache = 56 in
  let router_cache = 8 in
  let clients = 4 in
  let requests_per_client = if full then 400 else 150 in
  let scenarios =
    List.init distinct (fun i ->
        Ptg_sim.Scenario.make ~reduced:true
          ~seed:(Int64.of_int (1000 + i))
          ~processes:(if full then 60 else 24)
          Ptg_sim.Scenario.Fig8)
  in
  let topology n =
    let shards =
      List.init n (fun _ ->
          Ptg_server.Server.start
            {
              (Ptg_server.Server.default_config (Ptg_server.Server.Tcp 0)) with
              Ptg_server.Server.workers = 1;
              high_water = 64;
              cache_capacity = shard_cache;
            })
    in
    let router =
      Ptg_server.Router.start
        {
          (Ptg_server.Router.default_config (Ptg_server.Server.Tcp 0)
             ~shards:(List.map Ptg_server.Server.listen_addr shards)) with
          Ptg_server.Router.cache_capacity = router_cache;
          health_interval_s = 0.2;
        }
    in
    Fun.protect
      ~finally:(fun () ->
        Ptg_server.Router.stop router;
        List.iter Ptg_server.Server.stop shards)
      (fun () ->
        let addr = Ptg_server.Router.listen_addr router in
        let cold_p50 = if n = 2 then Some (cold_routed_p50_ms addr) else None in
        (* Warm pass: every scenario once, so the steady state being
           timed is the topology's, not the cold start's. With one
           thrashing shard the pass is recomputed anyway — that is the
           steady state. *)
        let warm = Ptg_server.Client.connect addr in
        List.iter
          (fun s ->
            match Ptg_server.Client.run warm s with
            | Ok _ -> ()
            | Error e -> failwith ("serve_sharded bench: warm pass: " ^ e))
          scenarios;
        Ptg_server.Client.close warm;
        let report =
          Ptg_server.Client.loadgen ~addr ~clients ~requests_per_client
            ~scenarios ()
        in
        let lost =
          report.Ptg_server.Client.requests - report.Ptg_server.Client.ok
          - report.Ptg_server.Client.overloaded
          - report.Ptg_server.Client.timeouts - report.Ptg_server.Client.errors
        in
        Printf.printf
          "  %d shard%s: %8.2f req/s (ok %d, errors %d, lost %d, p99 %s)\n%!"
          n
          (if n = 1 then " " else "s")
          report.Ptg_server.Client.throughput_rps report.Ptg_server.Client.ok
          report.Ptg_server.Client.errors lost (p99 report);
        (report.Ptg_server.Client.throughput_rps, report.Ptg_server.Client.ok,
         lost, cold_p50))
  in
  let rps1, ok1, lost1, _ = topology 1 in
  let rps2, ok2, lost2, cold_p50 = topology 2 in
  let rps4, ok4, lost4, _ = topology 4 in
  let cold_p50 = Option.get cold_p50 in
  Printf.printf "  speedup: %.2fx at 2 shards, %.2fx at 4\n" (rps2 /. rps1)
    (rps4 /. rps1);
  Printf.printf "  cold routed stream p50 (2 shards, %d runs): %.2f ms\n" cold_runs cold_p50;
  write_json "serve_sharded"
    [
      ("distinct_scenarios", Int distinct);
      ("shard_cache_capacity", Int shard_cache);
      ("router_cache_capacity", Int router_cache);
      ("clients", Int clients);
      ("requests_per_client", Int requests_per_client);
      ("rps_1_shard", Float (2, rps1));
      ("rps_2_shards", Float (2, rps2));
      ("rps_4_shards", Float (2, rps4));
      ("speedup_2_shards", Float (2, rps2 /. rps1));
      ("speedup_4_shards", Float (2, rps4 /. rps1));
      ("ok_1_shard", Int ok1);
      ("ok_2_shards", Int ok2);
      ("ok_4_shards", Int ok4);
      ("lost_1_shard", Int lost1);
      ("lost_2_shards", Int lost2);
      ("lost_4_shards", Int lost4);
      ("cold_routed_p50_ms", Float (2, cold_p50));
    ]

(* ------------------------------------------------------------------ *)
(* Deadline-sliced serving: BENCH_slices.json.                         *)
(*                                                                     *)
(* Two claims, both through the real ptg_server stack or the real      *)
(* chunked drivers:                                                    *)
(*                                                                     *)
(* 1. Slicing tax — a served fullsys run forced through several        *)
(*    compute windows (checkpoint, requeue, resume per window) must    *)
(*    land within a few percent of the same request served in one      *)
(*    uninterrupted window, and byte-identical to it. Each extra       *)
(*    slice re-pays machine construction and the run pays its          *)
(*    checkpoint saves, so the tax ratio is roughly that fixed cost    *)
(*    over the run. The run is long enough to keep the expected tax    *)
(*    near 5% against the 10% gate, and the deadline is sized from the *)
(*    measured uninterrupted run (2.5 windows, so two slices).         *)
(*                                                                     *)
(* 2. Ejection-resume speedup — a "victim" run stopped at 80% of its   *)
(*    budget (the chunked driver's should_stop, exactly what a         *)
(*    deadline yield or a SIGKILL between saves leaves behind) must    *)
(*    be at least 2x cheaper to finish from its deepest checkpoint     *)
(*    than to recompute cold, with an identical final result.          *)
(* ------------------------------------------------------------------ *)

let run_slices_json () =
  section "Deadline-sliced serving benchmark (BENCH_slices.json)";
  (* Part 1: slicing tax over the served path. *)
  let instrs = if full then 2_000_000 else 1_000_000 in
  let scenario =
    Ptg_sim.Scenario.make ~seed:97L ~instrs Ptg_sim.Scenario.Fullsys
  in
  let serve config =
    let server = Ptg_server.Server.start config in
    Fun.protect
      ~finally:(fun () -> Ptg_server.Server.stop server)
      (fun () ->
        let client =
          Ptg_server.Client.connect (Ptg_server.Server.listen_addr server)
        in
        let t, reply =
          timed (fun () -> Ptg_server.Client.run client scenario)
        in
        Ptg_server.Client.close client;
        match reply with
        | Ok (Ptg_server.Protocol.Result { result; _ }) ->
            let sliced =
              match
                List.assoc_opt "sliced" (Ptg_server.Server.stats server)
              with
              | Some v -> int_of_float v
              | None -> failwith "slices bench: server has no sliced stat"
            in
            (t, result, sliced)
        | Ok Ptg_server.Protocol.Timeout ->
            failwith "slices bench: served run timed out"
        | Ok _ -> failwith "slices bench: unexpected terminal frame"
        | Error e -> failwith ("slices bench: " ^ e))
  in
  let base =
    {
      (Ptg_server.Server.default_config (Ptg_server.Server.Tcp 0)) with
      Ptg_server.Server.workers = 1;
    }
  in
  let t_plain, plain_bytes, plain_sliced = serve base in
  if plain_sliced <> 0 then
    failwith "slices bench: uninterrupted run was sliced";
  let deadline_s = t_plain /. 2.5 in
  let t_sliced, sliced_bytes, slices = with_store (fun dir ->
      serve
        {
          base with
          Ptg_server.Server.snapshot_dir = Some dir;
          snapshot_every = Some (instrs / 15);
          deadline_s;
          slices = 50;
        })
  in
  if slices < 1 then
    failwith "slices bench: the deadline never sliced the run";
  let identical = String.equal plain_bytes sliced_bytes in
  if not identical then
    failwith "slices bench: sliced bytes diverge from the uninterrupted run";
  let overhead_pct = 100.0 *. ((t_sliced -. t_plain) /. t_plain) in
  (* Part 2: finishing from a victim's deepest checkpoint vs cold. *)
  let r_instrs = if full then 80_000 else 40_000 in
  let every = r_instrs / 10 in
  let victim_stop_at = 8 * every in
  let t_cold, t_resume, adopted, resume_identical =
    with_store (fun dir ->
        let t_cold, cold =
          with_store (fun cold_dir ->
              timed (fun () ->
                  Ptg_sim.Checkpoint.run_fullsys ~every ~dir:cold_dir ~seed:42L
                    ~instrs:r_instrs ()))
        in
        let stop = ref false in
        let victim =
          Ptg_sim.Checkpoint.run_fullsys ~every ~dir ~seed:42L ~instrs:r_instrs
            ~should_stop:(fun () -> !stop)
            ~progress:(fun ~done_count ~total:_ ->
              if done_count >= victim_stop_at then stop := true)
            ()
        in
        if victim.Ptg_sim.Checkpoint.f_completed then
          failwith "slices bench: victim ran to completion before the stop";
        let t_resume, resumed =
          timed (fun () ->
              Ptg_sim.Checkpoint.run_fullsys ~every ~dir ~seed:42L
                ~instrs:r_instrs ())
        in
        ( t_cold,
          t_resume,
          Option.value resumed.Ptg_sim.Checkpoint.f_resumed_from ~default:0,
          resumed.Ptg_sim.Checkpoint.f_result = cold.Ptg_sim.Checkpoint.f_result
        ))
  in
  if adopted < victim_stop_at then
    failwith "slices bench: resume did not adopt the victim's deepest checkpoint";
  if not resume_identical then
    failwith "slices bench: resumed result diverged from the cold run";
  let resume_speedup = t_cold /. t_resume in
  Printf.printf
    "  uninterrupted: %.2f s; sliced (%d yields): %.2f s (%+.1f%% tax), \
     byte-identical: %b\n\
    \  cold: %.2f s; resumed from %d/%d: %.2f s (%.1fx), identical: %b\n"
    t_plain slices t_sliced overhead_pct identical t_cold adopted r_instrs
    t_resume resume_speedup resume_identical;
  write_json "slices"
    [
      ("instrs", Int instrs);
      ("deadline_s", Float (3, deadline_s));
      ("wall_time_s", Float (3, t_plain +. t_sliced +. t_cold +. t_resume));
      ("plain_wall_s", Float (3, t_plain));
      ("sliced_wall_s", Float (3, t_sliced));
      ("slices", Int slices);
      ("overhead_pct", Float (2, overhead_pct));
      ("identical", Bool identical);
      ("resume_instrs", Int r_instrs);
      ("victim_stopped_at", Int victim_stop_at);
      ("cold_wall_s", Float (3, t_cold));
      ("resume_wall_s", Float (3, t_resume));
      ("resume_adopted_from", Int adopted);
      ("resume_identical", Bool resume_identical);
      ("resume_speedup", Float (2, resume_speedup));
    ]

let () =
  Printf.printf "PT-Guard bench harness (%s sizes, %d worker domains)\n\n%!"
    (if full then "full" else "reduced; set PTG_BENCH_FULL=1 for paper-scale")
    jobs;
  (* PTG_BENCH_ONLY=<section> runs one section; see [sections]. *)
  let sections =
    [
      ("micro", run_micro);
      ("experiments", run_experiments);
      ("scaling", run_scaling);
      ("fig6", run_fig6_json);
      ("batch", run_mac_bench);
      ("fullsys", run_fullsys_json);
      ("snapshot", run_snapshot_json);
      ("slices", run_slices_json);
      ("serve", run_serve);
      ("serve_sharded", run_serve_sharded);
    ]
  in
  match Sys.getenv_opt "PTG_BENCH_ONLY" with
  | Some name -> (
      match List.assoc_opt name sections with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown PTG_BENCH_ONLY section: %s\nvalid sections: %s\n"
            name
            (String.concat " " (List.map fst sections));
          exit 2)
  | None -> List.iter (fun (_, run) -> run ()) sections
