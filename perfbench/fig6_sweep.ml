(* fig6-sweep: the reduced Figure 6 sweep on one job. Every one of the
   25 synthetic workloads runs unprotected and under Baseline PT-Guard
   on the calibrated timing model (ptg_cpu caches/TLB/walker, ptg_workloads
   streams, Dram.access_fast timing). No QARMA, no correction and no
   serving code runs here: this is the bypass workload for every crypto,
   engine, correction or server change. *)

open Ptg_util
open Ptg_cpu
module Workload = Ptg_workloads.Workload
module Fig6 = Ptg_sim.Fig6

let instrs = 600_000
let warmup = 200_000
let specs = Workload.all
let config = Ptguard.Config.baseline

(* Both halves of every row, warm-up included: all of it is simulated. *)
let sim_instrs = 2 * (warmup + instrs) * List.length specs
let setup_repeats = 7

let sweep seed = Fig6.run ~jobs:1 ~instrs ~warmup ~seed ~config ()

(* The same sweep row by row, as the checkpoint driver's row batches run
   it, with a calibration probe before the first row and after each row
   (see Calib). Returns the result, the sweep's time and that time at
   the reference host speed. *)
let scaled_sweep seed =
  let before = ref (Calib.probe ()) and raw = ref 0. and scaled = ref 0. in
  let rows =
    List.map
      (fun spec ->
        let row, dt = Measure.time (fun () -> Fig6.run_rows ~jobs:1 ~instrs ~warmup ~seed ~config [ spec ]) in
        let after = Calib.probe () in
        raw := !raw +. dt;
        scaled := !scaled +. Calib.scale ~before:!before ~after dt;
        before := after;
        row)
      specs
  in
  (Fig6.of_rows (List.concat rows), !raw, !scaled)

let row_key (r : Fig6.row) =
  Printf.sprintf "%s %h %h %h %h %d %d" r.workload r.mpki r.base_ipc r.norm_ipc
    r.slowdown_pct r.pte_dram_reads r.dram_reads

(* Exact over every row field (floats as hex literals), so a reference
   match means bit-identical rows. *)
let digest (r : Fig6.result) =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map row_key r.rows)))

let amean (r : Fig6.result) = Printf.sprintf "%.4f" r.amean_slowdown_pct

let reference_lines seed =
  let r = sweep seed in
  [ Printf.sprintf "%Ld %s %s" seed (amean r) (digest r) ]

let reference seed = Refs.find (Refs.load "fig6.txt") [ Int64.to_string seed ]

(* Against the recorded reference when the seed has one, else against
   the run's first sweep (the same inputs must give the same rows). *)
let check ~seed ~reference ~first r =
  let got = [ amean r; digest r ] in
  match (reference, first) with
  | Some want, _ | None, Some want ->
      if got = want then Measure.Passed
      else
        Measure.Mismatch
          (Printf.sprintf "seed %Ld: amean/digest %s, expected %s" seed
             (String.concat " " got) (String.concat " " want))
  | None, None -> Measure.Passed

(* What each row builds before it simulates: the workload's stream, an
   unprotected core and a guarded core. *)
let build_machines seed =
  List.iter
    (fun spec ->
      let (_ : unit -> Core.op) = Sys.opaque_identity (Workload.stream (Rng.create seed) spec) in
      ignore (Sys.opaque_identity (Core.create ~guard:Guard_timing.unprotected ()));
      let guard = Guard_timing.of_config config ~rng:(Rng.create (Int64.add seed 1L)) in
      ignore (Sys.opaque_identity (Core.create ~guard ())))
    specs

(* Each build starts from a collected heap, as each sweep does, and
   sits between two calibration probes. Returns the median build time
   and the median at the reference host speed. *)
let setup_s seed =
  let builds =
    List.init setup_repeats (fun _ ->
        Gc.full_major ();
        let before = Calib.probe () in
        let (), dt = Measure.time (fun () -> build_machines seed) in
        (dt, Calib.scale ~before ~after:(Calib.probe ()) dt))
  in
  (Measure.median (List.map fst builds), Measure.median (List.map snd builds))

let reference_note seed reference =
  match reference with
  | Some _ -> Printf.sprintf "seed %Ld checked against the recorded reference" seed
  | None -> Printf.sprintf "seed %Ld has no recorded reference: checked sweep-to-sweep identity" seed

let run ~seed ~seconds =
  let raw_setup, setup = setup_s seed in
  let reference = reference seed in
  let tally = Measure.tally () in
  let first = ref None and lat = ref [] and raw_lat = ref [] and last = ref None in
  let t0 = Clock.now_ns () in
  while !lat = [] || Clock.elapsed_s t0 < seconds do
    Gc.full_major ();
    let r, raw, dt = scaled_sweep seed in
    lat := dt :: !lat;
    raw_lat := raw :: !raw_lat;
    Measure.record tally (check ~seed ~reference ~first:!first r);
    if !first = None then first := Some [ amean r; digest r ];
    last := Some r
  done;
  let sweeps = List.length !lat in
  {
    Measure.tally;
    metrics =
      [
        ("setup_s", setup);
        ("work_per_s", float_of_int sim_instrs /. Measure.median !lat);
        ("request_p50_ms", 1000. *. Measure.median !lat);
        ("peak_rss_mb", Measure.peak_rss_mb (Unix.getpid ()));
      ];
    notes =
      [
        Printf.sprintf "fig6-sweep: %d sweeps of %d simulated instructions; amean slowdown %s%%"
          sweeps sim_instrs
          (match !last with Some r -> amean r | None -> "n/a");
        Printf.sprintf "unscaled: median set-up %.4f s, median sweep %.3f s; calibration reference %.5f s"
          raw_setup (Measure.median !raw_lat) Calib.reference_s;
        reference_note seed reference;
      ];
  }

(* Dram.access_fast cost per access on a synthetic address stream whose
   row-hit share matches the sweep's: the timing model keeps its DRAM
   device private, so the sweep's own addresses cannot be captured. *)
let dram_access_s ~seed ~row_hit_ratio =
  let n = 200_000 in
  let rng = Rng.create seed in
  let bytes = Int64.of_int (4 * 1024 * 1024 * 1024) in
  let addrs = Array.make n 0L in
  for i = 1 to n - 1 do
    addrs.(i) <-
      (if Rng.bernoulli rng row_hit_ratio then addrs.(i - 1)
       else Int64.mul 64L (Rng.int64_bounded rng (Int64.div bytes 64L)))
  done;
  let dram = Ptg_dram.Dram.create () in
  let (), dt =
    Measure.time (fun () ->
        Array.iteri
          (fun i addr -> ignore (Ptg_dram.Dram.access_fast dram ~now:(i * 40) ~addr ~is_write:false))
          addrs)
  in
  dt /. float_of_int n

let traced ~seed =
  let tally = Measure.tally () in
  let reference = reference seed in
  let setup, _ = setup_s seed in
  let plain, wall = Measure.time (fun () -> sweep seed) in
  Measure.record tally (check ~seed ~reference ~first:None plain);
  (* The traced sweep rebuilds each row from the public pieces Fig6 uses,
     with observation sinks on both halves and the streams counted. *)
  let sink = Ptg_obs.Sink.create () in
  let ops = ref 0 in
  let half ?obs ~guard spec =
    let next = Workload.stream (Rng.create seed) spec in
    let stream () = incr ops; next () in
    let core = Core.create ?obs ~guard () in
    ignore (Core.run core ~instrs:warmup ~stream);
    Core.run core ~instrs ~stream
  in
  let halves, traced_wall =
    Measure.time (fun () ->
        List.map
          (fun spec ->
            let base = half ~obs:sink ~guard:Guard_timing.unprotected spec in
            let guard =
              Guard_timing.of_config config ~obs:sink ~rng:(Rng.create (Int64.add seed 1L))
            in
            (base, half ~obs:sink ~guard spec))
          specs)
  in
  List.iter2
    (fun (row : Fig6.row) ((base : Core.result), (g : Core.result)) ->
      if base.ipc <> row.base_ipc || g.ipc /. base.ipc <> row.norm_ipc then
        Measure.record tally
          (Measure.Mismatch (Printf.sprintf "traced %s row differs from Fig6.run" row.workload)))
    plain.rows halves;
  (* Replays: each stream is drawn once with its ops dropped, which times
     the generator alone, then drawn again into arrays that feed fresh
     cores, which times the core (caches, TLB, walker, DRAM and guard
     timing) without the generator. *)
  let gen_s = ref 0. and core_s = ref 0. and replayed = ref 0 in
  List.iter2
    (fun spec (row : Fig6.row) ->
      let n = warmup + instrs in
      let next = Workload.stream (Rng.create seed) spec in
      let (), dt = Measure.time (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (next ())) done) in
      gen_s := !gen_s +. dt;
      (* Unboxed, sequential storage: replaying boxed ops scattered over
         the major heap would charge the core for cache misses the live
         stream never causes. *)
      let next = Workload.stream (Rng.create seed) spec in
      let kinds = Bytes.create n and addrs = Array.make n 0 in
      for i = 0 to n - 1 do
        match next () with
        | Core.Nonmem -> Bytes.set kinds i 'n'
        | Core.Load a -> Bytes.set kinds i 'l'; addrs.(i) <- Int64.to_int a
        | Core.Store a -> Bytes.set kinds i 's'; addrs.(i) <- Int64.to_int a
      done;
      let replay guard =
        let i = ref 0 in
        let stream () =
          let k = !i in
          incr i;
          match Bytes.get kinds k with
          | 'n' -> Core.Nonmem
          | 'l' -> Core.Load (Int64.of_int addrs.(k))
          | _ -> Core.Store (Int64.of_int addrs.(k))
        in
        let core = Core.create ~guard () in
        let r, dt =
          Measure.time (fun () ->
              ignore (Core.run core ~instrs:warmup ~stream);
              Core.run core ~instrs ~stream)
        in
        core_s := !core_s +. dt;
        replayed := !replayed + warmup + instrs;
        r
      in
      let base = replay Guard_timing.unprotected in
      let g = replay (Guard_timing.of_config config ~rng:(Rng.create (Int64.add seed 1L))) in
      if base.Core.ipc <> row.base_ipc || g.Core.ipc /. base.Core.ipc <> row.norm_ipc then
        Measure.record tally
          (Measure.Mismatch (Printf.sprintf "replayed %s stream differs from Fig6.run" row.workload)))
    specs plain.rows;
  let op_s = !gen_s /. float_of_int (!replayed / 2) in
  let instr_s = !core_s /. float_of_int !replayed in
  let snap = Ptg_obs.Sink.metrics sink in
  let c = Measure.counter snap in
  let cache level what = c (Printf.sprintf "cache_%s{cache=\"%s\"}" what level) in
  let miss_rate level = Measure.ratio (cache level "misses") (cache level "accesses") in
  let dram_accesses = c "dram_row_hits" +. c "dram_row_conflicts" +. c "dram_row_closed" in
  let row_hit_ratio = Measure.ratio (c "dram_row_hits") dram_accesses in
  let access_s = dram_access_s ~seed ~row_hit_ratio in
  let layers =
    [
      { Measure.name = "workloads"; calls = float_of_int !ops; cost_s = op_s };
      { name = "cpu"; calls = float_of_int sim_instrs; cost_s = instr_s };
      { name = "construction"; calls = 1.; cost_s = setup };
    ]
  in
  let dram = { Measure.name = "dram"; calls = dram_accesses; cost_s = access_s } in
  {
    Measure.tally;
    metrics =
      [
        ("cpu.core_ns_per_instr", 1e9 *. instr_s);
        ("workloads.op_ns", 1e9 *. op_s);
        ("cpu.l1_miss_rate", miss_rate "l1");
        ("cpu.l2_miss_rate", miss_rate "l2");
        ("cpu.llc_miss_rate", miss_rate "l3");
        ("cpu.llc_misses", cache "l3" "misses");
        ("cpu.tlb_miss_rate", Measure.ratio (c "tlb_misses") (c "tlb_hits" +. c "tlb_misses"));
        ("cpu.tlb_misses", c "tlb_misses");
        ("cpu.walks", c "core_walks");
        ("dram.accesses", dram_accesses);
        ("dram.activations", c "dram_activations");
        ("dram.access_ns", 1e9 *. access_s);
        ("dram.row_hit_ratio", row_hit_ratio);
        ("dram.share", Measure.share ~wall dram);
        ("layers.unattributed_share", Measure.unattributed_share ~wall layers);
        ("trace.overhead_pct", 100. *. ((traced_wall /. wall) -. 1.));
      ];
    notes =
      [
        Printf.sprintf "fig6-sweep traced: untraced sweep %.3f s, traced sweep %.3f s" wall traced_wall;
        Printf.sprintf "layer shares: %s (dram, nested in cpu: %.3f)"
          (String.concat ", "
             (List.map (fun (l : Measure.layer) -> Printf.sprintf "%s %.3f" l.name (Measure.share ~wall l)) layers))
          (Measure.share ~wall dram);
        reference_note seed reference;
      ];
  }
