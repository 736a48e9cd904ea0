(* fullsys-attack: guarded full-system co-simulation under the default
   live double-sided attack, run the way served fullsys requests,
   --checkpoint-dir and deadline slicing run it: through
   Checkpoint.run_fullsys with a warm-start store and a fixed checkpoint
   cadence. Exercises the PT-Guard engine (MAC verify and correction),
   QARMA MACs, the page-table walker, the functional DRAM with the
   disturbance fault model, and the snapshot codec.

   One round is [machines] independent machines, each seeded from the
   workload seed. Host time per instruction varies by about a quarter
   between single machines (how many flips land where), and about one
   machine in a thousand falls into a re-fault storm that costs fifteen
   times a normal one, so a run holds many machines and combines them.
   Timings are scaled to a reference host speed by calibration probes
   run between the timed intervals (see Calib). *)

open Ptg_util
module Fullsys = Ptg_sim.Fullsys
module Checkpoint = Ptg_sim.Checkpoint
module Memctrl = Ptg_memctrl.Memctrl
module Engine = Ptguard.Engine
module Dram = Ptg_dram.Dram

let instrs = 10_000
let every = 2_000
let machines = 24
let config = Fullsys.default_config
let bursts_per_machine = instrs / config.Fullsys.hammer_period
let machine_seed seed k = Int64.add (Int64.mul seed 1000L) (Int64.of_int k)

(* Scratch store for checkpoints, inside the working directory. *)
let store () =
  let root = "_perfbench_tmp" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "fullsys-%d" (Unix.getpid ())) in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let clear dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let remove_store dir =
  clear dir;
  if Sys.file_exists dir then Unix.rmdir dir;
  (try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())

let result_fields (r : Fullsys.result) =
  List.map string_of_int
    [ r.cycles; r.walks; r.walk_corrections; r.walk_exceptions; r.refaults; r.flips_landed ]

let references () = Refs.load "fullsys.txt"

let reference refs seed k = Refs.find refs [ Int64.to_string seed; string_of_int k ]

(* Zero wrong translations always; the simulated result must equal the
   recorded reference when there is one, else the same machine's result
   from an earlier round of this run. *)
let check ~seed ~k ~want (r : Fullsys.result) =
  let got = result_fields r in
  if r.wrong_translations <> 0 then
    Measure.Mismatch
      (Printf.sprintf "seed %Ld machine %d: %d wrong translations" seed k r.wrong_translations)
  else
    match want with
    | Some want when want <> got ->
        Measure.Mismatch
          (Printf.sprintf "seed %Ld machine %d: result %s, expected %s" seed k
             (String.concat " " got) (String.concat " " want))
    | _ -> Measure.Passed

type timed = {
  result : Fullsys.result;
  completed : bool;
  setup_s : float;  (** run_fullsys call to its first stop poll: machine construction *)
  chunks_s : float list;  (** each chunk with its checkpoint, in order *)
  run_s : float;  (** the sum of [chunks_s] *)
  probes_s : float list;  (** calibration probes: before construction, then after it and each chunk *)
}

(* Each machine starts from a collected heap, so the peak resident set
   is one machine's and not an accident of collector timing. The stop
   poll marks the end of construction and each progress report the end
   of a chunk and its checkpoint; a calibration probe runs at each mark,
   outside the timed intervals. *)
let run_machine ~dir seed =
  clear dir;
  Gc.full_major ();
  let probes = ref [ Calib.probe () ] in
  let intervals = ref [] in
  let start = ref (Clock.now_ns ()) in
  let mark () =
    intervals := Clock.elapsed_s !start :: !intervals;
    probes := Calib.probe () :: !probes;
    start := Clock.now_ns ()
  in
  let should_stop () =
    if !intervals = [] then mark ();
    false
  in
  let progress ~done_count:_ ~total:_ = mark () in
  let o = Checkpoint.run_fullsys ~config ~dir ~every ~should_stop ~progress ~seed ~instrs () in
  match List.rev !intervals with
  | setup_s :: chunks_s ->
      {
        result = o.Checkpoint.f_result;
        completed = o.f_completed;
        setup_s;
        chunks_s;
        run_s = List.fold_left ( +. ) 0. chunks_s;
        probes_s = List.rev !probes;
      }
  | [] -> failwith "run_fullsys never polled for a stop"

(* A machine's construction and chunk times at the reference host speed,
   each scaled by the probes on either side of it. *)
let scaled m =
  let rec go probes times =
    match (probes, times) with
    | before :: (after :: _ as rest), dt :: times -> Calib.scale ~before ~after dt :: go rest times
    | _ -> []
  in
  match go m.probes_s (m.setup_s :: m.chunks_s) with
  | setup :: chunks -> (setup, List.fold_left ( +. ) 0. chunks)
  | [] -> assert false

let reference_lines seed =
  let dir = store () in
  Fun.protect ~finally:(fun () -> remove_store dir) (fun () ->
      List.init machines (fun k ->
          let m = run_machine ~dir (machine_seed seed k) in
          Printf.sprintf "%Ld %d %s" seed k (String.concat " " (result_fields m.result))))

let reference_note refs seed =
  match reference refs seed 0 with
  | Some _ -> Printf.sprintf "seed %Ld checked against the recorded references" seed
  | None ->
      Printf.sprintf
        "seed %Ld has no recorded reference: checked zero wrong translations and \
         round-to-round identity" seed

(* Whole rounds, so every run weighs every machine alike: one, then
   more while another is expected to end within [seconds]. *)
let run_rounds ~dir ~refs ~seed ~seconds ~tally =
  let seen = Hashtbl.create machines in
  let round () =
    List.init machines (fun k ->
        let m = run_machine ~dir (machine_seed seed k) in
        let want =
          match reference refs seed k with Some w -> Some w | None -> Hashtbl.find_opt seen k
        in
        Measure.record tally
          (if m.completed then check ~seed ~k ~want m.result
           else Measure.Errored (Printf.sprintf "machine %d stopped early" k));
        Hashtbl.replace seen k (result_fields m.result);
        m)
  in
  let t0 = Clock.now_ns () in
  let rec go acc rounds =
    let elapsed = Clock.elapsed_s t0 in
    if rounds > 0 && elapsed *. float_of_int (rounds + 1) /. float_of_int rounds > seconds then acc
    else go (acc @ round ()) (rounds + 1)
  in
  go [] 0

(* Timings are at the reference host speed (see Calib). Set-up and
   latency are medians over the machine runs; throughput is all
   instructions over all chunk time, which weighs each machine by its
   cost: the median machine moves with the luck of the seed's draw far
   more than the total does. *)
let run ~seed ~seconds =
  let dir = store () in
  Fun.protect ~finally:(fun () -> remove_store dir) (fun () ->
      let refs = references () in
      let tally = Measure.tally () in
      let ms = run_rounds ~dir ~refs ~seed ~seconds ~tally in
      let scaled_ms = List.map scaled ms in
      let sumi f = List.fold_left (fun a m -> a + f m) 0 ms in
      {
        Measure.tally;
        metrics =
          [
            ("setup_s", Measure.median (List.map fst scaled_ms));
            ( "work_per_s",
              float_of_int (sumi (fun m -> m.result.Fullsys.instrs))
              /. List.fold_left (fun a (_, run) -> a +. run) 0. scaled_ms );
            ("request_p50_ms", 1000. *. Measure.median (List.map (fun (s, r) -> s +. r) scaled_ms));
            ("peak_rss_mb", Measure.peak_rss_mb (Unix.getpid ()));
          ];
        notes =
          [
            Printf.sprintf
              "fullsys-attack: %d machine runs of %d instructions, checkpoint every %d; \
               %d corrected walks, %d flips, %d wrong translations"
              (List.length ms) instrs every
              (sumi (fun m -> m.result.Fullsys.walk_corrections))
              (sumi (fun m -> m.result.Fullsys.flips_landed))
              (sumi (fun m -> m.result.Fullsys.wrong_translations));
            Printf.sprintf
              "unscaled: median set-up %.4f s, %.0f instructions per second; calibration probe \
               median %.5f s against its reference %.5f s"
              (Measure.median (List.map (fun m -> m.setup_s) ms))
              (float_of_int (sumi (fun m -> m.result.Fullsys.instrs))
              /. List.fold_left (fun a m -> a +. m.run_s) 0. ms)
              (Measure.median (List.concat_map (fun m -> m.probes_s) ms))
              Calib.reference_s;
            reference_note refs seed;
          ];
      })

(* ------------------------------------------------------------------ *)
(* Traced round                                                        *)
(* ------------------------------------------------------------------ *)

type read = { addr : int64; is_pte : bool; line : Ptg_pte.Line.t }

type traced_machine = {
  t_result : Fullsys.result;
  t_wall_s : float;  (** construction, chunks and saves *)
  t_save_s : float list;
  t_bytes : int list;
  reads : read list;  (** every controller read of the run, in order *)
  activations : ((int * int * int) * int) list;  (** per-row activation counts *)
  engine_start : Engine.state;
  key : Ptg_crypto.Qarma.key;
  identifier : int64;
  engine_config : Ptguard.Config.t;
  run_metrics : Ptg_obs.Registry.snapshot;  (** counters of the run alone *)
  all_metrics : Ptg_obs.Registry.snapshot;  (** construction included *)
}

(* The loop Checkpoint.run_fullsys runs, from the same public pieces,
   with an observation sink, the controller's read and activation hooks,
   and a clock around every save. *)
let traced_machine ~dir seed =
  clear dir;
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let sink = Ptg_obs.Sink.create () in
  let m = Fullsys.create ~config ~obs:sink ~seed () in
  let built = Ptg_obs.Sink.metrics sink in
  let mc = Fullsys.memctrl m in
  let dram = Memctrl.dram mc in
  let engine = Option.get (Fullsys.engine m) in
  let engine_start = Engine.state engine in
  let reads = ref [] in
  Memctrl.on_line_read mc (fun ~addr ~is_pte ->
      reads := { addr; is_pte; line = Dram.read_line dram addr } :: !reads);
  let acts = Hashtbl.create 64 in
  Memctrl.on_activate mc (fun c ->
      let k = Ptg_dram.Geometry.(c.channel, c.bank, c.row) in
      Hashtbl.replace acts k (1 + Option.value ~default:0 (Hashtbl.find_opt acts k)));
  let key = Checkpoint.fullsys_key ~config ~seed () in
  let saves = ref [] and bytes = ref [] in
  while Fullsys.instrs_done m < instrs do
    let step = min every (instrs - Fullsys.instrs_done m) in
    ignore (Fullsys.run m ~instrs:step);
    let path = Checkpoint.path ~dir ~key (Fullsys.instrs_done m) in
    let (), dt =
      Measure.time (fun () ->
          Checkpoint.fullsys_save ~path ~key m;
          ignore (Ptg_snapshot.Snapshot.prune ~keep:Checkpoint.default_keep ~dir ~key ()))
    in
    saves := dt :: !saves;
    bytes := (Unix.stat path).Unix.st_size :: !bytes
  done;
  let t_wall_s = Clock.elapsed_s t0 in
  let all_metrics = Ptg_obs.Sink.metrics sink in
  {
    t_result = Fullsys.totals m;
    t_wall_s;
    t_save_s = !saves;
    t_bytes = !bytes;
    reads = List.rev !reads;
    activations = Hashtbl.fold (fun k v acc -> (k, v) :: acc) acts [];
    engine_start;
    key = Engine.key engine;
    identifier = Engine.identifier engine;
    engine_config = Engine.config engine;
    run_metrics = Ptg_obs.Registry.diff all_metrics built;
    all_metrics;
  }

type engine_replay = {
  verify_calls : int;
  verify_s : float;
  corr_calls : int;
  corr_ok : int;
  corr_s : float;
  guesses : int;
  mac_calls : int;
  mac_s : float;
  replayed_attempts : int;  (** the replica engine's corrections_attempted *)
}

(* Replay the run's controller reads, as they left DRAM, through a
   replica engine with the machine's key, identifier and starting CTB:
   Engine.process_read for verify and correction, Mac.compute for the
   cipher alone. Fullsys.create draws the engine's identifier from the
   second split of the machine RNG and the replica does the same; the
   second result says the identifiers match and the key did not change
   during the run, which the replay relies on. *)
let replay_engine ~seed tm =
  let rng = Rng.create seed in
  ignore (Rng.split rng);
  let replica = Engine.create ~config:tm.engine_config ~rng:(Rng.split rng) () in
  Engine.set_state replica tm.engine_start;
  let before = (Engine.stats replica).corrections_attempted in
  let mac_latency = tm.engine_config.Ptguard.Config.mac_latency_cycles in
  let r =
    ref
      {
        verify_calls = 0; verify_s = 0.; corr_calls = 0; corr_ok = 0; corr_s = 0.;
        guesses = 0; mac_calls = 0; mac_s = 0.; replayed_attempts = 0;
      }
  in
  List.iter
    (fun rd ->
      let t0 = Clock.now_ns () in
      let res = Engine.process_read replica ~addr:rd.addr ~is_pte:rd.is_pte rd.line in
      let dt = Clock.elapsed_s t0 in
      let a = !r in
      r :=
        match res.Engine.integrity with
        | Engine.Corrected { guesses; _ } ->
            { a with corr_calls = a.corr_calls + 1; corr_ok = a.corr_ok + 1;
                     corr_s = a.corr_s +. dt; guesses = a.guesses + guesses }
        | Engine.Failed ->
            { a with corr_calls = a.corr_calls + 1; corr_s = a.corr_s +. dt;
                     guesses = a.guesses + (res.extra_latency / mac_latency) - 1 }
        | Engine.Passed | Engine.Data_protected | Engine.Data_passthrough ->
            { a with verify_calls = a.verify_calls + 1; verify_s = a.verify_s +. dt })
    tm.reads;
  let ptes = List.filter (fun rd -> rd.is_pte) tm.reads in
  let (), mac_s =
    Measure.time (fun () ->
        List.iter
          (fun rd -> ignore (Sys.opaque_identity (Ptg_crypto.Mac.compute tm.key ~addr:rd.addr rd.line)))
          ptes)
  in
  let a = !r in
  ( { a with mac_calls = List.length ptes; mac_s;
             replayed_attempts = (Engine.stats replica).corrections_attempted - before },
    Engine.key replica = tm.key && Engine.identifier replica = tm.identifier )

(* The two most-activated rows of a machine are the attacker's
   aggressors, victim - 1 and victim + 1 in one bank. *)
let victim tm =
  match List.sort (fun (_, a) (_, b) -> compare b a) tm.activations with
  | ((c1, b1, r1), _) :: ((c2, b2, r2), _) :: _ when c1 = c2 && b1 = b2 && abs (r1 - r2) = 2 ->
      Some (c1, b1, (min r1 r2) + 1)
  | _ -> None

(* Controller-level costs on a fresh, unattacked replica of machine 0:
   clean page-walk reads through Memctrl.read_line, device accesses plus
   functional reads through Dram, and attack bursts through Attack.run. *)
let replay_device ~seed tm =
  let rm = Fullsys.create ~config ~seed () in
  let mc = Fullsys.memctrl rm in
  let dram = Memctrl.dram mc in
  let ptes = List.filter (fun rd -> rd.is_pte) tm.reads in
  let now = ref (Memctrl.now mc) in
  let tick () = now := !now + 100; !now in
  let (), pte_s =
    Measure.time (fun () ->
        List.iter (fun rd -> ignore (Memctrl.read_line mc ~now:(tick ()) ~addr:rd.addr ~is_pte:true ())) ptes)
  in
  let (), dram_s =
    Measure.time (fun () ->
        List.iter
          (fun rd ->
            ignore (Dram.access dram ~now:(tick ()) ~addr:rd.addr ~is_write:false);
            ignore (Sys.opaque_identity (Dram.read_line dram rd.addr)))
          tm.reads)
  in
  let burst_s =
    match victim tm with
    | None -> None
    | Some (channel, bank, row) ->
        let (), dt =
          Measure.time (fun () ->
              for _ = 1 to bursts_per_machine do
                now :=
                  Ptg_rowhammer.Attack.run dram ~channel ~bank
                    (Ptg_rowhammer.Attack.Double_sided { victim = row })
                    ~iterations:config.Fullsys.hammer_burst ~start_time:(tick ())
              done)
        in
        Some (dt /. float_of_int bursts_per_machine)
  in
  ( pte_s /. float_of_int (max 1 (List.length ptes)),
    dram_s /. float_of_int (max 1 (List.length tm.reads)),
    burst_s )

let traced ~seed =
  let dir = store () in
  Fun.protect ~finally:(fun () -> remove_store dir) (fun () ->
      let refs = references () in
      let tally = Measure.tally () in
      (* Each machine runs untraced, then traced, so both rounds see the
         same heap and the same host speed. *)
      let plain, tms =
        List.split
          (List.init machines (fun k ->
               let p = run_machine ~dir (machine_seed seed k) in
               Measure.record tally
                 (check ~seed ~k ~want:(reference refs seed k) p.result);
               (p, traced_machine ~dir (machine_seed seed k))))
      in
      let wall = List.fold_left (fun acc m -> acc +. m.setup_s +. m.run_s) 0. plain in
      let traced_wall = List.fold_left (fun acc tm -> acc +. tm.t_wall_s) 0. tms in
      let fail m = Measure.record tally m in
      let replays =
        List.mapi
          (fun k (tm, p) ->
            if result_fields tm.t_result <> result_fields p.result then
              fail (Measure.Mismatch (Printf.sprintf "traced machine %d differs from run_fullsys" k));
            let rp, same_key = replay_engine ~seed:(machine_seed seed k) tm in
            if not same_key then
              fail (Measure.Errored (Printf.sprintf "machine %d: replica engine cannot replay the run" k));
            (* The correction replay self-check. *)
            let attempts = int_of_float (Measure.counter tm.run_metrics "engine_corrections_attempted") in
            if rp.replayed_attempts <> attempts || rp.corr_calls <> attempts then
              fail
                (Measure.Mismatch
                   (Printf.sprintf "machine %d: replay made %d correction attempts, the run %d" k
                      rp.replayed_attempts attempts));
            rp)
          (List.combine tms plain)
      in
      let pte_read_s, dram_read_s, burst_s = replay_device ~seed:(machine_seed seed 0) (List.hd tms) in
      if burst_s = None then fail (Measure.Errored "no double-sided aggressor pair in the activations");
      let sumi f = List.fold_left (fun acc x -> acc + f x) 0 in
      let sumf f = List.fold_left (fun acc x -> acc +. f x) 0. in
      let run_c key = sumf (fun tm -> Measure.counter tm.run_metrics key) tms in
      let corr_calls = sumi (fun r -> r.corr_calls) replays in
      let corr_s = sumf (fun r -> r.corr_s) replays in
      let verify_calls = sumi (fun r -> r.verify_calls) replays in
      let verify_cost = sumf (fun r -> r.verify_s) replays /. float_of_int (max 1 verify_calls) in
      let corr_cost = corr_s /. float_of_int (max 1 corr_calls) in
      let guesses = sumi (fun r -> r.guesses) replays in
      let reads = sumi (fun tm -> List.length tm.reads) tms in
      let ptes = run_c "engine_reads_pte" in
      let walks = sumi (fun tm -> tm.t_result.Fullsys.walks) tms in
      let saves = List.concat_map (fun tm -> tm.t_save_s) tms in
      let bytes = List.concat_map (fun tm -> tm.t_bytes) tms in
      let bursts = bursts_per_machine * machines in
      let setup = Measure.mean (List.map (fun m -> m.setup_s) plain) in
      let layer name calls cost_s = { Measure.name; calls; cost_s } in
      let engine_l = layer "engine-verify" (float_of_int verify_calls) verify_cost in
      let corr_l = layer "correction" (float_of_int corr_calls) corr_cost in
      let dram_l = layer "dram" (float_of_int reads) dram_read_s in
      let hammer_l = layer "rowhammer" (float_of_int bursts) (Option.value burst_s ~default:0.) in
      let construction_l = layer "construction" (float_of_int machines) setup in
      let layers =
        [
          construction_l;
          engine_l;
          corr_l;
          dram_l;
          hammer_l;
          layer "snapshot" (float_of_int (List.length saves)) (Measure.mean saves);
        ]
      in
      let dram_acc = run_c "dram_row_hits" +. run_c "dram_row_conflicts" +. run_c "dram_row_closed" in
      {
        Measure.tally;
        metrics =
          [
            ("cpu.tlb_miss_rate", Measure.ratio (run_c "tlb_misses") (run_c "tlb_hits" +. run_c "tlb_misses"));
            ("cpu.tlb_misses", run_c "tlb_misses");
            ("dram.accesses", float_of_int reads);
            ("dram.activations", float_of_int (sumi (fun tm -> sumi snd tm.activations) tms));
            ("dram.access_ns", 1e9 *. dram_read_s);
            ("dram.row_hit_ratio", Measure.ratio (run_c "dram_row_hits") dram_acc);
            ("dram.share", Measure.share ~wall dram_l);
            ("crypto.mac_ns",
              1e9 *. sumf (fun r -> r.mac_s) replays /. float_of_int (max 1 (sumi (fun r -> r.mac_calls) replays)));
            ("engine.pte_reads", ptes);
            ("engine.mac_computations", run_c "engine_mac_computations");
            ("engine.writes_protected", sumf (fun tm -> Measure.counter tm.all_metrics "engine_writes_protected") tms);
            ("engine.verify_share", Measure.share ~wall engine_l);
            ("correction.calls", float_of_int corr_calls);
            ("correction.succeeded_ratio",
              Measure.ratio (float_of_int (sumi (fun r -> r.corr_ok) replays)) (float_of_int corr_calls));
            ("correction.guesses", float_of_int guesses);
            ("correction.guesses_per_call", Measure.ratio (float_of_int guesses) (float_of_int corr_calls));
            ("correction.ms_per_call", 1000. *. corr_cost);
            ("correction.share", Measure.share ~wall corr_l);
            ("rowhammer.flips", float_of_int (sumi (fun tm -> tm.t_result.Fullsys.flips_landed) tms));
            ("rowhammer.bursts", float_of_int bursts);
            ("rowhammer.hammer_share", Measure.share ~wall hammer_l);
            ("memctrl.walks", float_of_int walks);
            ("memctrl.walk_us", 1e6 *. pte_read_s *. ptes /. float_of_int (max 1 walks));
            ("snapshot.saves", float_of_int (List.length saves));
            ("snapshot.save_ms", 1000. *. Measure.mean saves);
            ("snapshot.bytes", Measure.mean (List.map float_of_int bytes));
            ("layers.unattributed_share", Measure.unattributed_share ~wall layers);
            ("trace.overhead_pct", 100. *. ((traced_wall /. wall) -. 1.));
          ];
        notes =
          [
            Printf.sprintf "fullsys-attack traced: untraced round %.3f s, traced round %.3f s" wall
              traced_wall;
            Printf.sprintf "layer shares: %s"
              (String.concat ", "
                 (List.map (fun (l : Measure.layer) -> Printf.sprintf "%s %.3f" l.name (Measure.share ~wall l)) layers));
            (let share = Measure.share ~wall corr_l in
             let run_share = Measure.layer_s corr_l /. (wall -. Measure.layer_s construction_l) in
             Printf.sprintf
               "correction share %.3f of wall time, %.3f of the time after machine construction: \
                %s the prediction of about 0.9; replay reproduced all %d correction attempts"
               share run_share
               (if share >= 0.8 then "confirms" else "refutes")
               corr_calls);
            reference_note refs seed;
          ];
      })
