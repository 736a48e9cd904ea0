open Ptg_snapshot

(* ------------------------------------------------------------------ *)
(* Warm-start store: <dir>/<key>.<count>.ptgs                          *)
(* ------------------------------------------------------------------ *)

let path = Snapshot.store_path

(* Counts present in the store for [key], newest first. *)
let stored_counts = Snapshot.store_counts

(* Deepest-N retention applied after every successful save: the deepest
   checkpoint plus one fallback. Without this every chunk leaks a file
   and a long served run grows the store without bound. *)
let default_keep = 2

(* A peer shard or domain sharing the store may create [dir] between our
   check and our mkdir; losing that race is success, not an error. *)
let ensure_dir dir =
  let is_dir () = Sys.file_exists dir && Sys.is_directory dir in
  if not (is_dir ()) then
    try Sys.mkdir dir 0o755 with Sys_error _ when is_dir () -> ()

(* Every checkpoint opens with a meta section naming what produced it:
   the driver kind, the warm-start store key, and how far the run had
   got. Loading validates kind and key — a snapshot from a different
   scenario (or a stale key collision) is rejected before any state is
   touched. *)
let save ~path ~kind ~key ~count sections =
  let b = Codec.writer () in
  Codec.put_string b kind;
  Codec.put_string b key;
  Codec.put_varint b count;
  Snapshot.save ~path (Snapshot.section ~name:"meta" (Codec.contents b) :: sections)

(* [(count, sections)] of a checkpoint written by [kind] under [key];
   raises [Invalid_argument] otherwise. *)
let load ~kind ~key path =
  let sections = Snapshot.load ~path in
  let r = Snapshot.reader ~what:path sections "meta" in
  let m_kind = Codec.get_string r in
  let m_key = Codec.get_string r in
  let count = Codec.get_varint r in
  Codec.expect_end r;
  if m_kind <> kind then
    invalid_arg
      (Printf.sprintf "Snapshot.load: %s: checkpoint kind %S, want %S" path
         m_kind kind);
  if m_key <> key then
    invalid_arg
      (Printf.sprintf "Snapshot.load: %s: checkpoint key %s, want %s" path
         m_key key);
  (count, sections)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* One sliceable run, as the driver sees it. ['s] is the run's progress:
   the machine for fullsys, the completed unit prefix for the sweeps. *)
type 's instance = {
  kind : string;  (* the meta kind its checkpoints carry *)
  total : int;  (* units in the whole run *)
  start : 's;  (* the cold start *)
  depth : 's -> int;
      (* units done; fig7's cold start is -1 because its shared
         baselines are a step of their own, leaving a depth-0 state *)
  step : 's -> int -> 's;  (* run up to n more units *)
  encode : 's -> Snapshot.section list;  (* every section but meta *)
  decode : what:string -> Snapshot.section list -> 's option;
      (* [None] when the stored prefix belongs to a different run *)
}

let never_stop () = false
let no_progress ~done_count:_ ~total:_ = ()

(* The deepest stored state past the cold start and within the budget.
   A damaged, foreign or mismatched file is skipped, and so is one a
   sharing peer pruned between our readdir and the open: the store is
   an optimization, never a reason to fail. *)
let adopt_from ~dir ~key inst =
  stored_counts ~dir ~key
  |> List.filter (fun n -> n > inst.depth inst.start && n <= inst.total)
  |> List.find_map (fun n ->
         let p = path ~dir ~key n in
         match
           let count, sections = load ~kind:inst.kind ~key p in
           if count = n then inst.decode ~what:p sections else None
         with
         | Some s when inst.depth s = n -> Some s
         | _ -> None
         | exception (Invalid_argument _ | Sys_error _) -> None)

(* Adopt, then loop: poll [should_stop] at each chunk top, step, save
   (every chunk when [every] is given, else at completion), report
   progress. A stop saves the position reached, but only when a step ran
   since start or adoption — otherwise there is nothing new to keep.
   Returns the final state, whether it completed, and the adopted
   depth. *)
let drive ?(keep = default_keep) ?every ?dir ?(adopt = true)
    ?(should_stop = never_stop) ?(progress = no_progress) ~key inst =
  let total = inst.total in
  let resumed =
    match dir with Some dir when adopt -> adopt_from ~dir ~key inst | _ -> None
  in
  (* Taken now: a machine state keeps moving after adoption. *)
  let resumed_from = Option.map inst.depth resumed in
  (* Make the adopted depth visible to progress streams before any new
     work happens (also the only progress a full-depth adoption emits). *)
  Option.iter (fun n -> progress ~done_count:n ~total) resumed_from;
  let s = ref (Option.value resumed ~default:inst.start) in
  let checkpoint () =
    Option.iter
      (fun dir ->
        ensure_dir dir;
        let count = inst.depth !s in
        let p = path ~dir ~key count in
        if not (Sys.file_exists p) then begin
          save ~path:p ~kind:inst.kind ~key ~count (inst.encode !s);
          ignore (Snapshot.prune ~keep ~dir ~key ())
        end)
      dir
  in
  let chunk = match every with Some e when e > 0 -> e | _ -> total in
  let stepped = ref false and stopped = ref false in
  while (not !stopped) && inst.depth !s < total do
    if should_stop () then stopped := true
    else begin
      s := inst.step !s (min chunk (total - inst.depth !s));
      stepped := true;
      if every <> None || inst.depth !s >= total then checkpoint ();
      progress ~done_count:(inst.depth !s) ~total
    end
  done;
  if !stopped && !stepped then checkpoint ();
  (!s, not !stopped, resumed_from)

(* ------------------------------------------------------------------ *)
(* Fullsys                                                             *)
(* ------------------------------------------------------------------ *)

(* Keying a fullsys machine outside the scenario layer: everything
   [Fullsys.create] consumed, rendered canonically (alphabetical keys)
   and hashed — the same recipe as [Scenario.prefix_hash], over the
   creation parameters instead of the scenario fields. *)
let fullsys_key ?(config = Fullsys.default_config) ?(pages = 2048) ~seed () =
  let f = config.Fullsys.fault in
  let orientation =
    match f.Ptg_rowhammer.Fault_model.orientation with
    | Ptg_rowhammer.Fault_model.All_true -> "true"
    | Ptg_rowhammer.Fault_model.All_anti -> "anti"
    | Ptg_rowhammer.Fault_model.Per_row_hash -> "hash"
  in
  let canonical =
    Printf.sprintf
      "{\"attack\":%b,\"burst\":%d,\"fault\":{\"d2\":%.17g,\"orient\":%S,\"pflip\":%.17g,\"refresh\":%.17g,\"rth\":%d},\"guarded\":%b,\"pages\":%d,\"period\":%d,\"seed\":%Ld}"
      config.Fullsys.attack config.Fullsys.hammer_burst
      f.Ptg_rowhammer.Fault_model.distance2_weight orientation
      f.Ptg_rowhammer.Fault_model.p_flip
      f.Ptg_rowhammer.Fault_model.refresh_disturb_weight
      f.Ptg_rowhammer.Fault_model.rth config.Fullsys.guarded pages
      config.Fullsys.hammer_period seed
  in
  Snapshot.hash_hex (Codec.fnv1a64 canonical)

(* One section per subsystem of the machine's current state, encoded
   in turn through one writer. *)
let fullsys_sections (m : Fullsys.t) =
  let s = Fullsys.state m in
  let b = Codec.writer () in
  let sec name fill =
    Codec.reset b;
    fill b;
    Snapshot.section ~name (Codec.contents b)
  in
  [
    sec "rng" (fun b -> Sections.put_words b s.Fullsys.s_rng);
    sec "dram" (fun b -> Sections.put_dram b s.Fullsys.s_dram);
    sec "fault" (fun b -> Sections.put_fault b s.Fullsys.s_fault);
    sec "engine" (fun b -> Codec.put_option b Sections.put_engine s.Fullsys.s_engine);
    sec "memctrl" (fun b -> Codec.put_int b s.Fullsys.s_mc_now);
    sec "vm" (fun b ->
        Sections.put_page_table b s.Fullsys.s_table;
        Sections.put_frame_allocator b s.Fullsys.s_alloc);
    sec "tlb" (fun b -> Sections.put_tlb b s.Fullsys.s_tlb);
    sec "translations" (fun b ->
        Codec.put_list b
          (fun b (vpn, paddr) ->
            Codec.put_i64 b vpn;
            Codec.put_i64 b paddr)
          s.Fullsys.s_translations);
    sec "counters" (fun b ->
        Codec.put_varint b s.Fullsys.s_instr;
        Codec.put_varint b s.Fullsys.s_now;
        Codec.put_varint b s.Fullsys.s_walks;
        Codec.put_varint b s.Fullsys.s_walk_corrections;
        Codec.put_varint b s.Fullsys.s_walk_exceptions;
        Codec.put_varint b s.Fullsys.s_refaults;
        Codec.put_varint b s.Fullsys.s_wrong_translations);
  ]

let fullsys_state_of_sections ~what sections : Fullsys.state =
  let sect name = Snapshot.reader ~what sections name in
  let finish r v =
    Codec.expect_end r;
    v
  in
  let r = sect "rng" in
  let s_rng = finish r (Sections.get_words r) in
  let r = sect "dram" in
  let s_dram = finish r (Sections.get_dram r) in
  let r = sect "fault" in
  let s_fault = finish r (Sections.get_fault r) in
  let r = sect "engine" in
  let s_engine = finish r (Codec.get_option r Sections.get_engine) in
  let r = sect "memctrl" in
  let s_mc_now = finish r (Codec.get_int r) in
  let r = sect "vm" in
  let s_table = Sections.get_page_table r in
  let s_alloc = finish r (Sections.get_frame_allocator r) in
  let r = sect "tlb" in
  let s_tlb = finish r (Sections.get_tlb r) in
  let r = sect "translations" in
  let s_translations =
    finish r
      (Codec.get_list r (fun r ->
           let vpn = Codec.get_i64 r in
           let paddr = Codec.get_i64 r in
           (vpn, paddr)))
  in
  let r = sect "counters" in
  let s_instr = Codec.get_varint r in
  let s_now = Codec.get_varint r in
  let s_walks = Codec.get_varint r in
  let s_walk_corrections = Codec.get_varint r in
  let s_walk_exceptions = Codec.get_varint r in
  let s_refaults = Codec.get_varint r in
  let s_wrong_translations = finish r (Codec.get_varint r) in
  {
    Fullsys.s_rng;
    s_dram;
    s_fault;
    s_engine;
    s_mc_now;
    s_table;
    s_alloc;
    s_tlb;
    s_translations;
    s_instr;
    s_now;
    s_walks;
    s_walk_corrections;
    s_walk_exceptions;
    s_refaults;
    s_wrong_translations;
  }

let fullsys_save ~path ~key m =
  save ~path ~kind:"fullsys" ~key ~count:(Fullsys.instrs_done m)
    (fullsys_sections m)

let fullsys_restore ~path ~key m =
  let count, sections = load ~kind:"fullsys" ~key path in
  Fullsys.set_state m (fullsys_state_of_sections ~what:path sections);
  count

type fullsys_outcome = {
  f_result : Fullsys.result;
  f_completed : bool;
  f_done : int;
  f_resumed_from : int option;
}

(* The machine is the state: [step] runs it on, [decode] overwrites it
   (the whole state is decoded before any of it is set, so a bad file
   leaves the machine untouched). *)
let run_fullsys ?config ?pages ?key ?keep ?every ?dir ?adopt ?should_stop
    ?progress ~seed ~instrs () =
  let key =
    match key with Some k -> k | None -> fullsys_key ?config ?pages ~seed ()
  in
  let m = Fullsys.create ?config ?pages ~seed () in
  let m, completed, resumed_from =
    drive ?keep ?every ?dir ?adopt ?should_stop ?progress ~key
      {
        kind = "fullsys";
        total = instrs;
        start = m;
        depth = Fullsys.instrs_done;
        step =
          (fun m n ->
            ignore (Fullsys.run m ~instrs:n);
            m);
        encode = fullsys_sections;
        decode =
          (fun ~what sections ->
            Fullsys.set_state m (fullsys_state_of_sections ~what sections);
            Some m);
      }
  in
  {
    f_result = Fullsys.totals m;
    f_completed = completed;
    f_done = Fullsys.instrs_done m;
    f_resumed_from = resumed_from;
  }

(* ------------------------------------------------------------------ *)
(* Sweeps: a case list computed in order, one unit per case            *)
(* ------------------------------------------------------------------ *)

type ('unit, 'result) outcome = {
  o_result : 'result option;
  o_units : 'unit list;
  o_completed : bool;
  o_resumed_from : int option;
}

let outcome finish (units, completed, resumed_from) =
  {
    o_result = (if completed then Some (finish units) else None);
    o_units = units;
    o_completed = completed;
    o_resumed_from = resumed_from;
  }

let slice l from n = List.filteri (fun i _ -> i >= from && i < from + n) l

let par_map ?jobs f l =
  Array.to_list (Ptg_util.Pool.parallel_map ?jobs f (Array.of_list l))

(* A sweep's unit-prefix section: the case count, an optional header,
   then the completed units in case order. *)
let put_prefix ~name ~total ?(header = ignore) put units =
  let b = Codec.writer () in
  Codec.put_varint b total;
  header b;
  Codec.put_list b put units;
  Snapshot.section ~name (Codec.contents b)

(* The stored prefix, or [None] when it answers a different case list:
   another case count, another header, or a unit that does not answer
   its case. *)
let get_prefix ~name ~total ?(header = fun _ -> true) get ~answers cases ~what
    sections =
  let r = Snapshot.reader ~what sections name in
  let stored_total = Codec.get_varint r in
  let header_ok = header r in
  let units = Codec.get_list r get in
  Codec.expect_end r;
  let rec pairs units cases =
    match (units, cases) with
    | [], _ -> true
    | u :: units, c :: cases -> answers u c && pairs units cases
    | _ :: _, [] -> false
  in
  if stored_total = total && header_ok && pairs units cases then Some units
  else None

(* The common sweep shape: the state is the completed unit prefix. *)
let list_sweep ~kind ~name ?header ?check_header ~put ~get ~answers ~run cases
    =
  let total = List.length cases in
  {
    kind;
    total;
    start = [];
    depth = List.length;
    step = (fun units n -> units @ run (slice cases (List.length units) n));
    encode = (fun units -> [ put_prefix ~name ~total ?header put units ]);
    decode = get_prefix ~name ~total ?header:check_header get ~answers cases;
  }

(* ------------------------------------------------------------------ *)
(* Fig6: per-workload rows                                             *)
(* ------------------------------------------------------------------ *)

let put_fig6_row b (r : Fig6.row) =
  Codec.put_string b r.Fig6.workload;
  Codec.put_float b r.mpki;
  Codec.put_float b r.base_ipc;
  Codec.put_float b r.norm_ipc;
  Codec.put_float b r.slowdown_pct;
  Codec.put_varint b r.pte_dram_reads;
  Codec.put_varint b r.dram_reads

let get_fig6_row r =
  let workload = Codec.get_string r in
  let mpki = Codec.get_float r in
  let base_ipc = Codec.get_float r in
  let norm_ipc = Codec.get_float r in
  let slowdown_pct = Codec.get_float r in
  let pte_dram_reads = Codec.get_varint r in
  let dram_reads = Codec.get_varint r in
  {
    Fig6.workload;
    mpki;
    base_ipc;
    norm_ipc;
    slowdown_pct;
    pte_dram_reads;
    dram_reads;
  }

let run_fig6 ?jobs ~key ?keep ?every ?dir ?adopt ?should_stop ?progress
    ~instrs ~warmup ~seed ~config ~workloads () =
  list_sweep ~kind:"fig6" ~name:"fig6.rows" ~put:put_fig6_row ~get:get_fig6_row
    ~answers:(fun (r : Fig6.row) s -> r.Fig6.workload = s.Ptg_workloads.Workload.name)
    ~run:(Fig6.run_rows ?jobs ~instrs ~warmup ~seed ~config)
    workloads
  |> drive ?keep ?every ?dir ?adopt ?should_stop ?progress ~key
  |> outcome Fig6.of_rows

(* ------------------------------------------------------------------ *)
(* Fig7: shared baselines, then sweep points                           *)
(* ------------------------------------------------------------------ *)

(* A fig7 checkpoint carries the shared per-workload baseline runs in
   every file: they cost as much as one sweep point, are needed by every
   remaining point, and storing them means a resumed slice never
   recomputes them. The count is the completed-point prefix; a count of
   0 (baselines only) is a legal checkpoint. *)

let put_core_result b (r : Ptg_cpu.Core.result) =
  Codec.put_varint b r.Ptg_cpu.Core.instrs;
  Codec.put_varint b r.Ptg_cpu.Core.cycles;
  Codec.put_float b r.Ptg_cpu.Core.ipc;
  Codec.put_float b r.Ptg_cpu.Core.llc_mpki;
  Codec.put_varint b r.Ptg_cpu.Core.dram_reads;
  Codec.put_varint b r.Ptg_cpu.Core.pte_dram_reads;
  Codec.put_varint b r.Ptg_cpu.Core.walks;
  Codec.put_float b r.Ptg_cpu.Core.tlb_miss_rate;
  Codec.put_varint b r.Ptg_cpu.Core.guard_mac_computations;
  Codec.put_varint b r.Ptg_cpu.Core.cache_writebacks

let get_core_result r : Ptg_cpu.Core.result =
  let instrs = Codec.get_varint r in
  let cycles = Codec.get_varint r in
  let ipc = Codec.get_float r in
  let llc_mpki = Codec.get_float r in
  let dram_reads = Codec.get_varint r in
  let pte_dram_reads = Codec.get_varint r in
  let walks = Codec.get_varint r in
  let tlb_miss_rate = Codec.get_float r in
  let guard_mac_computations = Codec.get_varint r in
  let cache_writebacks = Codec.get_varint r in
  {
    Ptg_cpu.Core.instrs;
    cycles;
    ipc;
    llc_mpki;
    dram_reads;
    pte_dram_reads;
    walks;
    tlb_miss_rate;
    guard_mac_computations;
    cache_writebacks;
  }

let put_point b (pt : Fig7.point) =
  Codec.put_bool b (pt.Fig7.design = Ptguard.Config.Optimized);
  Codec.put_varint b pt.Fig7.mac_latency;
  Codec.put_float b pt.Fig7.avg_slowdown_pct;
  Codec.put_float b pt.Fig7.max_slowdown_pct;
  Codec.put_string b pt.Fig7.max_workload;
  Codec.put_float b pt.Fig7.mac_reads_fraction

let get_point r =
  let design =
    if Codec.get_bool r then Ptguard.Config.Optimized else Ptguard.Config.Baseline
  in
  let mac_latency = Codec.get_varint r in
  let avg_slowdown_pct = Codec.get_float r in
  let max_slowdown_pct = Codec.get_float r in
  let max_workload = Codec.get_string r in
  let mac_reads_fraction = Codec.get_float r in
  {
    Fig7.design;
    mac_latency;
    avg_slowdown_pct;
    max_slowdown_pct;
    max_workload;
    mac_reads_fraction;
  }

let run_fig7 ?jobs ~key ?keep ?every ?dir ?adopt ?should_stop ?progress
    ?(latencies = Fig7.default_latencies)
    ?(workloads = Ptg_workloads.Workload.all) ~instrs ~warmup ~seed () =
  let cases = Fig7.cases ~latencies () in
  let total = List.length cases in
  let names = List.map (fun s -> s.Ptg_workloads.Workload.name) workloads in
  let points = "fig7.points" in
  let answers (pt : Fig7.point) (d, l) =
    pt.Fig7.design = d && pt.Fig7.mac_latency = l
  in
  let (_, done_points), completed, resumed_from =
    drive ?keep ?every ?dir ?adopt ?should_stop ?progress ~key
      {
        kind = "fig7";
        total;
        start = (None, []);
        depth = (function None, _ -> -1 | Some _, pts -> List.length pts);
        step =
          (fun (base, pts) n ->
            match base with
            | None -> (Some (Fig7.base_runs ?jobs ~instrs ~warmup ~seed workloads), pts)
            | Some base_results ->
                ( base,
                  pts
                  @ par_map ?jobs
                      (Fig7.point ~instrs ~warmup ~seed ~base_results)
                      (slice cases (List.length pts) n) ));
        encode =
          (fun (base, pts) ->
            let b = Codec.writer () in
            Codec.put_list b
              (fun b (spec, r) ->
                Codec.put_string b spec.Ptg_workloads.Workload.name;
                put_core_result b r)
              (Option.get base);
            [
              Snapshot.section ~name:"fig7.base" (Codec.contents b);
              put_prefix ~name:points ~total put_point pts;
            ]);
        decode =
          (fun ~what sections ->
            let r = Snapshot.reader ~what sections "fig7.base" in
            let base =
              Codec.get_list r (fun r ->
                  let name = Codec.get_string r in
                  let core = get_core_result r in
                  (name, core))
            in
            Codec.expect_end r;
            if List.map fst base <> names then None
            else
              let base = List.map2 (fun spec (_, r) -> (spec, r)) workloads base in
              get_prefix ~name:points ~total get_point ~answers cases ~what
                sections
              |> Option.map (fun pts -> (Some base, pts)));
      }
  in
  outcome
    (fun points -> { Fig7.points })
    (done_points, completed, resumed_from)

(* ------------------------------------------------------------------ *)
(* Fig9: per-workload injection campaigns                              *)
(* ------------------------------------------------------------------ *)

let put_fig9_part b ((w : Fig9.workload_result), steps) =
  Codec.put_string b w.Fig9.workload;
  Codec.put_list b
    (fun b (c : Fig9.cell) ->
      Codec.put_float b c.Fig9.p_flip;
      Codec.put_varint b c.Fig9.sampled;
      Codec.put_varint b c.Fig9.corrected;
      Codec.put_varint b c.Fig9.uncorrectable;
      Codec.put_varint b c.Fig9.benign;
      Codec.put_varint b c.Fig9.miscorrections;
      Codec.put_varint b c.Fig9.escapes;
      Codec.put_float b c.Fig9.corrected_pct)
    w.Fig9.cells;
  Codec.put_list b
    (fun b (k, v) ->
      Codec.put_string b k;
      Codec.put_varint b v)
    steps

let get_fig9_part r =
  let workload = Codec.get_string r in
  let cells =
    Codec.get_list r (fun r ->
        let p_flip = Codec.get_float r in
        let sampled = Codec.get_varint r in
        let corrected = Codec.get_varint r in
        let uncorrectable = Codec.get_varint r in
        let benign = Codec.get_varint r in
        let miscorrections = Codec.get_varint r in
        let escapes = Codec.get_varint r in
        let corrected_pct = Codec.get_float r in
        {
          Fig9.p_flip;
          sampled;
          corrected;
          uncorrectable;
          benign;
          miscorrections;
          escapes;
          corrected_pct;
        })
  in
  let steps =
    Codec.get_list r (fun r ->
        let k = Codec.get_string r in
        let v = Codec.get_varint r in
        (k, v))
  in
  ({ Fig9.workload; cells }, steps)

(* Generator states are re-derived every slice (cheap); only the
   campaign results are stored, after the run's [p_flips]. *)
let run_fig9 ?jobs ~key ?keep ?every ?dir ?adopt ?should_stop ?progress
    ?(p_flips = Fig9.default_p_flips) ?(config = Ptguard.Config.optimized)
    ?(workloads = Ptg_workloads.Workload.fig9_subset) ~lines_per_point ~seed ()
    =
  list_sweep ~kind:"fig9" ~name:"fig9.parts"
    ~header:(fun b -> Codec.put_list b Codec.put_float p_flips)
    ~check_header:(fun r -> Codec.get_list r Codec.get_float = p_flips)
    ~put:put_fig9_part ~get:get_fig9_part
    ~answers:(fun ((w : Fig9.workload_result), _) (p : Fig9.prepared) ->
      w.Fig9.workload = p.Fig9.pr_spec.Ptg_workloads.Workload.name)
    ~run:(par_map ?jobs (Fig9.run_workload ~lines_per_point ~p_flips ~config))
    (Fig9.prepare ~seed workloads)
  |> drive ?keep ?every ?dir ?adopt ?should_stop ?progress ~key
  |> outcome (Fig9.assemble ~p_flips)

(* ------------------------------------------------------------------ *)
(* Multicore: SAME/MIX rows                                            *)
(* ------------------------------------------------------------------ *)

let put_multicore_row b (r : Multicore_exp.row) =
  Codec.put_string b r.Multicore_exp.label;
  Codec.put_list b Codec.put_string r.Multicore_exp.workloads;
  Codec.put_float b r.Multicore_exp.base_ipc;
  Codec.put_float b r.Multicore_exp.norm_ipc;
  Codec.put_float b r.Multicore_exp.slowdown_pct;
  Codec.put_float b r.Multicore_exp.avg_queue_delay

let get_multicore_row r =
  let label = Codec.get_string r in
  let workloads = Codec.get_list r Codec.get_string in
  let base_ipc = Codec.get_float r in
  let norm_ipc = Codec.get_float r in
  let slowdown_pct = Codec.get_float r in
  let avg_queue_delay = Codec.get_float r in
  {
    Multicore_exp.label;
    workloads;
    base_ipc;
    norm_ipc;
    slowdown_pct;
    avg_queue_delay;
  }

(* The case list is re-derived from the seed every slice. *)
let run_multicore ?jobs ~key ?keep ?every ?dir ?adopt ?should_stop ?progress
    ?(same = Ptg_workloads.Workload.all) ?(config = Ptguard.Config.baseline)
    ~instrs_per_core ~mixes ~seed () =
  list_sweep ~kind:"multicore" ~name:"multicore.rows" ~put:put_multicore_row
    ~get:get_multicore_row
    ~answers:(fun (r : Multicore_exp.row) (label, _) ->
      r.Multicore_exp.label = label)
    ~run:(par_map ?jobs (Multicore_exp.case_row ~instrs_per_core ~seed ~config))
    (Multicore_exp.cases ~same ~seed ~mixes ())
  |> drive ?keep ?every ?dir ?adopt ?should_stop ?progress ~key
  |> outcome Multicore_exp.of_rows

(* ------------------------------------------------------------------ *)
(* Scenario entry point (server warm-start path)                       *)
(* ------------------------------------------------------------------ *)

type served = {
  text : string option; (* None when stopped before completion *)
  completed : bool;
  resumed_from : int option;
}

(* Scenario kinds the chunked drivers can slice: kill, persist, resume,
   byte-identically. Multi-seed sweeps aggregate across seeds at the end
   and are served in one piece. *)
let sliceable (t : Scenario.t) =
  match t.Scenario.kind with
  | Scenario.Fullsys | Scenario.Fig7 | Scenario.Multicore -> true
  | Scenario.Fig6 | Scenario.Fig9 -> t.Scenario.seeds = 1
  | Scenario.Fig8 | Scenario.Trace -> false

(* Without an explicit granularity, slice fullsys into ~10 instruction
   chunks and batched experiments one unit (row/point/workload) at a
   time, so [should_stop] gets a timely look even when the caller never
   tuned [every]. *)
let default_every (t : Scenario.t) =
  match t.Scenario.kind with
  | Scenario.Fullsys -> max 1 (Scenario.resolve_instrs t / 10)
  | _ -> 1

(* Scenarios the snapshot store can serve incrementally: fullsys by
   instruction prefix (keyed by [Scenario.prefix_hash]) and the batched
   experiments by unit prefix (keyed by the full [Scenario.hash] — units
   are only reusable for identical sizing). Even without [dir] the
   sliceable kinds run chunked, so [should_stop]/[progress] stay live;
   everything else runs in one piece. *)
let run_scenario ?dir ?every ?should_stop ?progress (t : Scenario.t) =
  Scenario.check t;
  let every =
    match every with
    | Some _ -> every
    | None -> if sliceable t then Some (default_every t) else None
  in
  let jobs = t.Scenario.jobs and seed = t.Scenario.seed in
  let served out o =
    {
      text = Option.map (fun r -> Scenario.render (out r)) o.o_result;
      completed = o.o_completed;
      resumed_from = o.o_resumed_from;
    }
  in
  match t.Scenario.kind with
  | Scenario.Fullsys ->
      let o =
        run_fullsys ?every ?dir ?should_stop ?progress
          ~key:(Scenario.prefix_hash t) ~seed ~instrs:(Scenario.resolve_instrs t)
          ()
      in
      {
        text =
          (if o.f_completed then
             Some (Scenario.render (Scenario.Fullsys_out o.f_result))
           else None);
        completed = o.f_completed;
        resumed_from = o.f_resumed_from;
      }
  | Scenario.Fig6 when t.Scenario.seeds = 1 ->
      let config =
        Ptguard.Config.with_mac_latency
          (Scenario.config_of_design t.Scenario.design)
          (Scenario.resolve_mac_latency t)
      in
      let workloads =
        List.map
          (fun name -> Option.get (Ptg_workloads.Workload.by_name name))
          (Scenario.resolve_workload_names t)
      in
      run_fig6 ~jobs ?every ?dir ?should_stop ?progress ~key:(Scenario.hash t)
        ~instrs:(Scenario.resolve_instrs t) ~warmup:(Scenario.resolve_warmup t)
        ~seed ~config ~workloads ()
      |> served (fun r -> Scenario.Fig6_out r)
  | Scenario.Fig7 ->
      run_fig7 ~jobs ?every ?dir ?should_stop ?progress ~key:(Scenario.hash t)
        ~instrs:(Scenario.resolve_instrs t) ~warmup:(Scenario.resolve_warmup t)
        ~seed ()
      |> served (fun r -> Scenario.Fig7_out r)
  | Scenario.Fig9 when t.Scenario.seeds = 1 ->
      run_fig9 ~jobs ?every ?dir ?should_stop ?progress ~key:(Scenario.hash t)
        ~lines_per_point:(Scenario.resolve_lines t) ~seed ()
      |> served (fun r -> Scenario.Fig9_out r)
  | Scenario.Multicore ->
      run_multicore ~jobs ?every ?dir ?should_stop ?progress
        ~key:(Scenario.hash t) ~instrs_per_core:(Scenario.resolve_instrs t)
        ~mixes:(Scenario.resolve_mixes t) ~seed ()
      |> served (fun r -> Scenario.Multicore_out r)
  | _ -> (
      match should_stop with
      | Some stop when stop () ->
          { text = None; completed = false; resumed_from = None }
      | _ ->
          {
            text = Some (Scenario.run_to_string t);
            completed = true;
            resumed_from = None;
          })
