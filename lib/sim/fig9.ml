open Ptg_util

type cell = {
  p_flip : float;
  sampled : int;
  corrected : int;
  uncorrectable : int;
  benign : int;
  miscorrections : int;
  escapes : int;
  corrected_pct : float;
}

type workload_result = { workload : string; cells : cell list }

type result = {
  per_workload : workload_result list;
  average : cell list;
  step_histogram : (string * int) list;
}

let default_p_flips = [ 1.0 /. 1024.0; 1.0 /. 512.0; 1.0 /. 256.0; 1.0 /. 128.0 ]

(* Per-workload process-model parameters. Unlike the multi-process desktop
   survey of Figure 8, these model a single benchmark process on a freshly
   booted system (the paper's gem5 setup): large sequentially-faulted
   regions with little allocator interleaving, hence long runs and high
   PFN contiguity. GAP kernels fragment somewhat more (graph CSR arrays
   interleaved with per-vertex allocations). *)
let process_params rng (spec : Ptg_workloads.Workload.spec) =
  let base = Ptg_vm.Process_model.draw_params rng in
  let target = min spec.Ptg_workloads.Workload.cold_pages 65_536 in
  let target_ptes = 512 * ((target + 511) / 512) in
  match spec.Ptg_workloads.Workload.suite with
  | Ptg_workloads.Workload.Gap ->
      { base with Ptg_vm.Process_model.target_ptes; mean_run = 20.0; mean_gap = 8.0;
        p_break = 0.15 }
  | Ptg_workloads.Workload.Spec_int | Ptg_workloads.Workload.Spec_fp ->
      { base with Ptg_vm.Process_model.target_ptes; mean_run = 40.0; mean_gap = 8.0;
        p_break = 0.06 }

(* Walk-biased sampler: line i drawn with weight = its present-PTE count. *)
let weighted_sampler rng lines =
  let weights =
    Array.map
      (fun line ->
        Array.fold_left
          (fun acc w -> if Int64.equal w 0L then acc else acc + 1)
          0 (Ptg_pte.Line.to_words line))
      lines
  in
  let total = Array.fold_left ( + ) 0 weights in
  if total = 0 then fun () -> lines.(Rng.int rng (Array.length lines))
  else fun () ->
    let target = Rng.int rng total in
    let rec find i acc =
      let acc = acc + weights.(i) in
      if acc > target then lines.(i) else find (i + 1) acc
    in
    find 0 0

type tally = {
  mutable sampled : int;
  mutable corrected : int;
  mutable uncorrectable : int;
  mutable benign : int;
  mutable miscorrections : int;
  mutable escapes : int;
}

type prepared = {
  pr_spec : Ptg_workloads.Workload.spec;
  pr_params : Ptg_vm.Process_model.params;
  pr_wl_rng : Rng.t;
  pr_engine_rng : Rng.t;
}

(* Per-workload generator state is split off the master stream serially,
   in workload order, before any fan-out across domains — the injection
   sequence each workload sees is therefore independent of the job
   count, and parallel (or resumed-from-checkpoint) runs are
   bit-identical to serial ones. Preparation is cheap relative to a
   campaign, so a resumed slice just re-prepares every workload. *)
let prepare ~seed workloads =
  let rng = Rng.create seed in
  List.map
    (fun spec ->
      let pr_params = process_params rng spec in
      let pr_wl_rng = Rng.split rng in
      let pr_engine_rng = Rng.split rng in
      { pr_spec = spec; pr_params; pr_wl_rng; pr_engine_rng })
    workloads

(* One workload's injection campaign from its prepared generator state.
   The correction-strategy histogram is returned as a key-sorted assoc
   list so it can be serialized and merged deterministically. *)
let run_workload ?obs ~lines_per_point ~p_flips ~config prepared =
  let { pr_spec = spec; pr_params = params; pr_wl_rng = wl_rng;
        pr_engine_rng = engine_rng } = prepared in
  let mask line = Ptguard.Config.masked_for_mac config line in
  (* Copies: the prepared state stays as prepared, so a sweep value can
     run again and draw the same streams. *)
  let rng = Rng.copy wl_rng in
  let engine_rng = Rng.copy engine_rng in
  let steps : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let lines = Ptg_vm.Process_model.leaf_lines rng params in
  let sample = weighted_sampler rng lines in
  let engine = Ptguard.Engine.create ~config ?obs ~rng:engine_rng () in
          let cells =
            List.map
              (fun p_flip ->
                let t = { sampled = 0; corrected = 0; uncorrectable = 0; benign = 0; miscorrections = 0; escapes = 0 } in
                let addr_counter = ref 0 in
                while t.sampled < lines_per_point do
                  let line = sample () in
                  incr addr_counter;
                  let addr = Int64.of_int (0x4000_0000 + (!addr_counter * 64)) in
                  let stored = Ptguard.Engine.process_write engine ~addr line in
                  let faulty, flips =
                    Ptg_rowhammer.Inject.flip_line rng ~p_flip stored
                  in
                  if flips <> [] then begin
                    t.sampled <- t.sampled + 1;
                    let r = Ptguard.Engine.process_read engine ~addr ~is_pte:true faulty in
                    (match r.Ptguard.Engine.integrity with
                    | Ptguard.Engine.Corrected { step; _ } ->
                        let name = Ptguard.Correction.step_name step in
                        Hashtbl.replace steps name
                          (1 + Option.value ~default:0 (Hashtbl.find_opt steps name));
                        let ok =
                          match r.Ptguard.Engine.line with
                          | Some l -> Ptg_pte.Line.equal (mask l) (mask line)
                          | None -> false
                        in
                        if ok then t.corrected <- t.corrected + 1
                        else t.miscorrections <- t.miscorrections + 1
                    | Ptguard.Engine.Failed -> t.uncorrectable <- t.uncorrectable + 1
                    | Ptguard.Engine.Passed -> (
                        (* Flips confined to unprotected bits are invisible
                           by design; anything else passing is an escape. *)
                        match r.Ptguard.Engine.line with
                        | Some l when Ptg_pte.Line.equal (mask l) (mask line) ->
                            t.benign <- t.benign + 1
                        | Some _ | None -> t.escapes <- t.escapes + 1)
                    | Ptguard.Engine.Data_protected | Ptguard.Engine.Data_passthrough ->
                        t.escapes <- t.escapes + 1)
                  end
                done;
                let denom = max 1 (t.corrected + t.uncorrectable) in
                {
                  p_flip;
                  sampled = t.sampled;
                  corrected = t.corrected;
                  uncorrectable = t.uncorrectable;
                  benign = t.benign;
                  miscorrections = t.miscorrections;
                  escapes = t.escapes;
                  corrected_pct = 100.0 *. float_of_int t.corrected /. float_of_int denom;
                })
              p_flips
          in
  ( { workload = spec.Ptg_workloads.Workload.name; cells },
    List.sort
      (fun (ka, _) (kb, _) -> String.compare ka kb)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) steps []) )

(* Assemble per-workload parts — in workload order — into the figure:
   merged strategy histogram and the pooled per-p_flip average row. The
   merge sums commutatively and the histogram is re-sorted, so parts
   computed in any batching (checkpoint slices included) assemble
   byte-identically. *)
let assemble ~p_flips parts =
  let per_workload = List.map fst parts in
  let steps : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, wl_steps) ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace steps k (v + Option.value ~default:0 (Hashtbl.find_opt steps k)))
        wl_steps)
    parts;
  (* Pool the per-workload tallies into the per-p_flip average row. *)
  let average =
    List.mapi
      (fun pi p_flip ->
        let cells = List.map (fun w -> List.nth w.cells pi) per_workload in
        let sum g = List.fold_left (fun acc c -> acc + g c) 0 cells in
        let corrected = sum (fun c -> c.corrected) in
        let uncorrectable = sum (fun c -> c.uncorrectable) in
        let denom = max 1 (corrected + uncorrectable) in
        {
          p_flip;
          sampled = sum (fun c -> c.sampled);
          corrected;
          uncorrectable;
          benign = sum (fun c -> c.benign);
          miscorrections = sum (fun c -> c.miscorrections);
          escapes = sum (fun c -> c.escapes);
          corrected_pct = 100.0 *. float_of_int corrected /. float_of_int denom;
        })
      p_flips
  in
  {
    per_workload;
    average;
    step_histogram =
      List.sort
        (fun (ka, a) (kb, b) ->
          match compare b a with 0 -> String.compare ka kb | c -> c)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) steps []);
  }

module Codec = Ptg_snapshot.Codec

let put_part b (w, steps) =
  Codec.put_string b w.workload;
  Codec.put_list b
    (fun b c ->
      Codec.put_float b c.p_flip;
      Codec.put_varint b c.sampled;
      Codec.put_varint b c.corrected;
      Codec.put_varint b c.uncorrectable;
      Codec.put_varint b c.benign;
      Codec.put_varint b c.miscorrections;
      Codec.put_varint b c.escapes;
      Codec.put_float b c.corrected_pct)
    w.cells;
  Codec.put_list b
    (fun b (k, v) ->
      Codec.put_string b k;
      Codec.put_varint b v)
    steps

let get_part r =
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
          p_flip;
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
  ({ workload; cells }, steps)

(* Generator states are re-derived for every run (cheap); only the
   campaign results are stored, after a header of the run's [p_flips].
   A stored part answers its workload only with one cell per run
   [p_flip], in order — [assemble] indexes every part by them. *)
let sweep ?jobs ?(p_flips = default_p_flips) ?(config = Ptguard.Config.optimized)
    ?(workloads = Ptg_workloads.Workload.fig9_subset) ~lines_per_point ~seed () =
  let header = Codec.writer () in
  Codec.put_list header Codec.put_float p_flips;
  {
    Sweep.kind = "fig9";
    section = "fig9.parts";
    header = Codec.contents header;
    jobs;
    prologue = Sweep.Given ();
    cases = prepare ~seed workloads;
    run = (fun ?obs () p -> run_workload ?obs ~lines_per_point ~p_flips ~config p);
    finish = assemble ~p_flips;
    put = put_part;
    get = get_part;
    answers =
      (fun (w, _) p ->
        w.workload = p.pr_spec.Ptg_workloads.Workload.name
        && List.map (fun c -> c.p_flip) w.cells = p_flips);
  }

let run ?jobs ?(lines_per_point = 300) ?(seed = 9L) ?p_flips ?config ?workloads
    ?obs () =
  Sweep.run ?obs (sweep ?jobs ?p_flips ?config ?workloads ~lines_per_point ~seed ())

let pp_p p =
  if p > 0.0 && Float.is_integer (1.0 /. p) then
    Printf.sprintf "1/%d" (int_of_float (1.0 /. p))
  else Printf.sprintf "%.4f" p

let header result =
  "workload" :: List.map (fun c -> pp_p c.p_flip) result.average

let to_rows result =
  List.map
    (fun w ->
      w.workload :: List.map (fun c -> Table.f2 c.corrected_pct) w.cells)
    result.per_workload
  @ [ "AVERAGE" :: List.map (fun c -> Table.f2 c.corrected_pct) result.average ]

let to_string result =
  let total_mis =
    List.fold_left (fun acc (c : cell) -> acc + c.miscorrections) 0 result.average
  in
  let total_escapes =
    List.fold_left (fun acc (c : cell) -> acc + c.escapes) 0 result.average
  in
  "Figure 9: % of faulty PTE cachelines corrected, by p_flip\n"
  ^ Table.render
      ~align:(Table.Left :: List.map (fun _ -> Table.Right) result.average)
      ~header:(header result) (to_rows result)
  ^ Printf.sprintf
      "Mis-corrections: %d, undetected escapes: %d (paper: zero of each; 100%% coverage).\n"
      total_mis total_escapes
  ^ "Paper: 93% corrected at p=1/512, 70% at p=1/128.\n"
  ^ "Correction strategy usage:\n"
  ^ String.concat ""
      (List.map
         (fun (s, n) -> Printf.sprintf "  %-16s %d\n" s n)
         result.step_histogram)

let to_csv result ~path =
  Table.save_csv ~path ~header:(header result) (to_rows result)

type multi = {
  p_flips : float list;
  corrected : Stats.summary list;
  total_miscorrections : int;
  total_escapes : int;
}

let run_multi ?jobs ?(seeds = 5) ?lines_per_point ?(p_flips = default_p_flips)
    ?config ?workloads () =
  if seeds < 1 then invalid_arg "Fig9.run_multi: seeds";
  let runs =
    List.init seeds (fun i ->
        run ?jobs ?lines_per_point ~p_flips ?config ?workloads
          ~seed:(Int64.of_int (2000 + i)) ())
  in
  let corrected =
    List.mapi
      (fun pi _ ->
        Stats.summarize
          (Array.of_list
             (List.map
                (fun r -> (List.nth r.average pi).corrected_pct)
                runs)))
      p_flips
  in
  {
    p_flips;
    corrected;
    total_miscorrections =
      List.fold_left
        (fun acc r ->
          acc + List.fold_left (fun a (c : cell) -> a + c.miscorrections) 0 r.average)
        0 runs;
    total_escapes =
      List.fold_left
        (fun acc r ->
          acc + List.fold_left (fun a (c : cell) -> a + c.escapes) 0 r.average)
        0 runs;
  }

let multi_to_string m =
  Printf.sprintf "Figure 9 across %d seeds (corrected %%, mean +- se):\n"
    (match m.corrected with s :: _ -> s.Stats.n | [] -> 0)
  ^ String.concat ""
      (List.mapi
         (fun i s ->
           Printf.sprintf "  p_flip %-7s %.1f%% +- %.2f\n"
             (pp_p (List.nth m.p_flips i))
             s.Stats.mean s.Stats.stderr)
         m.corrected)
  ^ Printf.sprintf "  mis-corrections: %d, escapes: %d (must both be 0)\n"
      m.total_miscorrections m.total_escapes

(* ------------------------------------------------------------------ *)
(* Section VI-F methodology check: trace-frequency replay              *)
(* ------------------------------------------------------------------ *)

type replay_result = {
  trace_len : int;
  faulty : int;
  corrected : int;
  uncorrectable : int;
  corrected_pct : float;
}

let replay_with_faults ?(p_flip = 1.0 /. 512.0) ?(seed = 19L) ?(max_events = 2000)
    (t : Mem_trace.t) ~lines =
  if Array.length lines = 0 then invalid_arg "Fig9.replay_with_faults: no lines";
  let base = Ptg_cpu.Core.default_config.Ptg_cpu.Core.data_region_bytes in
  let rng = Rng.create seed in
  let engine =
    Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng:(Rng.split rng) ()
  in
  let corrected = ref 0 and uncorrectable = ref 0 and faulty = ref 0 in
  let n = Array.length t.events in
  let i = ref 0 in
  while !i < n && !faulty < max_events do
    let ev_addr = t.events.(!i).Mem_trace.addr in
    if Int64.compare ev_addr base < 0 then
      invalid_arg
        (Printf.sprintf
           "Fig9.replay_with_faults: event %d: address 0x%Lx is below the \
            leaf-PTE region"
           !i ev_addr);
    (* leaf line k covers virtual pages 8k..8k+7 *)
    let idx =
      Int64.to_int (Int64.div (Int64.sub ev_addr base) 64L) mod Array.length lines
    in
    let line = lines.(idx) in
    let addr = Int64.of_int (0x4800_0000 + (idx * 64)) in
    let stored = Ptguard.Engine.process_write engine ~addr line in
    let damaged, flips = Ptg_rowhammer.Inject.flip_line rng ~p_flip stored in
    if flips <> [] then begin
      incr faulty;
      match Ptguard.Engine.process_read engine ~addr ~is_pte:true damaged with
      | { Ptguard.Engine.integrity = Ptguard.Engine.Corrected _; _ } -> incr corrected
      | { integrity = Ptguard.Engine.Failed; _ } -> incr uncorrectable
      | _ -> () (* benign: unprotected-bit damage *)
    end;
    incr i
  done;
  let denom = max 1 (!corrected + !uncorrectable) in
  {
    trace_len = n;
    faulty = !faulty;
    corrected = !corrected;
    uncorrectable = !uncorrectable;
    corrected_pct = 100.0 *. float_of_int !corrected /. float_of_int denom;
  }

type sampler_comparison = { trace_pct : float; weighted_pct : float }

let compare_samplers ?(instrs = 400_000) ?(seed = 20L) ?(p_flip = 1.0 /. 512.0)
    (spec : Ptg_workloads.Workload.spec) =
  (* One synthetic process underlies both samplers. *)
  let rng = Rng.create seed in
  let params =
    {
      (Ptg_vm.Process_model.draw_params rng) with
      Ptg_vm.Process_model.target_ptes = 32768;
      mean_run = 40.0;
      mean_gap = 8.0;
      p_break = 0.06;
    }
  in
  let lines = Ptg_vm.Process_model.leaf_lines rng params in
  (* trace-frequency replay *)
  let trace = Mem_trace.record_walks ~instrs ~seed spec in
  let trace_result = replay_with_faults ~p_flip ~seed trace ~lines in
  (* the weighted sampler, this figure's default *)
  let weighted =
    run ~lines_per_point:trace_result.faulty ~seed ~p_flips:[ p_flip ]
      ~workloads:[ spec ] ()
  in
  let weighted_pct =
    match weighted.average with (c : cell) :: _ -> c.corrected_pct | [] -> 0.0
  in
  { trace_pct = trace_result.corrected_pct; weighted_pct }

let print_comparison (spec : Ptg_workloads.Workload.spec) c =
  Printf.printf
    "Sampler validation (%s): trace-frequency replay corrects %.1f%%, the\n\
     Fig. 9 weighted sampler %.1f%% — the approximation the harness uses.\n"
    spec.Ptg_workloads.Workload.name c.trace_pct c.weighted_pct
