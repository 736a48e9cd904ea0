type kind = Fig6 | Fig7 | Fig8 | Fig9 | Multicore | Trace | Fullsys

let kinds = [ Fig6; Fig7; Fig8; Fig9; Multicore; Trace; Fullsys ]

let kind_name = function
  | Fig6 -> "fig6"
  | Fig7 -> "fig7"
  | Fig8 -> "fig8"
  | Fig9 -> "fig9"
  | Multicore -> "multicore"
  | Trace -> "trace"
  | Fullsys -> "fullsys"

let kind_names = List.map kind_name kinds

let kind_of_name name =
  List.find_opt (fun k -> kind_name k = name) kinds

type t = {
  kind : kind;
  seed : int64;
  seeds : int;
  reduced : bool;
  design : Ptguard.Config.design;
  mac_latency : int option;
  workloads : string list option;
  instrs : int option;
  warmup : int option;
  processes : int option;
  lines : int option;
  mixes : int option;
  trace_path : string option;
  mitigation : string option;
  mit_params : (string * Ptg_mitigations.Registry.value) list;
  jobs : int;
}

let make ?(seed = 42L) ?(seeds = 1) ?(reduced = false)
    ?(design = Ptguard.Config.Baseline) ?mac_latency ?workloads ?instrs ?warmup
    ?processes ?lines ?mixes ?trace ?mitigation ?(mit_params = []) ?(jobs = 1)
    kind =
  {
    kind;
    seed;
    seeds;
    reduced;
    design;
    mac_latency;
    workloads;
    instrs;
    warmup;
    processes;
    lines;
    mixes;
    trace_path = trace;
    mitigation;
    mit_params;
    jobs;
  }

(* ------------------------------------------------------------------ *)
(* Default resolution. Full sizes are the CLI defaults of each         *)
(* subcommand; reduced sizes are the bench harness's reduced sweep.    *)
(* ------------------------------------------------------------------ *)

let config_of_design = function
  | Ptguard.Config.Baseline -> Ptguard.Config.baseline
  | Ptguard.Config.Optimized -> Ptguard.Config.optimized

(* The CLI's --design tokens, reused as the wire/canonical encoding
   (Config.design_name is the human display name). *)
let design_wire_name = function
  | Ptguard.Config.Baseline -> "baseline"
  | Ptguard.Config.Optimized -> "optimized"

let design_of_wire_name = function
  | "baseline" -> Some Ptguard.Config.Baseline
  | "optimized" -> Some Ptguard.Config.Optimized
  | _ -> None

let resolve_instrs t =
  match (t.instrs, t.kind, t.reduced) with
  | Some i, _, _ -> i
  | None, Fig6, false -> 2_000_000
  | None, Fig6, true -> 600_000
  | None, Fig7, false -> 1_000_000
  | None, Fig7, true -> 250_000
  | None, Multicore, false -> 400_000
  | None, Multicore, true -> 120_000
  | None, Fullsys, false -> 60_000
  | None, Fullsys, true -> 20_000
  | None, (Fig8 | Fig9 | Trace), _ -> 0

let resolve_warmup t =
  match (t.warmup, t.kind, t.reduced) with
  | Some w, _, _ -> w
  | None, Fig6, false -> 500_000
  | None, Fig6, true -> 200_000
  | None, Fig7, false -> 300_000
  | None, Fig7, true -> 100_000
  | None, (Fig8 | Fig9 | Multicore | Trace | Fullsys), _ -> 0

let resolve_mac_latency t =
  match t.mac_latency with
  | Some l -> l
  | None -> (config_of_design t.design).Ptguard.Config.mac_latency_cycles

let resolve_workload_names t =
  match t.workloads with
  | Some names -> names
  | None -> Ptg_workloads.Workload.names

let resolve_processes t =
  match (t.processes, t.reduced) with
  | Some p, _ -> p
  | None, false -> 623
  | None, true -> 200

let resolve_lines t =
  match (t.lines, t.reduced) with
  | Some l, _ -> l
  | None, false -> 300
  | None, true -> 150

let resolve_mixes t =
  match (t.mixes, t.reduced) with
  | Some m, _ -> m
  | None, false -> 16
  | None, true -> 8

let multi_seed_kind = function Fig6 | Fig9 -> true | _ -> false

let validate t =
  let ( let* ) = Result.bind in
  let positive what n =
    if n >= 1 then Ok () else Error (Printf.sprintf "%s must be >= 1, got %d" what n)
  in
  let* () = positive "seeds" t.seeds in
  let* () = positive "jobs" t.jobs in
  let* () =
    if t.seeds > 1 && not (multi_seed_kind t.kind) then
      Error
        (Printf.sprintf "seeds > 1 is only supported for fig6 and fig9, not %s"
           (kind_name t.kind))
    else Ok ()
  in
  let* () =
    if t.warmup <> None && Option.get t.warmup < 0 then
      Error "warmup must be >= 0"
    else Ok ()
  in
  let* () =
    match t.instrs with Some i -> positive "instrs" i | None -> Ok ()
  in
  let* () =
    match t.mac_latency with
    | Some l when l < 0 -> Error "mac_latency must be >= 0"
    | _ -> Ok ()
  in
  let* () =
    match t.processes with Some p -> positive "processes" p | None -> Ok ()
  in
  let* () = match t.lines with Some l -> positive "lines" l | None -> Ok () in
  let* () = match t.mixes with Some m -> positive "mixes" m | None -> Ok () in
  let* () =
    match t.workloads with
    | None -> Ok ()
    | Some [] -> Error "workloads must be non-empty"
    | Some names ->
        List.fold_left
          (fun acc name ->
            let* () = acc in
            match Ptg_workloads.Workload.by_name name with
            | Some _ -> Ok ()
            | None ->
                Error
                  (Printf.sprintf "unknown workload %s (try: %s)" name
                     (String.concat ", " Ptg_workloads.Workload.names)))
          (Ok ()) names
  in
  let* () =
    match (t.kind, t.trace_path) with
    | Trace, None -> Error "trace scenarios require a trace file"
    | Trace, Some path ->
        if Sys.file_exists path && not (Sys.is_directory path) then Ok ()
        else Error (Printf.sprintf "trace file %s does not exist" path)
    | _, Some _ ->
        Error
          (Printf.sprintf "trace is only valid for kind trace, not %s"
             (kind_name t.kind))
    | _, None -> Ok ()
  in
  let* () =
    match (t.kind, t.mitigation) with
    | Trace, Some name -> Ptg_mitigations.Registry.check_params name t.mit_params
    | Trace, None ->
        if t.mit_params = [] then Ok ()
        else Error "params require a mitigation"
    | _, Some _ ->
        Error
          (Printf.sprintf "mitigation is only valid for kind trace, not %s"
             (kind_name t.kind))
    | _, None ->
        if t.mit_params = [] then Ok ()
        else Error "params are only valid for kind trace"
  in
  Ok ()

let check t =
  match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Canonical form and content hash                                     *)
(* ------------------------------------------------------------------ *)

(* FNV-1a, 64-bit ({!Ptg_snapshot.Codec.fnv1a64}): tiny, dependency-free,
   and stable across runs and platforms — exactly what a cache key and a
   trace payload need. Not adversarially collision-resistant; the cache
   is an optimization, not a security boundary (and a collision only
   ever returns another deterministic experiment report). *)
let fnv1a64 s = Ptg_snapshot.Codec.fnv1a64 s

(* Trace scenarios cache by what the trace *contains*, not where it
   lives: two paths with identical bytes share a cache entry, and
   rewriting a file under a cached path misses instead of serving stale
   results. *)
let trace_content_hash path =
  Printf.sprintf "%016Lx"
    (fnv1a64 (In_channel.with_open_bin path In_channel.input_all))

(* [skip_instrs] drops the instruction budget from the rendering: the
   warm-start store keys checkpoints by everything {e except} how far
   the run goes, so a longer run can resume from a shorter run's
   snapshots (only [Fullsys] scales by instructions this way). *)
let canonical_ext ~skip_instrs t =
  check t;
  let buf = Buffer.create 128 in
  let first = ref true in
  let field key render =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '"';
    Buffer.add_string buf key;
    Buffer.add_string buf "\":";
    render ()
  in
  let int_field key v = field key (fun () -> Buffer.add_string buf (string_of_int v)) in
  let str_field key v =
    field key (fun () ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (Ptg_obs.Registry.json_escape v);
        Buffer.add_char buf '"')
  in
  (* Multi-seed sweeps draw their own per-run seeds, so [seed] carries no
     information there; emitting only one of seed/seeds keeps the hash
     honest about what the computation depends on. *)
  let seed_field () =
    if t.seeds > 1 then int_field "seeds" t.seeds
    else field "seed" (fun () -> Buffer.add_string buf (Int64.to_string t.seed))
  in
  Buffer.add_char buf '{';
  (* Fields appear in alphabetical key order within each kind. *)
  (match t.kind with
  | Fig6 ->
      str_field "design" (design_wire_name t.design);
      int_field "instrs" (resolve_instrs t);
      str_field "kind" "fig6";
      int_field "mac_latency" (resolve_mac_latency t);
      seed_field ();
      int_field "warmup" (resolve_warmup t);
      field "workloads" (fun () ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i name ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              Buffer.add_string buf (Ptg_obs.Registry.json_escape name);
              Buffer.add_char buf '"')
            (resolve_workload_names t);
          Buffer.add_char buf ']')
  | Fig7 ->
      int_field "instrs" (resolve_instrs t);
      str_field "kind" "fig7";
      seed_field ();
      int_field "warmup" (resolve_warmup t)
  | Fig8 ->
      str_field "kind" "fig8";
      int_field "processes" (resolve_processes t);
      seed_field ()
  | Fig9 ->
      str_field "kind" "fig9";
      int_field "lines" (resolve_lines t);
      seed_field ()
  | Multicore ->
      int_field "instrs" (resolve_instrs t);
      str_field "kind" "multicore";
      int_field "mixes" (resolve_mixes t);
      seed_field ()
  | Trace ->
      str_field "kind" "trace";
      (match t.mitigation with
      | None -> ()
      | Some name ->
          str_field "mitigation" name;
          field "params" (fun () ->
              Buffer.add_char buf '{';
              List.iteri
                (fun i (key, v) ->
                  if i > 0 then Buffer.add_char buf ',';
                  Buffer.add_char buf '"';
                  Buffer.add_string buf (Ptg_obs.Registry.json_escape key);
                  Buffer.add_string buf "\":";
                  Buffer.add_string buf
                    (Ptg_mitigations.Registry.value_to_string v))
                (Option.get
                   (Ptg_mitigations.Registry.resolved_params name t.mit_params));
              Buffer.add_char buf '}'));
      seed_field ();
      str_field "trace" (trace_content_hash (Option.get t.trace_path))
  | Fullsys ->
      if not skip_instrs then int_field "instrs" (resolve_instrs t);
      str_field "kind" "fullsys";
      seed_field ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let canonical t = canonical_ext ~skip_instrs:false t
let hash64 t = fnv1a64 (canonical t)
let hash t = Printf.sprintf "%016Lx" (hash64 t)
let prefix_canonical t = canonical_ext ~skip_instrs:true t
let prefix_hash64 t = fnv1a64 (prefix_canonical t)
let prefix_hash t = Printf.sprintf "%016Lx" (prefix_hash64 t)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type output =
  | Fig6_out of Fig6.result
  | Fig6_multi_out of Fig6.multi
  | Fig7_out of Fig7.result
  | Fig8_out of Fig8.result
  | Fig9_out of Fig9.result
  | Fig9_multi_out of Fig9.multi
  | Multicore_out of Multicore_exp.result
  | Trace_out of { mitigation : string option; result : Mem_trace.replay_result }
  | Fullsys_out of Fullsys.result

type plan =
  | Sweep : ('p, 'c, 'u, output) Sweep.t -> plan
  | Machine of { seed : int64; instrs : int }
  | Whole of (?obs:Ptg_obs.Sink.t -> unit -> output)

(* The one dispatch from a scenario to what runs it. Multi-seed sweeps
   aggregate across seeds at the end, so they run whole. *)
let plan t =
  check t;
  let jobs = t.jobs and seed = t.seed in
  let sweep s out = Sweep { s with Sweep.finish = (fun u -> out (s.Sweep.finish u)) } in
  match t.kind with
  | Fig6 ->
      let config =
        Ptguard.Config.with_mac_latency (config_of_design t.design)
          (resolve_mac_latency t)
      in
      let workloads =
        List.map
          (fun name -> Option.get (Ptg_workloads.Workload.by_name name))
          (resolve_workload_names t)
      in
      let instrs = resolve_instrs t and warmup = resolve_warmup t in
      if t.seeds > 1 then
        Whole
          (fun ?obs () ->
            Fig6_multi_out
              (Fig6.run_multi ~jobs ~seeds:t.seeds ~instrs ~warmup ~config
                 ~workloads ?obs ()))
      else
        sweep
          (Fig6.sweep ~jobs ~instrs ~warmup ~seed ~config workloads)
          (fun r -> Fig6_out r)
  | Fig7 ->
      sweep
        (Fig7.sweep ~jobs ~instrs:(resolve_instrs t) ~warmup:(resolve_warmup t)
           ~seed ())
        (fun r -> Fig7_out r)
  | Fig8 ->
      Whole
        (fun ?obs () ->
          Fig8_out (Fig8.run ~jobs ~seed ~processes:(resolve_processes t) ?obs ()))
  | Fig9 ->
      let lines_per_point = resolve_lines t in
      if t.seeds > 1 then
        Whole
          (fun ?obs:_ () ->
            Fig9_multi_out (Fig9.run_multi ~jobs ~seeds:t.seeds ~lines_per_point ()))
      else
        sweep (Fig9.sweep ~jobs ~lines_per_point ~seed ()) (fun r -> Fig9_out r)
  | Multicore ->
      sweep
        (Multicore_exp.sweep ~jobs ~instrs_per_core:(resolve_instrs t)
           ~mixes:(resolve_mixes t) ~seed ())
        (fun r -> Multicore_out r)
  | Trace ->
      Whole
        (fun ?obs:_ () ->
          let trace = Mem_trace.load ~path:(Option.get t.trace_path) in
          match
            Mem_trace.replay ?mitigation:t.mitigation ~params:t.mit_params ~seed
              trace
          with
          | Ok result -> Trace_out { mitigation = t.mitigation; result }
          | Error msg -> invalid_arg ("Scenario: " ^ msg))
  | Fullsys -> Machine { seed; instrs = resolve_instrs t }

let run ?obs t =
  match plan t with
  | Sweep s -> Sweep.run ?obs s
  | Machine { seed; instrs } ->
      (* Guarded machine under attack (the mode's defaults); [totals] so
         the rendering is identical however the budget was chunked —
         including when the checkpoint driver serves this scenario from
         a warm-start snapshot instead. *)
      let m = Fullsys.create ?obs ~seed () in
      ignore (Fullsys.run m ~instrs);
      Fullsys_out (Fullsys.totals m)
  | Whole f -> f ?obs ()

let render = function
  | Fig6_out r -> Fig6.to_string r
  | Fig6_multi_out m -> Fig6.multi_to_string m
  | Fig7_out r -> Fig7.to_string r
  | Fig8_out r -> Fig8.to_string r
  | Fig9_out r -> Fig9.to_string r
  | Fig9_multi_out m -> Fig9.multi_to_string m
  | Multicore_out r -> Multicore_exp.to_string r
  | Trace_out { mitigation; result } ->
      Mem_trace.render_result ?mitigation result
  | Fullsys_out r -> Format.asprintf "%a@." Fullsys.pp_result r

let run_to_string ?obs t = render (run ?obs t)

let save_csv out ~path =
  match out with
  | Fig6_out r -> Fig6.to_csv r ~path
  | Fig7_out r -> Fig7.to_csv r ~path
  | Fig8_out r -> Fig8.to_csv r ~path
  | Fig9_out r -> Fig9.to_csv r ~path
  | Multicore_out r -> Multicore_exp.to_csv r ~path
  | Fig6_multi_out _ | Fig9_multi_out _ | Trace_out _ | Fullsys_out _ -> ()
