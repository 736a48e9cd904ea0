type kind =
  | Fig6 | Fig7 | Fig8 | Fig9 | Multicore | Trace | Fullsys
  | Attacks | Baselines | Ablations | Security | Tables

let kinds =
  [ Fig6; Fig7; Fig8; Fig9; Multicore; Trace; Fullsys;
    Attacks; Baselines; Ablations; Security; Tables ]

let kind_name = function
  | Fig6 -> "fig6"
  | Fig7 -> "fig7"
  | Fig8 -> "fig8"
  | Fig9 -> "fig9"
  | Multicore -> "multicore"
  | Trace -> "trace"
  | Fullsys -> "fullsys"
  | Attacks -> "attacks"
  | Baselines -> "baselines"
  | Ablations -> "ablations"
  | Security -> "security"
  | Tables -> "tables"

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
  iterations : int option;
  trials : int option;
  trace_path : string option;
  mitigation : string option;
  mit_params : (string * Ptg_mitigations.Registry.value) list;
  guarded : bool;
  attack : bool;
  jobs : int;
}

let make ?(seed = 42L) ?(seeds = 1) ?(reduced = false)
    ?(design = Ptguard.Config.Baseline) ?mac_latency ?workloads ?instrs ?warmup
    ?processes ?lines ?mixes ?iterations ?trials ?trace ?mitigation ?(mit_params = [])
    ?(guarded = true) ?(attack = true) ?(jobs = 1) kind =
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
    iterations;
    trials;
    trace_path = trace;
    mitigation;
    mit_params;
    guarded;
    attack;
    jobs;
  }

module Json = Ptg_util.Json
module Registry = Ptg_mitigations.Registry

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

(* ------------------------------------------------------------------ *)
(* Normal form                                                         *)
(* ------------------------------------------------------------------ *)

(* Every size the kind uses resolved (full sizes are the CLI defaults of
   each subcommand, reduced sizes the bench harness's reduced sweep),
   every field it ignores cleared, and [reduced] (folded into the sizes)
   and [jobs] (results are identical for any job count) at their
   defaults. Multi-seed sweeps draw their own per-run seeds, and the
   security analysis and the tables draw nothing, so [seed] is cleared
   there too. Two scenarios that describe the same
   computation have the same normal form. *)
let normalize t =
  let size v (full, reduced) =
    Some (Option.value v ~default:(if t.reduced then reduced else full))
  in
  let seed = if t.seeds > 1 then 42L else t.seed in
  let n = { (make t.kind) with seed; seeds = t.seeds } in
  match t.kind with
  | Fig6 ->
      let latency = (config_of_design t.design).Ptguard.Config.mac_latency_cycles in
      {
        n with
        design = t.design;
        mac_latency = Some (Option.value t.mac_latency ~default:latency);
        workloads = Some (Option.value t.workloads ~default:Ptg_workloads.Workload.names);
        instrs = size t.instrs (2_000_000, 600_000);
        warmup = size t.warmup (500_000, 200_000);
      }
  | Fig7 ->
      {
        n with
        instrs = size t.instrs (1_000_000, 250_000);
        warmup = size t.warmup (300_000, 100_000);
      }
  | Fig8 -> { n with processes = size t.processes (623, 200) }
  | Fig9 -> { n with lines = size t.lines (300, 150) }
  | Multicore ->
      { n with instrs = size t.instrs (400_000, 120_000); mixes = size t.mixes (16, 8) }
  | Trace ->
      let resolved name = Registry.resolved_params name t.mit_params in
      {
        n with
        trace_path = t.trace_path;
        mitigation = t.mitigation;
        mit_params = Option.value ~default:[] (Option.bind t.mitigation resolved);
      }
  | Fullsys ->
      {
        n with
        instrs = size t.instrs (60_000, 20_000);
        guarded = t.guarded;
        attack = t.attack;
      }
  | Attacks -> { n with iterations = size t.iterations (400_000, 200_000) }
  | Baselines -> { n with trials = size t.trials (500, 250) }
  | Ablations ->
      { n with lines = size t.lines (400, 150); instrs = size t.instrs (400_000, 150_000) }
  | Security | Tables -> make t.kind

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let multi_seed_kind = function Fig6 | Fig9 -> true | _ -> false

(* Only a regular file is a trace: a device or a fifo could be read
   without end when the trace is hashed or loaded. *)
let check_trace_file path =
  match (Sys.is_regular_file path, Sys.is_directory path) with
  | true, _ -> Ok ()
  | false, true -> Error (Printf.sprintf "trace file %s is a directory" path)
  | false, false ->
      Error (Printf.sprintf "trace file %s is not a regular file" path)
  | exception Sys_error _ ->
      Error (Printf.sprintf "trace file %s does not exist" path)

let machine_choice_error kind =
  Printf.sprintf "guarded and attack are only valid for kind fullsys, not %s"
    (kind_name kind)

let only_for field owner kind =
  Printf.sprintf "%s is only valid for kind %s, not %s" field (kind_name owner)
    (kind_name kind)

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
  let non_negative what = function
    | Some n when n < 0 -> Error (what ^ " must be >= 0")
    | _ -> Ok ()
  in
  let* () = non_negative "warmup" t.warmup in
  let* () = Option.fold ~none:(Ok ()) ~some:(positive "instrs") t.instrs in
  let* () = non_negative "mac_latency" t.mac_latency in
  let* () = Option.fold ~none:(Ok ()) ~some:(positive "processes") t.processes in
  let* () = Option.fold ~none:(Ok ()) ~some:(positive "lines") t.lines in
  let* () = Option.fold ~none:(Ok ()) ~some:(positive "mixes") t.mixes in
  let* () = Option.fold ~none:(Ok ()) ~some:(positive "iterations") t.iterations in
  let* () = Option.fold ~none:(Ok ()) ~some:(positive "trials") t.trials in
  (* Like the machine choice, a size only one kind has is an error on
     any other. *)
  let owned_by owner field = function
    | Some _ when t.kind <> owner -> Error (only_for field owner t.kind)
    | _ -> Ok ()
  in
  let* () = owned_by Attacks "iterations" t.iterations in
  let* () = owned_by Baselines "trials" t.trials in
  let* () =
    match t.workloads with
    | None -> Ok ()
    | Some [] -> Error "workloads must be non-empty"
    | Some names -> (
        match List.find_opt (fun n -> Ptg_workloads.Workload.by_name n = None) names with
        | Some name ->
            Error
              (Printf.sprintf "unknown workload %s (try: %s)" name
                 (String.concat ", " Ptg_workloads.Workload.names))
        | None -> Ok ())
  in
  let* () =
    match (t.kind, t.trace_path) with
    | Trace, None -> Error "trace scenarios require a trace file"
    | Trace, Some path -> check_trace_file path
    | _, Some _ -> Error (only_for "trace" Trace t.kind)
    | _, None -> Ok ()
  in
  let* () =
    if t.kind <> Fullsys && not (t.guarded && t.attack) then
      Error (machine_choice_error t.kind)
    else Ok ()
  in
  let* () =
    match (t.kind, t.mitigation) with
    | Trace, Some name -> (
        let* () = Registry.check_params name t.mit_params in
        (* JSON, and so the canonical form, has no nan or infinity. *)
        match
          List.find_opt
            (function _, Registry.Float f -> not (Float.is_finite f) | _ -> false)
            t.mit_params
        with
        | Some (key, _) -> Error (Printf.sprintf "params.%s must be finite" key)
        | None -> Ok ())
    | Trace, None ->
        if t.mit_params = [] then Ok ()
        else Error "params require a mitigation"
    | _, Some _ -> Error (only_for "mitigation" Trace t.kind)
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
(* JSON: the wire form, its decoder and the canonical form             *)
(* ------------------------------------------------------------------ *)

(* The wire form's fields, in wire order: the kind, one of seed/seeds,
   and every other field only when it was given (design always for
   Fig6; guarded and attack only when false), so a request spells what
   its sender chose. *)
let fields t =
  let fields = ref [] in
  let add key v = fields := (key, v) :: !fields in
  let add_int key = Option.iter (fun i -> add key (Json.Int (Int64.of_int i))) in
  add "kind" (Json.String (kind_name t.kind));
  if t.seeds > 1 then add "seeds" (Json.Int (Int64.of_int t.seeds))
  else add "seed" (Json.Int t.seed);
  if t.reduced then add "reduced" (Json.Bool true);
  if t.kind = Fig6 then begin
    add "design" (Json.String (design_wire_name t.design));
    add_int "mac_latency" t.mac_latency;
    Option.iter
      (fun ws -> add "workloads" (Json.List (List.map (fun w -> Json.String w) ws)))
      t.workloads
  end;
  add_int "instrs" t.instrs;
  add_int "warmup" t.warmup;
  add_int "processes" t.processes;
  add_int "lines" t.lines;
  add_int "mixes" t.mixes;
  add_int "iterations" t.iterations;
  add_int "trials" t.trials;
  if not t.guarded then add "guarded" (Json.Bool false);
  if not t.attack then add "attack" (Json.Bool false);
  Option.iter (fun p -> add "trace" (Json.String p)) t.trace_path;
  Option.iter (fun m -> add "mitigation" (Json.String m)) t.mitigation;
  let param = function
    | Registry.Int i -> Json.Int (Int64.of_int i)
    | Registry.Float f -> Json.Float f
    | Registry.Bool b -> Json.Bool b
  in
  if t.mit_params <> [] then
    add "params" (Json.Obj (List.map (fun (key, v) -> (key, param v)) t.mit_params));
  if t.jobs <> 1 then add "jobs" (Json.Int (Int64.of_int t.jobs));
  List.rev !fields

let to_json t = Json.Obj (fields t)

(* The wire form's field names, each with its slot in the array the
   decoder reads a scenario's fields into; -1 for any other name. *)
let wire_slot = function
  | "kind" -> 0
  | "seed" -> 1
  | "seeds" -> 2
  | "reduced" -> 3
  | "design" -> 4
  | "mac_latency" -> 5
  | "workloads" -> 6
  | "instrs" -> 7
  | "warmup" -> 8
  | "processes" -> 9
  | "lines" -> 10
  | "mixes" -> 11
  | "iterations" -> 12
  | "trials" -> 13
  | "guarded" -> 14
  | "attack" -> 15
  | "trace" -> 16
  | "mitigation" -> 17
  | "params" -> 18
  | "jobs" -> 19
  | _ -> -1

let wire_field_count = 20

let ( let* ) = Result.bind

let as_int64 what = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "%s must be an integer" what)

let as_bool what = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s must be a boolean" what)

let as_string what = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "%s must be a string" what)

(* The decoder reads in direct style and leaves by [Reject] at the
   first error: a [let*] chain would allocate a continuation closure
   for every field. *)
exception Reject of string

let ok_or_reject = function Ok x -> x | Error e -> raise (Reject e)

(* One pass over an object's fields: each known field's first value
   lands in its slot, and the first unknown field is rejected. *)
let read_fields fields =
  let slots = Array.make wire_field_count None in
  List.iter
    (fun (key, v) ->
      let i = wire_slot key in
      if i < 0 then raise (Reject (Printf.sprintf "unknown scenario field \"%s\"" key));
      if Option.is_none slots.(i) then slots.(i) <- Some v)
    fields;
  slots

let of_json json =
  match json with
  | Json.Obj fields -> (
      try
        let slots = read_fields fields in
        (* Field [key] converted by [conv]; [None] when absent. *)
        let field key conv =
          match slots.(wire_slot key) with
          | None -> None
          | Some v -> Some (ok_or_reject (conv key v))
        in
        let kind =
          match slots.(wire_slot "kind") with
          | None -> raise (Reject "scenario is missing \"kind\"")
          | Some v -> (
              let name = ok_or_reject (as_string "kind" v) in
              match kind_of_name name with
              | Some kind -> kind
              | None ->
                  raise
                    (Reject
                       (Printf.sprintf "unknown kind \"%s\" (one of: %s)" name
                          (String.concat ", " kind_names))))
        in
        let seed = field "seed" as_int64 in
        let seeds = field "seeds" Json.as_int in
        let reduced = field "reduced" as_bool in
        let design =
          field "design" (fun what v ->
              let* name = as_string what v in
              match design_of_wire_name name with
              | Some design -> Ok design
              | None ->
                  Error (Printf.sprintf "unknown design \"%s\" (baseline or optimized)" name))
        in
        let mac_latency = field "mac_latency" Json.as_int in
        let workloads =
          field "workloads" (fun _ -> function
            | Json.List items ->
                Ok (List.map (fun w -> ok_or_reject (as_string "workloads element" w)) items)
            | _ -> Error "workloads must be a list of strings")
        in
        let instrs = field "instrs" Json.as_int in
        let warmup = field "warmup" Json.as_int in
        let processes = field "processes" Json.as_int in
        let lines = field "lines" Json.as_int in
        let mixes = field "mixes" Json.as_int in
        let iterations = field "iterations" Json.as_int in
        let trials = field "trials" Json.as_int in
        let guarded = field "guarded" as_bool in
        let attack = field "attack" as_bool in
        (* [validate] sees only the values: a machine choice spelled out
           for another kind is an error even when it is the default. *)
        (match (kind, guarded, attack) with
        | Fullsys, _, _ | _, None, None -> ()
        | _ -> raise (Reject (machine_choice_error kind)));
        let jobs = field "jobs" Json.as_int in
        let trace = field "trace" as_string in
        let mitigation = field "mitigation" as_string in
        (* JSON prints an integral float as an integer, so an integer for
           a parameter the mitigation declares float is that float. *)
        let declared key =
          Option.bind mitigation (fun name ->
              Option.bind (Registry.resolved_params name []) (List.assoc_opt key))
        in
        let param (key, v) =
          match v with
          | Json.Int _ -> (
              let i = ok_or_reject (Json.as_int ("params." ^ key) v) in
              match declared key with
              | Some (Registry.Float _) -> (key, Registry.Float (float_of_int i))
              | _ -> (key, Registry.Int i))
          | Json.Float f -> (key, Registry.Float f)
          | Json.Bool b -> (key, Registry.Bool b)
          | _ -> raise (Reject (Printf.sprintf "params.%s must be a number or boolean" key))
        in
        let mit_params =
          field "params" (fun _ -> function
            | Json.Obj fields -> Ok (List.map param fields)
            | _ -> Error "params must be an object")
        in
        let scenario =
          make ?seed ?seeds ?reduced ?design ?mac_latency ?workloads ?instrs
            ?warmup ?processes ?lines ?mixes ?iterations ?trials ?trace ?mitigation
            ?mit_params ?guarded ?attack ?jobs kind
        in
        ok_or_reject (validate scenario);
        Ok scenario
      with Reject e -> Error e)
  | _ -> Error "scenario must be an object"

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
  Ptg_util.Bits.to_hex
    (fnv1a64 (In_channel.with_open_bin path In_channel.input_all))

(* The wire form of the normal form, keys sorted, the trace path
   replaced by the trace's content hash. [prefix] drops the instruction
   budget: the warm-start store keys checkpoints by everything {e
   except} how far the run goes, so a longer run can resume from a
   shorter run's snapshots (only [Fullsys] scales by instructions this
   way). *)
let canonical_form ~prefix t =
  check t;
  let n = normalize t in
  let n =
    {
      n with
      instrs = (if prefix && t.kind = Fullsys then None else n.instrs);
      trace_path = Option.map trace_content_hash n.trace_path;
    }
  in
  Json.to_string
    (Json.Obj (List.sort (fun (a, _) (b, _) -> String.compare a b) (fields n)))

let canonical t = canonical_form ~prefix:false t
let hash64 t = fnv1a64 (canonical t)
let hash t = Ptg_util.Bits.to_hex (hash64 t)
let prefix_canonical t = canonical_form ~prefix:true t
let prefix_hash64 t = fnv1a64 (prefix_canonical t)
let prefix_hash t = Ptg_util.Bits.to_hex (prefix_hash64 t)

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
  | Attacks_out of Attacks_exp.result
  | Baselines_out of Baselines_exp.result
  | Ablations_out of Ablations.result
  | Security_out of Security_exp.result
  | Tables_out

type plan =
  | Sweep : ('p, 'c, 'u, output) Sweep.t -> plan
  | Machine of { seed : int64; instrs : int; config : Fullsys.config }
  | Whole of (?obs:Ptg_obs.Sink.t -> unit -> output)

(* The one dispatch from a scenario to what runs it. Multi-seed sweeps
   aggregate across seeds at the end, so they run whole. *)
let plan t =
  check t;
  let n = normalize t in
  let jobs = t.jobs and seed = t.seed and size = Option.get in
  let whole f = Whole (fun ?obs:_ () -> f ()) in
  let sweep s out = Sweep { s with Sweep.finish = (fun u -> out (s.Sweep.finish u)) } in
  match t.kind with
  | Fig6 ->
      let config =
        Ptguard.Config.with_mac_latency (config_of_design t.design)
          (size n.mac_latency)
      in
      let workloads =
        List.map
          (fun name -> Option.get (Ptg_workloads.Workload.by_name name))
          (size n.workloads)
      in
      let instrs = size n.instrs and warmup = size n.warmup in
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
        (Fig7.sweep ~jobs ~instrs:(size n.instrs) ~warmup:(size n.warmup)
           ~seed ())
        (fun r -> Fig7_out r)
  | Fig8 ->
      Whole
        (fun ?obs () ->
          Fig8_out (Fig8.run ~jobs ~seed ~processes:(size n.processes) ?obs ()))
  | Fig9 ->
      let lines_per_point = size n.lines in
      if t.seeds > 1 then
        whole (fun () -> Fig9_multi_out (Fig9.run_multi ~jobs ~seeds:t.seeds ~lines_per_point ()))
      else
        sweep (Fig9.sweep ~jobs ~lines_per_point ~seed ()) (fun r -> Fig9_out r)
  | Multicore ->
      sweep
        (Multicore_exp.sweep ~jobs ~instrs_per_core:(size n.instrs)
           ~mixes:(size n.mixes) ~seed ())
        (fun r -> Multicore_out r)
  | Trace ->
      whole (fun () ->
          let trace = Mem_trace.load ~path:(Option.get t.trace_path) in
          match Mem_trace.replay ?mitigation:t.mitigation ~params:t.mit_params ~seed trace with
          | Ok result -> Trace_out { mitigation = t.mitigation; result }
          | Error msg -> invalid_arg ("Scenario: " ^ msg))
  | Fullsys ->
      let config =
        { Fullsys.default_config with guarded = t.guarded; attack = t.attack }
      in
      Machine { seed; instrs = size n.instrs; config }
  | Attacks ->
      whole (fun () -> Attacks_out (Attacks_exp.run ~seed ~iterations:(size n.iterations) ()))
  | Baselines ->
      whole (fun () -> Baselines_out (Baselines_exp.run ~seed ~trials:(size n.trials) ()))
  | Ablations ->
      let lines = size n.lines and instrs = size n.instrs in
      whole (fun () -> Ablations_out (Ablations.run ~jobs ~lines ~instrs ~seed ()))
  | Security -> whole (fun () -> Security_out (Security_exp.run ()))
  | Tables -> whole (fun () -> Tables_out)

let run ?obs t =
  match plan t with
  | Sweep s -> Sweep.run ?obs s
  | Machine { seed; instrs; config } ->
      (* [totals] so the rendering is identical however the budget was
         chunked — including when the checkpoint driver serves this
         scenario from a warm-start snapshot instead. *)
      let m = Fullsys.create ~config ?obs ~seed () in
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
  | Attacks_out r -> Attacks_exp.to_string r
  | Baselines_out r -> Baselines_exp.to_string r
  | Ablations_out r -> Ablations.to_string r
  | Security_out r -> Security_exp.to_string r
  | Tables_out -> Tables_exp.to_string ()

let run_to_string ?obs t = render (run ?obs t)

let save_csv out ~path =
  match out with
  | Fig6_out r -> Fig6.to_csv r ~path
  | Fig7_out r -> Fig7.to_csv r ~path
  | Fig8_out r -> Fig8.to_csv r ~path
  | Fig9_out r -> Fig9.to_csv r ~path
  | Multicore_out r -> Multicore_exp.to_csv r ~path
  | Attacks_out r -> Attacks_exp.to_csv r ~path
  | Baselines_out r -> Baselines_exp.to_csv r ~path
  | Fig6_multi_out _ | Fig9_multi_out _ | Trace_out _ | Fullsys_out _ | Ablations_out _
  | Security_out _ | Tables_out -> ()

(* The paper's artifacts in report order: the one list that `ptguard_cli
   all` and the bench's experiments section both run. *)
let paper ~reduced ~seed ~jobs =
  let scenario ?guarded ?attack kind = make ~seed ~reduced ~jobs ?guarded ?attack kind in
  [
    ("Tables I-IV and the Section V-E cost summary", scenario Tables);
    ("Security analysis (Sections IV-G, VI-E)", scenario Security);
    ("Figure 6: per-workload slowdown and MPKI", scenario Fig6);
    ("Figure 7: slowdown vs MAC latency", scenario Fig7);
    ("Figure 8: PTE value locality", scenario Fig8);
    ("Figure 9: best-effort correction coverage", scenario Fig9);
    ("Section VII-C: 4-core SAME/MIX", scenario Multicore);
    ("Attack-vs-mitigation matrix (Sections II-B, II-C)", scenario Attacks);
    ("Prior defenses vs PT-Guard (Sections II-E, VIII-C)", scenario Baselines);
  ]
  @ List.map
      (fun (label, guarded, attack) ->
        ("Full-system co-simulation: " ^ label, scenario ~guarded ~attack Fullsys))
      Fullsys.comparison
  @ [ ("Ablations", scenario Ablations) ]
