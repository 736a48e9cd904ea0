(* The reference scenario decoder: one association-list lookup per
   field over {!Json_oracle}, every key checked against the field list,
   as the wire decoder first read scenarios. [Scenario.of_json] reads
   each field once; the [server.scenario] oracle property checks that
   both accept the same scenarios and reject the rest with the same
   error text. Test-only. *)

module Json = Json_oracle
module Scenario = Ptg_sim.Scenario
module Registry = Ptg_mitigations.Registry

let wire_fields =
  [
    "kind"; "seed"; "seeds"; "reduced"; "design"; "mac_latency"; "workloads";
    "instrs"; "warmup"; "processes"; "lines"; "mixes"; "iterations"; "trials";
    "guarded"; "attack"; "trace"; "mitigation"; "params"; "jobs";
  ]

let ( let* ) = Result.bind

let kind_of_name name =
  List.find_opt (fun k -> Scenario.kind_name k = name) Scenario.kinds

let design_of_wire_name = function
  | "baseline" -> Some Ptguard.Config.Baseline
  | "optimized" -> Some Ptguard.Config.Optimized
  | _ -> None

let machine_choice_error kind =
  Printf.sprintf "guarded and attack are only valid for kind fullsys, not %s"
    (Scenario.kind_name kind)

let as_int64 what = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "%s must be an integer" what)

let as_bool what = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s must be a boolean" what)

let as_string what = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "%s must be a string" what)

let opt_field json key conv =
  match Json.member key json with
  | None -> Ok None
  | Some v ->
      let* x = conv key v in
      Ok (Some x)

let map_result f items =
  List.fold_right
    (fun x acc ->
      let* y = f x in
      let* ys = acc in
      Ok (y :: ys))
    items (Ok [])

let of_json json =
  match json with
  | Json.Obj _ ->
      let* () =
        match List.find_opt (fun k -> not (List.mem k wire_fields)) (Json.keys json) with
        | Some key -> Error (Printf.sprintf "unknown scenario field \"%s\"" key)
        | None -> Ok ()
      in
      let* kind =
        match Json.member "kind" json with
        | None -> Error "scenario is missing \"kind\""
        | Some v ->
            let* name = as_string "kind" v in
            Option.to_result (kind_of_name name)
              ~none:
                (Printf.sprintf "unknown kind \"%s\" (one of: %s)" name
                   (String.concat ", " Scenario.kind_names))
      in
      let* seed = opt_field json "seed" as_int64 in
      let* seeds = opt_field json "seeds" Json.as_int in
      let* reduced = opt_field json "reduced" as_bool in
      let* design =
        opt_field json "design" (fun what v ->
            let* name = as_string what v in
            Option.to_result (design_of_wire_name name)
              ~none:(Printf.sprintf "unknown design \"%s\" (baseline or optimized)" name))
      in
      let* mac_latency = opt_field json "mac_latency" Json.as_int in
      let* workloads =
        opt_field json "workloads" (fun _ -> function
          | Json.List items -> map_result (as_string "workloads element") items
          | _ -> Error "workloads must be a list of strings")
      in
      let* instrs = opt_field json "instrs" Json.as_int in
      let* warmup = opt_field json "warmup" Json.as_int in
      let* processes = opt_field json "processes" Json.as_int in
      let* lines = opt_field json "lines" Json.as_int in
      let* mixes = opt_field json "mixes" Json.as_int in
      let* iterations = opt_field json "iterations" Json.as_int in
      let* trials = opt_field json "trials" Json.as_int in
      let* guarded = opt_field json "guarded" as_bool in
      let* attack = opt_field json "attack" as_bool in
      let* () =
        match (kind, guarded, attack) with
        | Scenario.Fullsys, _, _ | _, None, None -> Ok ()
        | _ -> Error (machine_choice_error kind)
      in
      let* jobs = opt_field json "jobs" Json.as_int in
      let* trace = opt_field json "trace" as_string in
      let* mitigation = opt_field json "mitigation" as_string in
      let declared key =
        Option.bind mitigation (fun name ->
            Option.bind (Registry.resolved_params name []) (List.assoc_opt key))
      in
      let param (key, v) =
        match v with
        | Json.Int _ -> (
            let* i = Json.as_int ("params." ^ key) v in
            match declared key with
            | Some (Registry.Float _) -> Ok (key, Registry.Float (float_of_int i))
            | _ -> Ok (key, Registry.Int i))
        | Json.Float f -> Ok (key, Registry.Float f)
        | Json.Bool b -> Ok (key, Registry.Bool b)
        | _ -> Error (Printf.sprintf "params.%s must be a number or boolean" key)
      in
      let* mit_params =
        opt_field json "params" (fun _ -> function
          | Json.Obj fields -> map_result param fields
          | _ -> Error "params must be an object")
      in
      let scenario =
        Scenario.make ?seed ?seeds ?reduced ?design ?mac_latency ?workloads ?instrs
          ?warmup ?processes ?lines ?mixes ?iterations ?trials ?trace ?mitigation
          ?mit_params ?guarded ?attack ?jobs kind
      in
      let* () = Scenario.validate scenario in
      Ok scenario
  | _ -> Error "scenario must be an object"
