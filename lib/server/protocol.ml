module Scenario = Ptg_sim.Scenario

let version = 1
let max_version = 2
let max_frame_bytes = 1 lsl 20
let supported v = v = 1 || v = 2

type request =
  | Run of Scenario.t
  | Run_stream of Scenario.t
  | Ping
  | Stats
  | Shutdown
  | Hello of int
  | Cancel of string

type cache_disposition = Hit | Miss | Coalesced

let cache_disposition_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

let cache_disposition_of_name = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "coalesced" -> Some Coalesced
  | _ -> None

type response =
  | Result of { cache : cache_disposition; hash : string; result : string }
  | Pong
  | Stats_reply of (string * float) list
  | Overloaded
  | Timeout
  | Error_reply of string
  | Progress of { done_count : int; total : int }
  | Cancelled
  | Hello_reply of int

type meta = { id : string option; v : int }

(* ------------------------------------------------------------------ *)
(* Scenario codec                                                      *)
(* ------------------------------------------------------------------ *)

let scenario_to_json (s : Scenario.t) =
  let fields = ref [] in
  let add key v = fields := (key, v) :: !fields in
  add "kind" (Json.String (Scenario.kind_name s.kind));
  if s.seeds > 1 then add "seeds" (Json.Int (Int64.of_int s.seeds))
  else add "seed" (Json.Int s.seed);
  if s.reduced then add "reduced" (Json.Bool true);
  (match s.kind with
  | Scenario.Fig6 ->
      add "design" (Json.String (Scenario.design_wire_name s.design));
      Option.iter (fun l -> add "mac_latency" (Json.Int (Int64.of_int l))) s.mac_latency;
      Option.iter
        (fun ws -> add "workloads" (Json.List (List.map (fun w -> Json.String w) ws)))
        s.workloads
  | _ -> ());
  Option.iter (fun i -> add "instrs" (Json.Int (Int64.of_int i))) s.instrs;
  Option.iter (fun w -> add "warmup" (Json.Int (Int64.of_int w))) s.warmup;
  Option.iter (fun p -> add "processes" (Json.Int (Int64.of_int p))) s.processes;
  Option.iter (fun l -> add "lines" (Json.Int (Int64.of_int l))) s.lines;
  Option.iter (fun m -> add "mixes" (Json.Int (Int64.of_int m))) s.mixes;
  Option.iter (fun p -> add "trace" (Json.String p)) s.trace_path;
  Option.iter (fun m -> add "mitigation" (Json.String m)) s.mitigation;
  if s.mit_params <> [] then
    add "params"
      (Json.Obj
         (List.map
            (fun (key, v) ->
              ( key,
                match v with
                | Ptg_mitigations.Registry.Int i -> Json.Int (Int64.of_int i)
                | Ptg_mitigations.Registry.Float f -> Json.Float f
                | Ptg_mitigations.Registry.Bool b -> Json.Bool b ))
            s.mit_params));
  if s.jobs <> 1 then add "jobs" (Json.Int (Int64.of_int s.jobs));
  Json.Obj (List.rev !fields)

let scenario_fields =
  [
    "kind"; "seed"; "seeds"; "reduced"; "design"; "mac_latency"; "workloads";
    "instrs"; "warmup"; "processes"; "lines"; "mixes"; "trace"; "mitigation";
    "params"; "jobs";
  ]

let ( let* ) = Result.bind

let as_int what = function
  | Json.Int i ->
      if i > Int64.of_int max_int || i < Int64.of_int min_int then
        Error (Printf.sprintf "%s out of range" what)
      else Ok (Int64.to_int i)
  | _ -> Error (Printf.sprintf "%s must be an integer" what)

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

let scenario_of_json json =
  match json with
  | Json.Obj _ ->
      let* () =
        List.fold_left
          (fun acc key ->
            let* () = acc in
            if List.mem key scenario_fields then Ok ()
            else Error (Printf.sprintf "unknown scenario field \"%s\"" key))
          (Ok ()) (Json.keys json)
      in
      let* kind_name =
        match Json.member "kind" json with
        | Some v -> as_string "kind" v
        | None -> Error "scenario is missing \"kind\""
      in
      let* kind =
        match Scenario.kind_of_name kind_name with
        | Some k -> Ok k
        | None ->
            Error
              (Printf.sprintf "unknown kind \"%s\" (one of: %s)" kind_name
                 (String.concat ", " Scenario.kind_names))
      in
      let* seed = opt_field json "seed" as_int64 in
      let* seeds = opt_field json "seeds" as_int in
      let* reduced = opt_field json "reduced" as_bool in
      let* design =
        match Json.member "design" json with
        | None -> Ok None
        | Some v ->
            let* name = as_string "design" v in
            (match Scenario.design_of_wire_name name with
            | Some d -> Ok (Some d)
            | None ->
                Error
                  (Printf.sprintf
                     "unknown design \"%s\" (baseline or optimized)" name))
      in
      let* mac_latency = opt_field json "mac_latency" as_int in
      let* workloads =
        match Json.member "workloads" json with
        | None -> Ok None
        | Some (Json.List items) ->
            let* names =
              List.fold_left
                (fun acc item ->
                  let* acc = acc in
                  let* name = as_string "workloads element" item in
                  Ok (name :: acc))
                (Ok []) items
            in
            Ok (Some (List.rev names))
        | Some _ -> Error "workloads must be a list of strings"
      in
      let* instrs = opt_field json "instrs" as_int in
      let* warmup = opt_field json "warmup" as_int in
      let* processes = opt_field json "processes" as_int in
      let* lines = opt_field json "lines" as_int in
      let* mixes = opt_field json "mixes" as_int in
      let* jobs = opt_field json "jobs" as_int in
      let* trace = opt_field json "trace" as_string in
      let* mitigation = opt_field json "mitigation" as_string in
      let* mit_params =
        match Json.member "params" json with
        | None -> Ok None
        | Some (Json.Obj fields) ->
            let* params =
              List.fold_left
                (fun acc (key, v) ->
                  let* acc = acc in
                  let* value =
                    match v with
                    | Json.Int i ->
                        if i > Int64.of_int max_int || i < Int64.of_int min_int
                        then Error (Printf.sprintf "params.%s out of range" key)
                        else
                          Ok (Ptg_mitigations.Registry.Int (Int64.to_int i))
                    | Json.Float f -> Ok (Ptg_mitigations.Registry.Float f)
                    | Json.Bool b -> Ok (Ptg_mitigations.Registry.Bool b)
                    | _ ->
                        Error
                          (Printf.sprintf
                             "params.%s must be a number or boolean" key)
                  in
                  Ok ((key, value) :: acc))
                (Ok []) fields
            in
            Ok (Some (List.rev params))
        | Some _ -> Error "params must be an object"
      in
      let scenario =
        Scenario.make ?seed ?seeds ?reduced ?design ?mac_latency ?workloads
          ?instrs ?warmup ?processes ?lines ?mixes ?trace ?mitigation
          ?mit_params ?jobs kind
      in
      let* () = Scenario.validate scenario in
      Ok scenario
  | _ -> Error "scenario must be an object"

(* ------------------------------------------------------------------ *)
(* Frame codecs                                                        *)
(* ------------------------------------------------------------------ *)

let check_supported fn v =
  if not (supported v) then
    invalid_arg
      (Printf.sprintf "Protocol.%s: unsupported version %d (1..%d)" fn v
         max_version)

let require_v2 fn v what =
  if v < 2 then
    invalid_arg (Printf.sprintf "Protocol.%s: %s requires version 2" fn what)

let base_fields ~v ?id () =
  ("v", Json.Int (Int64.of_int v))
  :: (match id with Some id -> [ ("id", Json.String id) ] | None -> [])

let encode_request ?id ?(v = version) req =
  check_supported "encode_request" v;
  let fields =
    base_fields ~v ?id ()
    @
    match req with
    | Run scenario ->
        [ ("op", Json.String "run"); ("scenario", scenario_to_json scenario) ]
    | Run_stream scenario ->
        require_v2 "encode_request" v "stream";
        [
          ("op", Json.String "run");
          ("stream", Json.Bool true);
          ("scenario", scenario_to_json scenario);
        ]
    | Ping -> [ ("op", Json.String "ping") ]
    | Stats -> [ ("op", Json.String "stats") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
    | Hello max ->
        require_v2 "encode_request" v "hello";
        [ ("op", Json.String "hello"); ("max", Json.Int (Int64.of_int max)) ]
    | Cancel target ->
        require_v2 "encode_request" v "cancel";
        [ ("op", Json.String "cancel"); ("target", Json.String target) ]
  in
  Json.to_string (Json.Obj fields)

let frame_id json =
  match Json.member "id" json with Some (Json.String s) -> Some s | _ -> None

let frame_version json =
  match Json.member "v" json with
  | Some (Json.Int v) when supported (Int64.to_int v) -> Ok (Int64.to_int v)
  | Some (Json.Int v) ->
      Error
        (Printf.sprintf "unsupported protocol version %Ld (want 1..%d)" v
           max_version)
  | Some _ -> Error "v must be an integer"
  | None -> Error (Printf.sprintf "frame is missing \"v\" (want 1..%d)" max_version)

let with_meta json v r =
  match r with
  | Ok x -> Ok ({ id = frame_id json; v }, x)
  | Error e -> Error e

let decode_request line =
  match Json.parse line with
  | Error e -> Error ("malformed frame: " ^ e)
  | Ok json ->
      let* v = frame_version json in
      with_meta json v
        (match Json.member "op" json with
        | Some (Json.String "run") -> (
            let* stream =
              match Json.member "stream" json with
              | None -> Ok false
              | Some (Json.Bool b) ->
                  if v < 2 then Error "\"stream\" requires protocol version 2"
                  else Ok b
              | Some _ -> Error "stream must be a boolean"
            in
            match Json.member "scenario" json with
            | None -> Error "run frame is missing \"scenario\""
            | Some sj ->
                let* scenario = scenario_of_json sj in
                Ok (if stream then Run_stream scenario else Run scenario))
        | Some (Json.String "ping") -> Ok Ping
        | Some (Json.String "stats") -> Ok Stats
        | Some (Json.String "shutdown") -> Ok Shutdown
        | Some (Json.String "hello") when v >= 2 -> (
            match Json.member "max" json with
            | None -> Ok (Hello max_version)
            | Some m ->
                let* max = as_int "max" m in
                if max < 1 then Error "max must be >= 1" else Ok (Hello max))
        | Some (Json.String "cancel") when v >= 2 -> (
            match Json.member "target" json with
            | Some (Json.String target) -> Ok (Cancel target)
            | Some _ -> Error "target must be a string"
            | None -> Error "cancel frame is missing \"target\"")
        | Some (Json.String (("hello" | "cancel") as op)) ->
            Error (Printf.sprintf "op \"%s\" requires protocol version 2" op)
        | Some (Json.String op) -> Error (Printf.sprintf "unknown op \"%s\"" op)
        | Some _ -> Error "op must be a string"
        | None -> Error "frame is missing \"op\"")

let encode_response ?id ?(v = version) resp =
  check_supported "encode_response" v;
  let fields =
    base_fields ~v ?id ()
    @
    match resp with
    | Result { cache; hash; result } ->
        [
          ("status", Json.String "ok");
          ("cache", Json.String (cache_disposition_name cache));
          ("hash", Json.String hash);
          ("result", Json.String result);
        ]
    | Pong -> [ ("status", Json.String "ok"); ("result", Json.String "pong") ]
    | Stats_reply rows ->
        [
          ("status", Json.String "ok");
          ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) rows));
        ]
    | Overloaded -> [ ("status", Json.String "overloaded") ]
    | Timeout -> [ ("status", Json.String "timeout") ]
    | Error_reply msg ->
        [ ("status", Json.String "error"); ("error", Json.String msg) ]
    | Progress { done_count; total } ->
        require_v2 "encode_response" v "progress";
        [
          ("status", Json.String "progress");
          ("done", Json.Int (Int64.of_int done_count));
          ("total", Json.Int (Int64.of_int total));
        ]
    | Cancelled ->
        require_v2 "encode_response" v "cancelled";
        [ ("status", Json.String "cancelled") ]
    | Hello_reply negotiated ->
        require_v2 "encode_response" v "hello";
        [
          ("status", Json.String "ok");
          ("result", Json.String "hello");
          ("version", Json.Int (Int64.of_int negotiated));
        ]
  in
  Json.to_string (Json.Obj fields)

let decode_response line =
  match Json.parse line with
  | Error e -> Error ("malformed frame: " ^ e)
  | Ok json ->
      let* v = frame_version json in
      with_meta json v
        (match Json.member "status" json with
        | Some (Json.String "overloaded") -> Ok Overloaded
        | Some (Json.String "timeout") -> Ok Timeout
        | Some (Json.String "cancelled") ->
            if v < 2 then Error "\"cancelled\" requires protocol v2"
            else Ok Cancelled
        | Some (Json.String "progress") ->
            if v < 2 then Error "\"progress\" requires protocol v2"
            else (
              match (Json.member "done" json, Json.member "total" json) with
              | Some d, Some tot ->
                  let* done_count = as_int "done" d in
                  let* total = as_int "total" tot in
                  Ok (Progress { done_count; total })
              | _ -> Error "progress frame is missing \"done\"/\"total\"")
        | Some (Json.String "error") -> (
            match Json.member "error" json with
            | Some (Json.String msg) -> Ok (Error_reply msg)
            | _ -> Error "error frame is missing \"error\"")
        | Some (Json.String "ok") -> (
            match (Json.member "cache" json, Json.member "stats" json) with
            | Some (Json.String c), _ -> (
                match cache_disposition_of_name c with
                | None -> Error (Printf.sprintf "unknown cache disposition \"%s\"" c)
                | Some cache -> (
                    match (Json.member "hash" json, Json.member "result" json) with
                    | Some (Json.String hash), Some (Json.String result) ->
                        Ok (Result { cache; hash; result })
                    | _ -> Error "ok frame is missing \"hash\"/\"result\""))
            | None, Some (Json.Obj rows) ->
                let* stats =
                  List.fold_left
                    (fun acc (k, v) ->
                      let* acc = acc in
                      match v with
                      | Json.Float f -> Ok ((k, f) :: acc)
                      | Json.Int i -> Ok ((k, Int64.to_float i) :: acc)
                      | _ -> Error "stats values must be numbers")
                    (Ok []) rows
                in
                Ok (Stats_reply (List.rev stats))
            | None, None -> (
                match Json.member "result" json with
                | Some (Json.String "pong") -> Ok Pong
                | Some (Json.String "hello") ->
                    if v < 2 then Error "\"hello\" requires protocol v2"
                    else (
                      match Json.member "version" json with
                      | Some ver ->
                          let* negotiated = as_int "version" ver in
                          Ok (Hello_reply negotiated)
                      | None -> Error "hello frame is missing \"version\"")
                | _ -> Error "unrecognized ok frame")
            | _ -> Error "unrecognized ok frame")
        | Some (Json.String s) -> Error (Printf.sprintf "unknown status \"%s\"" s)
        | Some _ -> Error "status must be a string"
        | None -> Error "frame is missing \"status\"")
