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

let ( let* ) = Result.bind

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
        [ ("op", Json.String "run"); ("scenario", Scenario.to_json scenario) ]
    | Run_stream scenario ->
        require_v2 "encode_request" v "stream";
        [
          ("op", Json.String "run");
          ("stream", Json.Bool true);
          ("scenario", Scenario.to_json scenario);
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
  (* Compared as an [int64]: [Int64.to_int] wraps, and would read
     -9223372036854775807 as 1. *)
  | Some (Json.Int v) when Int64.equal v 1L || Int64.equal v 2L -> Ok (Int64.to_int v)
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
                let* scenario = Scenario.of_json sj in
                Ok (if stream then Run_stream scenario else Run scenario))
        | Some (Json.String "ping") -> Ok Ping
        | Some (Json.String "stats") -> Ok Stats
        | Some (Json.String "shutdown") -> Ok Shutdown
        | Some (Json.String "hello") when v >= 2 -> (
            match Json.member "max" json with
            | None -> Ok (Hello max_version)
            | Some m ->
                let* max = Json.as_int "max" m in
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
                  let* done_count = Json.as_int "done" d in
                  let* total = Json.as_int "total" tot in
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
                          let* negotiated = Json.as_int "version" ver in
                          Ok (Hello_reply negotiated)
                      | None -> Error "hello frame is missing \"version\"")
                | _ -> Error "unrecognized ok frame")
            | _ -> Error "unrecognized ok frame")
        | Some (Json.String s) -> Error (Printf.sprintf "unknown status \"%s\"" s)
        | Some _ -> Error "status must be a string"
        | None -> Error "frame is missing \"status\"")
