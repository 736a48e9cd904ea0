module Json = Ptg_util.Json
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario

let decode_req_ok line =
  match Protocol.decode_request line with
  | Ok (meta, req) -> (meta, req)
  | Error e -> Alcotest.failf "decode_request %S: %s" line e

let decode_req_err line =
  match Protocol.decode_request line with
  | Ok _ -> Alcotest.failf "decode_request %S: expected an error" line
  | Error e -> e

let test_request_roundtrip () =
  let scenario =
    Scenario.make ~seed:7L ~reduced:true ~workloads:[ "mcf"; "bc" ]
      ~instrs:6000 ~warmup:2000 Scenario.Fig6
  in
  List.iter
    (fun req ->
      let line = Protocol.encode_request ~id:"r1" req in
      let meta, back = decode_req_ok line in
      Alcotest.(check (option string)) "id echoed" (Some "r1") meta.Protocol.id;
      Alcotest.(check int) "v1 by default" 1 meta.Protocol.v;
      Alcotest.(check bool) "request survives" true (back = req))
    [ Protocol.Run scenario; Protocol.Ping; Protocol.Stats; Protocol.Shutdown ];
  (* The scenario codec preserves the cache identity, not just shape. *)
  let line = Protocol.encode_request (Protocol.Run scenario) in
  match decode_req_ok line with
  | _, Protocol.Run back ->
      Alcotest.(check string) "hash stable across the wire"
        (Scenario.hash scenario) (Scenario.hash back)
  | _ -> Alcotest.fail "expected a run request"

let test_request_errors () =
  List.iter
    (fun line -> ignore (decode_req_err line))
    [
      "not json at all";
      {|{"op":"run"}|} (* missing v *);
      {|{"v":3,"op":"ping"}|} (* unsupported version *);
      {|{"v":0,"op":"ping"}|};
      {|{"v":1}|} (* missing op *);
      {|{"v":1,"op":"frobnicate"}|};
      {|{"v":1,"op":"run"}|} (* missing scenario *);
      {|{"v":1,"op":"run","scenario":{"seed":1}}|} (* missing kind *);
      {|{"v":1,"op":"run","scenario":{"kind":"fig42"}}|};
      {|{"v":1,"op":"run","scenario":{"kind":"fig6","bogus":1}}|}
      (* unknown fields are rejected, not ignored *);
      {|{"v":1,"op":"run","scenario":{"kind":"fig6","instrs":"many"}}|};
      {|{"v":1,"op":"run","scenario":{"kind":"fig6","workloads":["zzz"]}}|}
      (* semantic validation runs at decode time *);
      {|{"v":1,"op":"run","scenario":{"kind":"fig7","seeds":3}}|}
      (* fig7 has no multi-seed sweep *);
      {|{"v":1,"op":"run","scenario":{"kind":"fig8","processes":0}}|};
    ]

let test_request_id_recovery () =
  (* Undecodable-but-parseable frames still yield the id, so the error
     frame can be correlated by the client. *)
  match Protocol.decode_request {|{"v":1,"id":"x9","op":"nope"}|} with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> (
      (* The server encodes the error without an id in this case only if
         recovery failed; check the id is reachable from the raw frame. *)
      match Json.parse {|{"v":1,"id":"x9","op":"nope"}|} with
      | Ok j ->
          Alcotest.(check bool) "id recoverable" true
            (Json.member "id" j = Some (Json.String "x9"))
      | Error e -> Alcotest.fail e)

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let line = Protocol.encode_response ~id:"q" resp in
      match Protocol.decode_response line with
      | Ok ({ Protocol.id = Some "q"; _ }, back) ->
          Alcotest.(check bool) "response survives" true (back = resp)
      | Ok _ -> Alcotest.failf "lost id in %s" line
      | Error e -> Alcotest.failf "decode_response %s: %s" line e)
    [
      Protocol.Result
        { cache = Protocol.Hit; hash = "00ff"; result = "line1\nline2\n" };
      Protocol.Result { cache = Protocol.Miss; hash = "a"; result = "" };
      Protocol.Result { cache = Protocol.Coalesced; hash = "b"; result = "x" };
      Protocol.Pong;
      Protocol.Stats_reply [ ("served", 3.); ("shed", 0.) ];
      Protocol.Overloaded;
      Protocol.Timeout;
      Protocol.Error_reply "unknown workload \"zzz\"";
    ]

let test_wire_shape () =
  (* Pin the observable frame shape documented in protocol.mli. *)
  let line = Protocol.encode_request ~id:"r1" Protocol.Ping in
  Alcotest.(check string) "ping frame"
    {|{"v":1,"id":"r1","op":"ping"}|} line;
  Alcotest.(check string) "overloaded frame"
    {|{"v":1,"status":"overloaded"}|}
    (Protocol.encode_response Protocol.Overloaded);
  Alcotest.(check string) "timeout frame"
    {|{"v":1,"status":"timeout"}|}
    (Protocol.encode_response Protocol.Timeout)

(* ------------------------------------------------------------------ *)
(* Version 2                                                           *)
(* ------------------------------------------------------------------ *)

let test_v2_roundtrip () =
  let scenario = Scenario.make ~reduced:true Scenario.Fig6 in
  List.iter
    (fun req ->
      let line = Protocol.encode_request ~id:"s1" ~v:2 req in
      let meta, back = decode_req_ok line in
      Alcotest.(check int) "v2 frame" 2 meta.Protocol.v;
      Alcotest.(check bool) "v2 request survives" true (back = req))
    [
      Protocol.Run scenario;
      Protocol.Run_stream scenario;
      Protocol.Hello 2;
      Protocol.Cancel "s0";
      Protocol.Ping;
    ];
  List.iter
    (fun resp ->
      let line = Protocol.encode_response ~id:"s1" ~v:2 resp in
      match Protocol.decode_response line with
      | Ok (({ Protocol.v = 2; _ } as meta), back) ->
          Alcotest.(check (option string)) "id kept" (Some "s1")
            meta.Protocol.id;
          Alcotest.(check bool) "v2 response survives" true (back = resp)
      | Ok _ -> Alcotest.failf "wrong meta in %s" line
      | Error e -> Alcotest.failf "decode_response %s: %s" line e)
    [
      Protocol.Progress { done_count = 12_000; total = 60_000 };
      Protocol.Cancelled;
      Protocol.Hello_reply 2;
      Protocol.Result { cache = Protocol.Miss; hash = "ff"; result = "r" };
      Protocol.Timeout;
    ]

let test_v2_wire_shape () =
  (* Pin the v2 grammar documented in protocol.mli. *)
  Alcotest.(check string) "hello frame"
    {|{"v":2,"op":"hello","max":2}|}
    (Protocol.encode_request ~v:2 (Protocol.Hello 2));
  Alcotest.(check string) "cancel frame"
    {|{"v":2,"op":"cancel","target":"r2"}|}
    (Protocol.encode_request ~v:2 (Protocol.Cancel "r2"));
  Alcotest.(check string) "progress frame"
    {|{"v":2,"id":"r2","status":"progress","done":20000,"total":60000}|}
    (Protocol.encode_response ~id:"r2" ~v:2
       (Protocol.Progress { done_count = 20_000; total = 60_000 }));
  Alcotest.(check string) "cancelled frame"
    {|{"v":2,"id":"r2","status":"cancelled"}|}
    (Protocol.encode_response ~id:"r2" ~v:2 Protocol.Cancelled);
  Alcotest.(check string) "hello reply"
    {|{"v":2,"status":"ok","result":"hello","version":2}|}
    (Protocol.encode_response ~v:2 (Protocol.Hello_reply 2))

let test_v2_only_rejected_at_v1 () =
  (* Encode guards: the type-level side of "a v1 client never sees a v2
     frame". *)
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  let scenario = Scenario.make ~reduced:true Scenario.Fig6 in
  Alcotest.(check bool) "stream at v1" true
    (raises (fun () ->
         Protocol.encode_request (Protocol.Run_stream scenario)));
  Alcotest.(check bool) "hello at v1" true
    (raises (fun () -> Protocol.encode_request (Protocol.Hello 2)));
  Alcotest.(check bool) "cancel at v1" true
    (raises (fun () -> Protocol.encode_request (Protocol.Cancel "x")));
  Alcotest.(check bool) "progress at v1" true
    (raises (fun () ->
         Protocol.encode_response (Protocol.Progress { done_count = 1; total = 2 })));
  Alcotest.(check bool) "cancelled at v1" true
    (raises (fun () -> Protocol.encode_response Protocol.Cancelled));
  Alcotest.(check bool) "unsupported version" true
    (raises (fun () -> Protocol.encode_request ~v:3 Protocol.Ping));
  (* Decode guards: the same constructs arriving on the wire at v1 are
     protocol errors, not silently tolerated. *)
  List.iter
    (fun line -> ignore (decode_req_err line))
    [
      {|{"v":1,"op":"hello","max":2}|};
      {|{"v":1,"op":"cancel","target":"r2"}|};
      {|{"v":1,"op":"run","stream":true,"scenario":{"kind":"fig6"}}|};
      {|{"v":2,"op":"hello","max":0}|};
      {|{"v":2,"op":"cancel"}|} (* missing target *);
    ];
  List.iter
    (fun line ->
      match Protocol.decode_response line with
      | Ok _ -> Alcotest.failf "decode_response %S: expected an error" line
      | Error _ -> ())
    [
      {|{"v":1,"status":"progress","done":1,"total":2}|};
      {|{"v":1,"status":"cancelled"}|};
    ]

(* A version is compared as the integer on the wire: one that wraps to
   1 or 2 as an OCaml [int] is still unsupported. *)
let test_wrapped_version_rejected () =
  List.iter
    (fun v ->
      let e = decode_req_err (Printf.sprintf {|{"v":%s,"op":"ping"}|} v) in
      Alcotest.(check string) ("v " ^ v)
        (Printf.sprintf "unsupported protocol version %s (want 1..2)" v) e)
    [ "-9223372036854775807"; "-9223372036854775806" ]

let test_hello_defaults () =
  (* "max" may be omitted: it defaults to the highest version we speak. *)
  match decode_req_ok {|{"v":2,"op":"hello"}|} with
  | _, Protocol.Hello m ->
      Alcotest.(check int) "default max" Protocol.max_version m
  | _ -> Alcotest.fail "expected hello"

(* Generator-driven coverage of the response codec: any frame the server
   can emit must survive encode/decode, id included. Version picked per
   sample; v2-only responses are generated only at v2. *)
let response_gen ~v =
  let open QCheck2.Gen in
  let printable = string_size ~gen:printable (int_range 0 24) in
  let finite = map (fun n -> float_of_int n /. 8.) (int_range (-8000) 8000) in
  let v1 =
    [
      return Protocol.Pong;
      return Protocol.Overloaded;
      return Protocol.Timeout;
      map (fun m -> Protocol.Error_reply m) printable;
      map
        (fun rows -> Protocol.Stats_reply rows)
        (list_size (int_range 0 8) (pair printable finite));
      map3
        (fun cache hash result -> Protocol.Result { cache; hash; result })
        (oneofl [ Protocol.Hit; Protocol.Miss; Protocol.Coalesced ])
        printable printable;
    ]
  in
  let v2 =
    [
      map2
        (fun done_count total -> Protocol.Progress { done_count; total })
        (int_bound 1_000_000) (int_bound 1_000_000);
      return Protocol.Cancelled;
      map (fun n -> Protocol.Hello_reply n) (int_range 1 2);
    ]
  in
  oneof (if v >= 2 then v1 @ v2 else v1)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"response frames survive the wire" ~count:300
    QCheck2.Gen.(int_range 1 2 >>= fun v -> pair (return v) (response_gen ~v))
    (fun (v, resp) ->
      match
        Protocol.decode_response (Protocol.encode_response ~id:"q" ~v resp)
      with
      | Ok ({ Protocol.id = Some "q"; v = v' }, back) -> v' = v && back = resp
      | _ -> false)

(* A trace path must name a regular file, checked without reading it:
   hashing [/dev/zero] would never finish, so this test finishing is
   part of the assertion. *)
let test_trace_not_regular () =
  let frame path =
    Protocol.encode_request
      (Protocol.Run { (Scenario.make Scenario.Trace) with Scenario.trace_path = Some path })
  in
  let contains sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (path, cause) ->
      let e = decode_req_err (frame path) in
      Alcotest.(check bool) (Printf.sprintf "%s: %S" path e) true
        (contains path e && contains cause e))
    [
      ("/dev/zero", "is not a regular file");
      (Filename.get_temp_dir_name (), "is a directory");
      ("/nonexistent/ptg_trace.txt", "does not exist");
    ]

(* ------------------------------------------------------------------ *)
(* Decoder totality: v2 requests, and responses as the client reads    *)
(* them. Every input yields a value or a non-empty error within a      *)
(* time bound, never an exception.                                     *)
(* ------------------------------------------------------------------ *)

module Clock = Ptg_util.Clock
module Client = Ptg_server.Client
module Server = Ptg_server.Server

let decode_bound_s = 1.0

let total_within name decode input =
  let t0 = Clock.now_ns () in
  match decode input with
  | exception e -> QCheck2.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)
  | r ->
      let dt = Clock.elapsed_s t0 in
      if dt > decode_bound_s then QCheck2.Test.fail_reportf "%s took %.3f s" name dt
      else (
        match r with
        | Error "" -> QCheck2.Test.fail_reportf "%s: empty error" name
        | _ -> r)

(* A valid frame, then up to four byte edits or a truncation. *)
let damaged frames =
  let open QCheck2.Gen in
  map2 (List.fold_left Test_server_scenario.mutate) frames
    (list_size (int_bound 4)
       (triple nat
          (frequency [ (3, oneofl [ '"'; '{'; '}'; ','; ':'; '0'; '2'; '-'; '\\'; ' ' ]); (1, char) ])
          (int_bound 3)))

(* An object over [keys] with values of every JSON type, [pool] mixed in. *)
let random_object keys pool =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        map (fun s -> Json.String s) (oneofl pool);
        map (fun s -> Json.String s) (string_size ~gen:char (int_bound 6));
        map (fun i -> Json.Int (Int64.of_int i)) (int_range (-3) 70000);
        map (fun i -> Json.Int i) (oneofl [ Int64.max_int; Int64.min_int; 0x4000_0000_0000_0000L ]);
        map (fun f -> Json.Float f) (oneofl [ 0.5; 1.0; -2.0; 1e300 ]);
        map (fun b -> Json.Bool b) bool;
        return Json.Null;
        return (Json.List [ Json.Int 1L ]);
        return (Json.Obj [ ("served", Json.Int 3L); ("x", Json.String "y") ]);
      ]
  in
  let v = frequency [ (4, map (fun v -> Json.Int (Int64.of_int v)) (int_range 1 2)); (1, value) ] in
  map2
    (fun v fields -> Json.to_string (Json.Obj (("v", v) :: fields)))
    v
    (list_size (int_bound 5) (pair (oneofl keys) value))

let gen_v2_request =
  let open QCheck2.Gen in
  let frame =
    oneof
      [
        map (fun n -> Protocol.encode_request ~v:2 (Protocol.Hello n)) (int_range (-2) 5);
        map
          (fun t -> Protocol.encode_request ~id:t ~v:2 (Protocol.Cancel t))
          (string_size ~gen:char (int_bound 8));
        map
          (fun s -> Protocol.encode_request ~id:"s" ~v:2 (Protocol.Run_stream s))
          Test_server_scenario.gen_scenario;
      ]
  in
  frequency
    [
      (3, damaged frame);
      ( 2,
        random_object
          [ "op"; "id"; "max"; "target"; "stream"; "scenario" ]
          [ "hello"; "cancel"; "run"; "ping"; "stats"; "shutdown"; "HELLO" ] );
    ]

let prop_v2_request_total =
  QCheck2.Test.make ~count:1000 ~name:"v2 request decoder is total"
    ~print:String.escaped gen_v2_request
    (fun frame ->
      ignore (total_within "decode_request" Protocol.decode_request frame);
      true)

let gen_response_frame =
  let open QCheck2.Gen in
  let frame =
    int_range 1 2 >>= fun v ->
    map (Protocol.encode_response ~id:"q" ~v) (response_gen ~v)
  in
  frequency
    [
      (3, damaged frame);
      ( 2,
        random_object
          [ "id"; "status"; "cache"; "hash"; "result"; "stats"; "done"; "total"; "error"; "version" ]
          [ "ok"; "progress"; "error"; "hit"; "miss"; "coalesced"; "pong"; "hello"; "timeout";
            "overloaded"; "cancelled" ] );
    ]

(* A peer that answers each request line with the frame in [next] (a
   progress frame followed by a terminal timeout, so the client's read
   loop ends), for driving the real {!Client} read path. *)
let with_fake_peer f =
  let path = Filename.temp_file "ptg_peer_" ".sock" in
  Sys.remove path;
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let next = Atomic.make "" in
  let peer =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept ~cloexec:true lfd in
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        (try
           while true do
             ignore (input_line ic);
             let frame = Atomic.get next in
             output_string oc (frame ^ "\n");
             (match Protocol.decode_response frame with
             | Ok (_, Protocol.Progress _) -> output_string oc "{\"v\":2,\"status\":\"timeout\"}\n"
             | _ -> ());
             flush oc
           done
         with End_of_file | Sys_error _ -> ());
        close_out_noerr oc)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join peer;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Client.connect (Server.Unix_socket path) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f next c))

let test_client_decode_total () =
  with_fake_peer (fun next c ->
      QCheck2.Test.check_exn
        (QCheck2.Test.make ~count:500 ~name:"responses as the client decodes them"
           ~print:String.escaped gen_response_frame (fun frame ->
             (* The client reads lines: a frame never carries a raw newline. *)
             let frame = String.concat "" (String.split_on_char '\n' frame) in
             let want =
               match total_within "decode_response" Protocol.decode_response frame with
               | Ok (_, Protocol.Progress _) -> Ok Protocol.Timeout
               | Ok (_, r) -> Ok r
               | Error e -> Error e
             in
             Atomic.set next frame;
             let got =
               total_within "Client.request" (Client.request ~v:2 ~timeout_s:5. c) Protocol.Ping
             in
             got = want
             || QCheck2.Test.fail_reportf "client read %s"
                  (match got with Ok _ -> "a different reply" | Error e -> e))))

let suite =
  [
    Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
    Alcotest.test_case "malformed requests rejected" `Quick test_request_errors;
    Alcotest.test_case "id recovery on errors" `Quick test_request_id_recovery;
    Alcotest.test_case "response round trip" `Quick test_response_roundtrip;
    Alcotest.test_case "pinned wire shapes" `Quick test_wire_shape;
    Alcotest.test_case "v2 round trip" `Quick test_v2_roundtrip;
    Alcotest.test_case "pinned v2 wire shapes" `Quick test_v2_wire_shape;
    Alcotest.test_case "v2 constructs rejected at v1" `Quick
      test_v2_only_rejected_at_v1;
    Alcotest.test_case "hello max defaults" `Quick test_hello_defaults;
    Alcotest.test_case "versions that wrap as an int are rejected" `Quick
      test_wrapped_version_rejected;
    Alcotest.test_case "trace path must be a regular file" `Quick
      test_trace_not_regular;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_v2_request_total;
    Alcotest.test_case "responses as the client decodes them are total" `Quick
      test_client_decode_total;
  ]
