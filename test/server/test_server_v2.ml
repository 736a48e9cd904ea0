(* Protocol v2 end to end: negotiation, streamed progress, cancellation,
   the warm-start store behind the server, and the byte-exact v1
   surface a legacy client keeps seeing. The chaos cases (cancel under
   load, drain-then-resume) are appended to the server.chaos suite. *)

module Server = Ptg_server.Server
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario

let with_server config f =
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let base_config ?handler ?handler_ext ?snapshot_dir ?snapshot_every
    ?(workers = 2) ?(high_water = 8) () =
  {
    (Server.default_config (Server.Tcp 0)) with
    Server.workers;
    high_water;
    snapshot_dir;
    snapshot_every;
    handler =
      (match handler_ext with
      | Some _ -> handler_ext
      | None -> Option.map Test_server_e2e.text_handler handler);
  }

let stat server key =
  match List.assoc_opt key (Server.stats server) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stat %s missing" key

let scenario_seed seed = Scenario.make ~seed Scenario.Fig8

let with_store f =
  let dir = Filename.temp_file "ptgv2store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Negotiation                                                         *)
(* ------------------------------------------------------------------ *)

let test_hello_negotiation () =
  let config = base_config ~handler:(fun _ -> "unused") () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      with_client addr (fun c ->
          (match Client.hello c with
          | Ok v -> Alcotest.(check int) "negotiated v2" 2 v
          | Error e -> Alcotest.fail e);
          (* The same connection still speaks v1 afterwards. *)
          match Client.request c Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | _ -> Alcotest.fail "v1 ping after hello"))

(* ------------------------------------------------------------------ *)
(* Streamed progress                                                   *)
(* ------------------------------------------------------------------ *)

let test_run_stream_progress () =
  (* A handler that reports five chunks, slowly enough for the waiting
     connection thread to ship at least one intermediate frame. *)
  let handler_ext ~progress ~should_stop:_ _scenario =
    for i = 1 to 5 do
      progress ~done_count:(i * 1000) ~total:5000;
      Thread.delay 0.05
    done;
    { Ptg_sim.Checkpoint.text = Some "streamed"; completed = true;
      resumed_from = None }
  in
  let config = base_config ~handler_ext () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      with_client addr (fun c ->
          let frames = ref [] in
          let on_progress ~done_count ~total =
            frames := (done_count, total) :: !frames
          in
          (match Client.run_stream ~id:"s1" ~on_progress c (scenario_seed 1L) with
          | Ok (Protocol.Result { cache = Protocol.Miss; result; _ }) ->
              Alcotest.(check string) "terminal payload" "streamed" result
          | Ok _ -> Alcotest.fail "unexpected terminal frame"
          | Error e -> Alcotest.fail e);
          let frames = List.rev !frames in
          Alcotest.(check bool)
            "at least one progress frame" true
            (List.length frames >= 1);
          Alcotest.(check bool)
            "progress is monotone and totalled" true
            (List.for_all (fun (_, t) -> t = 5000) frames
            && List.sort compare (List.map fst frames) = List.map fst frames));
      Alcotest.(check int) "served" 1 (stat server "served"))

(* A streamed request for a cached result skips progress entirely —
   the terminal hit frame is the whole stream. *)
let test_run_stream_cache_hit () =
  let config = base_config ~handler:(fun _ -> "cached") () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      with_client addr (fun c ->
          (match Client.run c (scenario_seed 2L) with
          | Ok (Protocol.Result { cache = Protocol.Miss; _ }) -> ()
          | _ -> Alcotest.fail "priming run");
          let saw_progress = ref false in
          match
            Client.run_stream
              ~on_progress:(fun ~done_count:_ ~total:_ -> saw_progress := true)
              c (scenario_seed 2L)
          with
          | Ok (Protocol.Result { cache = Protocol.Hit; result = "cached"; _ })
            ->
              Alcotest.(check bool) "no progress on a hit" false !saw_progress
          | Ok _ -> Alcotest.fail "expected a hit"
          | Error e -> Alcotest.fail e))

(* ------------------------------------------------------------------ *)
(* Warm-start store behind the server                                  *)
(* ------------------------------------------------------------------ *)

let test_warm_start_across_restart () =
  with_store (fun dir ->
      let scenario = Scenario.make ~seed:5L ~instrs:3_000 Scenario.Fullsys in
      let config =
        base_config ~snapshot_dir:dir ~snapshot_every:1_000 ~workers:1 ()
      in
      let serve_once () =
        with_server config (fun server ->
            let addr = Server.listen_addr server in
            let result =
              with_client addr (fun c ->
                  match Client.run c scenario with
                  | Ok (Protocol.Result { cache = Protocol.Miss; result; _ }) ->
                      result
                  | Ok _ -> Alcotest.fail "expected a miss"
                  | Error e -> Alcotest.fail e)
            in
            (result, stat server "warm_starts"))
      in
      let cold, cold_warm = serve_once () in
      Alcotest.(check int) "first run is cold" 0 cold_warm;
      Alcotest.(check bool)
        "store populated" true
        (Array.length (Sys.readdir dir) > 0);
      (* A fresh server over the same store adopts the finished run. *)
      let warm, warm_warm = serve_once () in
      Alcotest.(check int) "second server warm-started" 1 warm_warm;
      Alcotest.(check string) "bytes identical across restart" cold warm;
      Alcotest.(check string) "bytes match the scenario rendering"
        (Scenario.run_to_string scenario) warm)

(* ------------------------------------------------------------------ *)
(* v1 golden surface                                                   *)
(* ------------------------------------------------------------------ *)

(* A legacy v1 client is byte-level frozen: these literal frames (and
   their literal replies) must keep working against a v2 server
   forever. Any change here is a wire-compatibility break. *)
let test_v1_golden_frames () =
  let config = base_config ~handler:(fun _ -> "payload") () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      match addr with
      | Server.Unix_socket _ -> Alcotest.fail "expected tcp"
      | Server.Tcp port ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          let roundtrip line =
            output_string oc (line ^ "\n");
            flush oc;
            input_line ic
          in
          let golden what request reply =
            Alcotest.(check string) what reply (roundtrip request)
          in
          golden "bare ping" {|{"v":1,"op":"ping"}|}
            {|{"v":1,"status":"ok","result":"pong"}|};
          golden "ping with id" {|{"v":1,"id":"a","op":"ping"}|}
            {|{"v":1,"id":"a","status":"ok","result":"pong"}|};
          let hash = Scenario.hash (Scenario.make ~seed:3L Scenario.Fig8) in
          golden "run (miss)"
            {|{"v":1,"id":"r1","op":"run","scenario":{"kind":"fig8","seed":3}}|}
            (Printf.sprintf
               {|{"v":1,"id":"r1","status":"ok","cache":"miss","hash":"%s","result":"payload"}|}
               hash);
          golden "identical run (hit)"
            {|{"v":1,"id":"r2","op":"run","scenario":{"kind":"fig8","seed":3}}|}
            (Printf.sprintf
               {|{"v":1,"id":"r2","status":"ok","cache":"hit","hash":"%s","result":"payload"}|}
               hash);
          (* The same server speaks v2 on the same connection when
             asked — and mirrors v1 again right after. *)
          golden "v2 hello" {|{"v":2,"op":"hello","max":2}|}
            {|{"v":2,"status":"ok","result":"hello","version":2}|};
          golden "v1 after v2" {|{"v":1,"op":"ping"}|}
            {|{"v":1,"status":"ok","result":"pong"}|};
          close_out_noerr oc;
          Alcotest.(check int) "no errors" 0 (stat server "errors"))

(* ------------------------------------------------------------------ *)
(* Loadgen total failure                                               *)
(* ------------------------------------------------------------------ *)

let test_loadgen_total_failure () =
  (* Bind an ephemeral port, close it, aim the loadgen at the corpse:
     every request fails, and the report must say so — ok 0, empty
     percentiles rendered n/a, never a fake 0 µs latency. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close fd;
  let report =
    Client.loadgen
      ~policy:{ Client.default_retry with Client.attempts = 1 }
      ~addr:(Server.Tcp port) ~clients:2 ~requests_per_client:2
      ~scenarios:[ scenario_seed 1L ] ()
  in
  Alcotest.(check int) "nothing succeeded" 0 report.Client.ok;
  Alcotest.(check int) "all counted as errors" 4 report.Client.errors;
  Alcotest.(check (option (float 0.))) "p50 empty" None report.Client.p50_us;
  Alcotest.(check (option (float 0.))) "p99 empty" None report.Client.p99_us;
  let rendered = Client.report_to_string report in
  let contains sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "rendered as n/a" true (contains "n/a" rendered)

(* ------------------------------------------------------------------ *)
(* Chaos: cancellation                                                 *)
(* ------------------------------------------------------------------ *)

let test_cancel_in_flight () =
  (* The computation runs until every waiter is gone; progress keeps
     the stream alive so the test can time the cancel precisely. *)
  let stopped_cleanly = Atomic.make false in
  let handler_ext ~progress ~should_stop _scenario =
    let i = ref 0 in
    while (not (should_stop ())) && !i < 400 do
      incr i;
      progress ~done_count:!i ~total:400;
      Thread.delay 0.02
    done;
    if should_stop () then begin
      Atomic.set stopped_cleanly true;
      { Ptg_sim.Checkpoint.text = None; completed = false; resumed_from = None }
    end
    else
      { Ptg_sim.Checkpoint.text = Some "ran-to-completion"; completed = true;
        resumed_from = None }
  in
  let config = base_config ~handler_ext ~workers:1 () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      let started = Atomic.make false in
      let reply = ref (Error "unset") in
      let runner_conn = Client.connect addr in
      let runner =
        Thread.create
          (fun () ->
            reply :=
              Client.run_stream ~id:"victim"
                ~on_progress:(fun ~done_count:_ ~total:_ ->
                  Atomic.set started true)
                runner_conn (scenario_seed 7L))
          ()
      in
      (* Wait for the run to be visibly in flight before cancelling. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "run got started" true (Atomic.get started);
      with_client addr (fun c ->
          (* Cancelling a made-up id is a clean error... *)
          (match Client.cancel c ~target:"nobody" with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "cancel of unknown id accepted");
          (* ...cancelling the live one is acknowledged. *)
          match Client.cancel c ~target:"victim" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cancel rejected: %s" e);
      Thread.join runner;
      Client.close runner_conn;
      (match !reply with
      | Ok Protocol.Cancelled -> ()
      | Ok _ -> Alcotest.fail "expected a cancelled frame"
      | Error e -> Alcotest.failf "runner got %s" e);
      (* The abandoned computation stopped at a poll boundary instead of
         running all 400 chunks (8 s) to completion. *)
      let waited = Unix.gettimeofday () +. 5.0 in
      while (not (Atomic.get stopped_cleanly)) && Unix.gettimeofday () < waited
      do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "computation observed the cancel" true
        (Atomic.get stopped_cleanly);
      Alcotest.(check int) "cancelled counted" 1 (stat server "cancelled");
      Alcotest.(check int) "not an error" 0 (stat server "errors");
      (* Zero lost requests: the server keeps serving afterwards. *)
      with_client addr (fun c ->
          match Client.run c (scenario_seed 8L) with
          | Ok (Protocol.Result { result = "ran-to-completion"; _ }) -> ()
          | Ok _ -> Alcotest.fail "unexpected frame after cancel"
          | Error e -> Alcotest.fail e))

(* ------------------------------------------------------------------ *)
(* Chaos: drain, restart, resume                                       *)
(* ------------------------------------------------------------------ *)

let test_drain_then_resume () =
  with_store (fun dir ->
      let scenario = Scenario.make ~seed:11L ~instrs:12_000 Scenario.Fullsys in
      let reference = Scenario.run_to_string scenario in
      let config =
        {
          (base_config ~snapshot_dir:dir ~snapshot_every:1_000 ~workers:1 ())
          with
          Server.drain_deadline_s = 0.2;
        }
      in
      (* First server: start the run, then pull the rug mid-flight. The
         forced drain flips should_stop, so the computation checkpoints
         its position and the store keeps the prefix. *)
      let server = Server.start config in
      let addr = Server.listen_addr server in
      let conn = Client.connect addr in
      let reply = ref (Error "unset") in
      let runner =
        Thread.create (fun () -> reply := Client.run conn scenario) ()
      in
      Thread.delay 0.4;
      Server.stop server;
      Thread.join runner;
      Client.close conn;
      (* Whatever the interrupted client saw — a torn connection, a
         completed result if the machine was quick — the retry against
         a fresh server over the same store must produce the canonical
         bytes without repeating adopted work. *)
      with_server config (fun server2 ->
          let addr2 = Server.listen_addr server2 in
          with_client addr2 (fun c ->
              match Client.run c scenario with
              | Ok (Protocol.Result { result; _ }) ->
                  Alcotest.(check string)
                    "retry is byte-identical to an uninterrupted run" reference
                    result
              | Ok _ -> Alcotest.fail "unexpected frame on retry"
              | Error e -> Alcotest.fail e);
          Alcotest.(check int) "retry warm-started from the store" 1
            (stat server2 "warm_starts")))

let suite =
  [
    Alcotest.test_case "hello negotiates v2" `Quick test_hello_negotiation;
    Alcotest.test_case "run_stream ships progress frames" `Quick
      test_run_stream_progress;
    Alcotest.test_case "run_stream cache hit has no progress" `Quick
      test_run_stream_cache_hit;
    Alcotest.test_case "warm start across a server restart" `Slow
      test_warm_start_across_restart;
    Alcotest.test_case "v1 golden frames against a v2 server" `Quick
      test_v1_golden_frames;
    Alcotest.test_case "loadgen total failure reports n/a" `Quick
      test_loadgen_total_failure;
  ]

let chaos_suite =
  [
    Alcotest.test_case "cancel stops an in-flight run, zero lost" `Slow
      test_cancel_in_flight;
    Alcotest.test_case "drain mid-run, restart, resume byte-identical" `Slow
      test_drain_then_resume;
  ]
