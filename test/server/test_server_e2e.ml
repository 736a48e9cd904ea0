(* In-process end-to-end tests: a real server on a real socket, real
   client connections. The compute handler is overridden where the test
   is about scheduling (backpressure, coalescing); the cache test runs
   the genuine experiment and compares against the CLI binary's bytes. *)

module Server = Ptg_server.Server
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario

let cli =
  Filename.concat
    (Filename.concat
       (Filename.concat Filename.parent_dir_name Filename.parent_dir_name)
       "bin")
    "ptguard_cli.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_server config f =
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* The server's compute hook for a test handler that only renders
   text: no progress, never stops early. *)
let text_handler f ~progress:_ ~should_stop:_ scenario =
  { Ptg_sim.Checkpoint.text = Some (f scenario); completed = true; resumed_from = None }

let base_config ?handler ?obs ?(workers = 2) ?(high_water = 8) () =
  {
    (Server.default_config (Server.Tcp 0)) with
    Server.workers;
    high_water;
    obs;
    handler = Option.map text_handler handler;
  }

let stat server key =
  match List.assoc_opt key (Server.stats server) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stat %s missing" key

let scenario_seed seed = Scenario.make ~seed Scenario.Fig8

let test_ping_stats_shutdown () =
  let config = base_config ~handler:(fun _ -> "unused") () in
  let server = Server.start config in
  let addr = Server.listen_addr server in
  (match addr with
  | Server.Tcp port -> Alcotest.(check bool) "ephemeral port" true (port > 0)
  | _ -> Alcotest.fail "expected tcp");
  with_client addr (fun c ->
      (match Client.request ~id:"p" c Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | other -> Alcotest.failf "ping: unexpected %s" (match other with Ok _ -> "frame" | Error e -> e));
      match Client.request c Protocol.Stats with
      | Ok (Protocol.Stats_reply rows) ->
          Alcotest.(check (option (float 0.)))
            "stats carries high_water" (Some 8.)
            (List.assoc_opt "high_water" rows)
      | _ -> Alcotest.fail "stats: unexpected reply");
  (* A shutdown frame stops the server; wait must return (never hang). *)
  with_client addr (fun c ->
      match Client.request c Protocol.Shutdown with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
  Server.wait server;
  (* stop after wait is a no-op. *)
  Server.stop server

let test_coalescing () =
  let runs = Atomic.make 0 in
  let handler _ =
    Atomic.incr runs;
    Thread.delay 0.5;
    "payload"
  in
  let config = base_config ~handler ~workers:4 ~high_water:16 () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      let k = 5 in
      (* Connect everyone first so the k requests are in flight together. *)
      let conns = Array.init k (fun _ -> Client.connect addr) in
      let replies = Array.make k (Error "unset") in
      let threads =
        Array.init k (fun i ->
            Thread.create
              (fun () -> replies.(i) <- Client.run conns.(i) (scenario_seed 1L))
              ())
      in
      Array.iter Thread.join threads;
      Array.iter Client.close conns;
      Alcotest.(check int) "exactly one underlying run" 1 (Atomic.get runs);
      let miss = ref 0 and coalesced = ref 0 and hit = ref 0 in
      Array.iter
        (function
          | Ok (Protocol.Result { cache; result; _ }) -> (
              Alcotest.(check string) "same payload" "payload" result;
              match cache with
              | Protocol.Miss -> incr miss
              | Protocol.Coalesced -> incr coalesced
              | Protocol.Hit -> incr hit)
          | Ok _ -> Alcotest.fail "unexpected frame"
          | Error e -> Alcotest.fail e)
        replies;
      Alcotest.(check int) "one miss" 1 !miss;
      Alcotest.(check int) "everyone served" k (!miss + !coalesced + !hit);
      Alcotest.(check int) "server counted the coalesced waiters" !coalesced
        (stat server "coalesced");
      Alcotest.(check int) "server served everyone" k (stat server "served"))

let test_backpressure () =
  let handler _ =
    Thread.delay 1.0;
    "slow"
  in
  let config = base_config ~handler ~workers:1 ~high_water:1 () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      let slow_reply = ref (Error "unset") in
      let slow_conn = Client.connect addr in
      let slow =
        Thread.create
          (fun () -> slow_reply := Client.run slow_conn (scenario_seed 1L))
          ()
      in
      Thread.delay 0.25 (* let the slow request get admitted *);
      let t0 = Unix.gettimeofday () in
      with_client addr (fun c ->
          match Client.run c (scenario_seed 2L) with
          | Ok Protocol.Overloaded ->
              (* Shedding is immediate: well inside the slow handler's
                 1 s, so the full request was never queued behind it. *)
              Alcotest.(check bool) "immediate refusal" true
                (Unix.gettimeofday () -. t0 < 0.6)
          | Ok _ -> Alcotest.fail "expected overloaded"
          | Error e -> Alcotest.fail e);
      Thread.join slow;
      Client.close slow_conn;
      (match !slow_reply with
      | Ok (Protocol.Result { cache = Protocol.Miss; result = "slow"; _ }) -> ()
      | _ -> Alcotest.fail "slow request should still complete");
      Alcotest.(check int) "one shed" 1 (stat server "shed");
      (* Below the high-water mark nothing sheds: the same request again
         is a cache hit. *)
      with_client addr (fun c ->
          match Client.run c (scenario_seed 1L) with
          | Ok (Protocol.Result { cache = Protocol.Hit; _ }) -> ()
          | _ -> Alcotest.fail "expected a cache hit");
      Alcotest.(check int) "shed did not grow" 1 (stat server "shed"))

let test_cache_hit_matches_cli () =
  let scenario =
    Scenario.make ~workloads:[ "mcf"; "bc" ] ~instrs:6000 ~warmup:2000
      Scenario.Fig6
  in
  let obs = Ptg_obs.Sink.create () in
  let config = base_config ~obs () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      let (first_cache, first_result), (second_cache, second_result, second_hash)
          =
        with_client addr (fun c ->
            let once () =
              match Client.run c scenario with
              | Ok (Protocol.Result { cache; hash; result }) ->
                  (cache, hash, result)
              | Ok _ -> Alcotest.fail "unexpected frame"
              | Error e -> Alcotest.fail e
            in
            let c1, _, r1 = once () in
            let c2, h2, r2 = once () in
            ((c1, r1), (c2, r2, h2)))
      in
      Alcotest.(check bool) "first is a miss" true (first_cache = Protocol.Miss);
      Alcotest.(check bool) "second is a hit" true (second_cache = Protocol.Hit);
      Alcotest.(check string) "hit bytes identical to the computed run"
        first_result second_result;
      Alcotest.(check string) "hash is the scenario content hash"
        (Scenario.hash scenario) second_hash;
      (* The served bytes are exactly what the CLI subcommand prints. *)
      let out = Filename.temp_file "ptg_serve_" ".out" in
      let code =
        Sys.command
          (Printf.sprintf
             "%s fig6 --workloads mcf,bc --instrs 6000 --warmup 2000 > %s 2> %s"
             cli out Filename.null)
      in
      Alcotest.(check int) "cli exit code" 0 code;
      Alcotest.(check string) "byte-identical to the CLI" (read_file out)
        first_result;
      Alcotest.(check int) "served" 2 (stat server "served");
      Alcotest.(check int) "one hit" 1 (stat server "cache_hits");
      Alcotest.(check int) "one entry" 1 (stat server "cache_entries"));
  (* The sink saw the same story: counters plus one trace event per
     request, tagged with the scenario hash. *)
  let snap = Ptg_obs.Sink.metrics obs in
  let metric k = Ptg_obs.Registry.find snap k in
  Alcotest.(check (option (float 0.))) "served metric" (Some 2.)
    (metric "server_served_total");
  Alcotest.(check (option (float 0.))) "hit metric" (Some 1.)
    (metric "server_cache_hits_total");
  Alcotest.(check (option (float 0.))) "latency histogram count" (Some 2.)
    (metric "server_request_latency_us_count");
  let events = Ptg_obs.Trace.events (Ptg_obs.Sink.trace obs) in
  let request_events =
    List.filter
      (function Ptg_obs.Trace.Server_request _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "one trace event per request" 2
    (List.length request_events)

(* The comparison of Section IV-G is servable: a fullsys scenario with
   "guarded":false renders exactly the CLI's UNPROTECTED block, wrong
   translations included. *)
let test_unprotected_fullsys_served () =
  let instrs = 8_000 in
  let scenario = Scenario.make ~instrs ~guarded:false Scenario.Fullsys in
  Alcotest.(check bool) "the frame names the machine" true
    (contains (Protocol.encode_request (Protocol.Run scenario)) {|"guarded":false|});
  let served =
    with_server (base_config ()) (fun server ->
        with_client (Server.listen_addr server) (fun c ->
            match Client.run c scenario with
            | Ok (Protocol.Result { result; _ }) -> result
            | Ok _ -> Alcotest.fail "unexpected frame"
            | Error e -> Alcotest.fail e))
  in
  let out = Filename.temp_file "ptg_serve_" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s fullsys --instrs %d > %s 2> %s" cli instrs out Filename.null)
  in
  Alcotest.(check int) "cli exit code" 0 code;
  Alcotest.(check bool) "the CLI's UNPROTECTED block" true
    (contains (read_file out) ("=== UNPROTECTED under attack ===\n" ^ served ^ "\n"));
  let wrong =
    List.find_map
      (fun line -> Scanf.sscanf_opt line "WRONG TRANSLATIONS: %d" Fun.id)
      (String.split_on_char '\n' served)
  in
  Alcotest.(check bool) "wrong translations on the unprotected machine" true
    (match wrong with Some n -> n > 0 | None -> false)

(* The analytical and attack artifacts are servable like the figures:
   each answer is the CLI's stdout byte for byte, and the same request
   again is a cache hit. *)
let test_artifacts_served () =
  with_server (base_config ()) (fun server ->
      with_client (Server.listen_addr server) (fun c ->
          List.iter
            (fun (args, scenario) ->
              let run () =
                match Client.run c scenario with
                | Ok (Protocol.Result { cache; result; _ }) -> (cache, result)
                | Ok _ -> Alcotest.fail "unexpected frame"
                | Error e -> Alcotest.fail e
              in
              let first_cache, first = run () in
              let second_cache, second = run () in
              let out = Filename.temp_file "ptg_serve_" ".out" in
              Alcotest.(check int) (args ^ ": cli exit code") 0
                (Sys.command
                   (Printf.sprintf "%s %s > %s 2> %s" cli args out Filename.null));
              Alcotest.(check string) (args ^ ": byte-identical to the CLI")
                (read_file out) first;
              Alcotest.(check bool) (args ^ ": first is a miss") true
                (first_cache = Protocol.Miss);
              Alcotest.(check bool) (args ^ ": second is a hit") true
                (second_cache = Protocol.Hit);
              Alcotest.(check string) (args ^ ": hit bytes identical") first second)
            [
              ("security", Scenario.make Scenario.Security);
              ( "attacks --iterations 20000",
                Scenario.make ~iterations:20_000 Scenario.Attacks );
            ]))

let test_protocol_error_frames () =
  let config = base_config ~handler:(fun _ -> "unused") () in
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
          let expect_error line =
            match Protocol.decode_response (roundtrip line) with
            | Ok (_, Protocol.Error_reply _) -> ()
            | _ -> Alcotest.failf "no error frame for %s" line
          in
          expect_error "this is not json";
          expect_error {|{"v":1,"op":"frobnicate"}|};
          expect_error {|{"v":9,"op":"ping"}|};
          expect_error {|{"v":1,"op":"run","scenario":{"kind":"fig6","bogus":1}}|};
          (* The connection survives error frames. *)
          (match Protocol.decode_response (roundtrip {|{"v":1,"op":"ping"}|}) with
          | Ok (_, Protocol.Pong) -> ()
          | _ -> Alcotest.fail "ping after errors");
          close_out_noerr oc;
          Alcotest.(check int) "errors counted" 4 (stat server "errors"))

let test_loadgen_report () =
  let handler _ = "payload" in
  let config = base_config ~handler ~workers:2 ~high_water:64 () in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      let report =
        Client.loadgen ~addr ~clients:4 ~requests_per_client:10
          ~scenarios:[ scenario_seed 1L; scenario_seed 2L ] ()
      in
      Alcotest.(check int) "all requests issued" 40 report.Client.requests;
      Alcotest.(check int) "all ok" 40 report.Client.ok;
      Alcotest.(check int) "none shed below high water" 0
        report.Client.overloaded;
      Alcotest.(check int) "no errors" 0 report.Client.errors;
      Alcotest.(check int) "no deadline expiries" 0 report.Client.timeouts;
      Alcotest.(check int) "no retries against a healthy server" 0
        report.Client.retries;
      Alcotest.(check int) "no reconnects" 0 report.Client.reconnects;
      Alcotest.(check int) "dispositions add up" 40
        (report.Client.hits + report.Client.misses + report.Client.coalesced);
      Alcotest.(check bool) "two distinct computations" true
        (stat server "cache_misses" >= 2);
      Alcotest.(check bool) "throughput positive" true
        (report.Client.throughput_rps > 0.);
      Alcotest.(check bool) "percentiles ordered" true
        (report.Client.p50_us <= report.Client.p95_us
        && report.Client.p95_us <= report.Client.p99_us);
      let rendered = Client.report_to_string report in
      Alcotest.(check bool) "report renders" true
        (String.length rendered > 0
        && rendered.[String.length rendered - 1] = '\n'))

(* A trace scenario served end to end: the first request computes the
   replay, the second hits the cache, and the key is content-addressed —
   the same trace bytes at a different path still hit. *)
let test_trace_scenario_served () =
  let write_trace path contents =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents)
  in
  let trace_contents =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "# demo\n";
    for i = 0 to 499 do
      Buffer.add_string buf
        (Printf.sprintf "0x%x %c %d\n"
           (0x48000000 + (i mod 7 * 0x40))
           (if i mod 3 = 0 then 'W' else 'R')
           i)
    done;
    Buffer.contents buf
  in
  let trace_path = Filename.temp_file "ptg_e2e_trace_" ".txt" in
  let copy_path = Filename.temp_file "ptg_e2e_copy_" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove trace_path;
      Sys.remove copy_path)
    (fun () ->
      write_trace trace_path trace_contents;
      write_trace copy_path trace_contents;
      let scenario = Scenario.make ~trace:trace_path ~mitigation:"trr" Scenario.Trace in
      let config = base_config () in
      with_server config (fun server ->
          let addr = Server.listen_addr server in
          with_client addr (fun c ->
              let once s =
                match Client.run c s with
                | Ok (Protocol.Result { cache; hash; result }) ->
                    (cache, hash, result)
                | Ok _ -> Alcotest.fail "unexpected frame"
                | Error e -> Alcotest.fail e
              in
              let c1, h1, r1 = once scenario in
              let c2, h2, r2 = once scenario in
              Alcotest.(check bool) "first is a miss" true (c1 = Protocol.Miss);
              Alcotest.(check bool) "second is a hit" true (c2 = Protocol.Hit);
              Alcotest.(check string) "hit bytes identical" r1 r2;
              Alcotest.(check string) "hash is the scenario content hash"
                (Scenario.hash scenario) h1;
              Alcotest.(check string) "hash stable across hit" h1 h2;
              Alcotest.(check string)
                "served bytes are exactly the replay rendering"
                (Scenario.run_to_string scenario) r1;
              (* Identical bytes at a different path share the entry. *)
              let c3, h3, r3 =
                once (Scenario.make ~trace:copy_path ~mitigation:"trr" Scenario.Trace)
              in
              Alcotest.(check bool) "content-addressed key: still a hit" true
                (c3 = Protocol.Hit);
              Alcotest.(check string) "same key" h1 h3;
              Alcotest.(check string) "same bytes" r1 r3);
          Alcotest.(check int) "one underlying computation" 1
            (stat server "cache_misses")))

(* Trace scenarios that cannot run come back as error frames — both the
   validation failure (decode time) and the capability failure (compute
   time, the replaced-assert path) — and the connection survives. *)
let test_trace_scenario_error_frames () =
  let trace_path = Filename.temp_file "ptg_e2e_err_" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace_path)
    (fun () ->
      Out_channel.with_open_bin trace_path (fun oc ->
          Out_channel.output_string oc "# demo\n0x48000000 R 0\n");
      let contains sub s =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      let config = base_config () in
      with_server config (fun server ->
          let addr = Server.listen_addr server in
          with_client addr (fun c ->
              let expect_error what scenario needle =
                match Client.run c scenario with
                | Ok (Protocol.Error_reply msg) ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: error names the cause (got %S)" what
                         msg)
                      true (contains needle msg)
                | Ok _ -> Alcotest.failf "%s: expected an error frame" what
                | Error e -> Alcotest.fail e
              in
              expect_error "nonexistent trace file"
                (Scenario.make ~trace:"/nonexistent/ptg_trace.txt"
                   Scenario.Trace)
                "does not exist";
              expect_error "soft-trr without its pt_row oracle"
                (Scenario.make ~trace:trace_path ~mitigation:"soft-trr"
                   Scenario.Trace)
                "oracle";
              (* The connection is still usable. *)
              match Client.request c Protocol.Ping with
              | Ok Protocol.Pong -> ()
              | _ -> Alcotest.fail "ping after trace error frames");
          Alcotest.(check bool) "errors counted" true
            (stat server "errors" >= 1)))

(* A socket file left behind by a dead server: bound, then closed
   without unlinking. *)
let stale_socket () =
  let path = Filename.temp_file "ptg_sock_" ".sock" in
  Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  path

let test_unix_socket_lifecycle () =
  let path = stale_socket () in
  (* start replaces the stale socket. *)
  let config =
    {
      (Server.default_config (Server.Unix_socket path)) with
      Server.handler = Some (text_handler (fun _ -> "via-unix-socket"));
    }
  in
  with_server config (fun server ->
      Alcotest.(check bool) "socket file exists" true (Sys.file_exists path);
      with_client (Server.listen_addr server) (fun c ->
          match Client.run c (scenario_seed 3L) with
          | Ok (Protocol.Result { result = "via-unix-socket"; _ }) -> ()
          | _ -> Alcotest.fail "unix-socket round trip"));
  Alcotest.(check bool) "socket file removed on stop" false
    (Sys.file_exists path)

(* A socket path naming a regular file is refused, and the file keeps
   its bytes. *)
let test_regular_file_refused () =
  let path = Filename.temp_file "ptg_not_a_sock_" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "precious");
  let config =
    {
      (Server.default_config (Server.Unix_socket path)) with
      Server.handler = Some (text_handler (fun _ -> ""));
    }
  in
  (match Server.start config with
  | server ->
      Server.stop server;
      Alcotest.fail "start replaced a regular file"
  | exception e ->
      let msg = Printexc.to_string e in
      Alcotest.(check bool) (Printf.sprintf "error names the path (got %s)" msg) true
        (contains msg path));
  Alcotest.(check string) "file untouched" "precious" (read_file path);
  Sys.remove path

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Every failed bind closes its socket: repeated starts on a port in use
   leave the descriptor count where it was. *)
let test_bind_failure_leaks_no_fd () =
  let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close holder) (fun () ->
      Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen holder 1;
      let port =
        match Unix.getsockname holder with Unix.ADDR_INET (_, p) -> p | _ -> assert false
      in
      let config = base_config ~handler:(fun _ -> "") () in
      let config = { config with Server.addr = Server.Tcp port } in
      let before = open_fds () in
      for _ = 1 to 20 do
        match Server.start config with
        | server ->
            Server.stop server;
            Alcotest.fail "bound a port already in use"
        | exception _ -> ()
      done;
      Alcotest.(check int) "open descriptors unchanged" before (open_fds ()))

(* The wire [jobs] hint is unbounded, but a worker must not spawn more
   domains than the host recommends: the handler sees it clamped, and
   the hash (which ignores [jobs]) is the unclamped request's. No
   domain is spawned: the capturing handler runs nothing. *)
let test_jobs_clamped () =
  let seen = Atomic.make 0 in
  let config =
    base_config
      ~handler:(fun s ->
        Atomic.set seen s.Scenario.jobs;
        "clamped")
      ()
  in
  let scenario = Scenario.make ~jobs:1_000_000 Scenario.Fig8 in
  with_server config (fun server ->
      with_client (Server.listen_addr server) (fun c ->
          match Client.run c scenario with
          | Ok (Protocol.Result { hash; result; _ }) ->
              Alcotest.(check string) "handler ran" "clamped" result;
              Alcotest.(check string) "hash ignores jobs" (Scenario.hash scenario) hash
          | _ -> Alcotest.fail "expected a result frame"));
  Alcotest.(check int) "jobs clamped to the host's domain count"
    (Ptg_util.Pool.default_jobs ()) (Atomic.get seen)

let suite =
  [
    Alcotest.test_case "ping, stats, shutdown" `Quick test_ping_stats_shutdown;
    Alcotest.test_case "identical concurrent requests coalesce" `Slow
      test_coalescing;
    Alcotest.test_case "overloaded beyond high water, never blocks" `Slow
      test_backpressure;
    Alcotest.test_case "cache hit is byte-identical to the CLI" `Slow
      test_cache_hit_matches_cli;
    Alcotest.test_case "unprotected fullsys served as the CLI prints it" `Slow
      test_unprotected_fullsys_served;
    Alcotest.test_case "artifacts served as the CLI prints them" `Slow
      test_artifacts_served;
    Alcotest.test_case "error frames keep the connection" `Quick
      test_protocol_error_frames;
    Alcotest.test_case "loadgen report" `Slow test_loadgen_report;
    Alcotest.test_case "trace scenario served with content-addressed cache"
      `Quick test_trace_scenario_served;
    Alcotest.test_case "trace scenario error frames" `Quick
      test_trace_scenario_error_frames;
    Alcotest.test_case "unix socket lifecycle" `Quick
      test_unix_socket_lifecycle;
    Alcotest.test_case "socket path naming a regular file is refused" `Quick
      test_regular_file_refused;
    Alcotest.test_case "failed bind leaks no descriptor" `Quick
      test_bind_failure_leaks_no_fd;
    Alcotest.test_case "wire jobs hint clamped" `Quick test_jobs_clamped;
  ]
