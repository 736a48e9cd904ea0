(* The whole [stats] payload and the counter rows of the metrics sink,
   pinned for one scripted session against a server alone and against a
   router in front of it, each with a sink and without one. The session
   touches every counting path a deterministic test can reach: miss,
   hit, eviction, coalesce, shed, a bad frame, a cancel naming nothing
   in flight, and one injected fault. Every stat that names an event
   must also read the same value as its metric series. *)

module Server = Ptg_server.Server
module Router = Ptg_server.Router
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Faults = Ptg_server.Faults
module Scenario = Ptg_sim.Scenario
module Registry = Ptg_obs.Registry
module Sink = Ptg_obs.Sink
module Clock = Ptg_util.Clock

let scenario seed = Scenario.make ~seed:(Int64.of_int seed) Scenario.Fig8

(* Runs of this seed block until the gate opens. *)
let gated_seed = 100

let wait_until what f =
  let deadline = Clock.ns_after (Clock.now_ns ()) 10.0 in
  let rec go () =
    if not (f ()) then
      if Clock.now_ns () >= deadline then Alcotest.failf "timed out waiting for %s" what
      else begin
        Thread.delay 0.005;
        go ()
      end
  in
  go ()

let stat rows key =
  match List.assoc_opt key rows with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" key

let expect_result what want = function
  | Ok (Protocol.Result { cache; _ }) ->
      Alcotest.(check string) what
        (Protocol.cache_disposition_name want)
        (Protocol.cache_disposition_name cache)
  | Ok _ -> Alcotest.failf "%s: unexpected frame" what
  | Error e -> Alcotest.failf "%s: %s" what e

(* One line-JSON frame on a fresh raw connection; returns the reply. *)
let raw_frame addr frame =
  let domain, sockaddr = Ptg_server.Listener.sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd sockaddr;
      let line = frame ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      let buf = Bytes.create 4096 in
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      Bytes.sub_string buf 0 n)

(* A one-worker-slot server with a two-entry cache, whose handler holds
   [gated_seed] runs until [gate] opens. *)
let server_config ~obs ~gate =
  let handler ~progress:_ ~should_stop:_ s =
    if s.Scenario.seed = Int64.of_int gated_seed then
      while not (Atomic.get gate) do
        Thread.delay 0.002
      done;
    {
      Ptg_sim.Checkpoint.text = Some ("res-" ^ Scenario.hash s);
      completed = true;
      resumed_from = None;
    }
  in
  {
    (Server.default_config (Server.Tcp 0)) with
    Server.workers = 2;
    high_water = 1;
    cache_capacity = 2;
    obs;
    handler = Some handler;
  }

(* The scripted session, sent to [addr]: the server itself, or a router
   in front of it. *)
let session ~addr ~server ~faults ~gate =
  let c = Client.connect addr in
  expect_result "first run" Protocol.Miss (Client.run c (scenario 1));
  expect_result "repeat" Protocol.Hit (Client.run c (scenario 1));
  (* Two more keys overflow the two-entry caches: one eviction. *)
  expect_result "second key" Protocol.Miss (Client.run c (scenario 2));
  expect_result "third key" Protocol.Miss (Client.run c (scenario 3));
  (* A computation held in flight, an identical request coalescing onto
     it, and one more key shed at the high-water mark of one. *)
  let first = ref (Error "unset") and second = ref (Error "unset") in
  let run_gated cell () =
    let c = Client.connect addr in
    cell := Client.run c (scenario gated_seed);
    Client.close c
  in
  let t1 = Thread.create (run_gated first) () in
  wait_until "the gated run in flight" (fun () ->
      stat (Server.stats server) "inflight" = 1.);
  let t2 = Thread.create (run_gated second) () in
  wait_until "the coalesced waiter" (fun () ->
      stat (Server.stats server) "coalesced" = 1.);
  (match Client.run c (scenario 4) with
  | Ok Protocol.Overloaded -> ()
  | _ -> Alcotest.fail "expected the fourth key shed");
  Atomic.set gate true;
  Thread.join t1;
  Thread.join t2;
  expect_result "gated run" Protocol.Miss !first;
  expect_result "coalesced run" Protocol.Coalesced !second;
  (* An undecodable frame and a cancel naming nothing in flight. *)
  let reply = raw_frame addr "not json" in
  Alcotest.(check bool) "bad frame answered with an error frame" true
    (String.length reply > 0 && reply.[0] = '{');
  (match Client.cancel c ~target:"nobody" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cancel of an unknown id acknowledged");
  (* One injected fault, consumed by the next frame the server admits. *)
  Faults.arm faults (Faults.Delay_handler 0.);
  expect_result "fifth key" Protocol.Miss (Client.run c (scenario 5));
  Client.close c

(* Closed client connections unwind on the serving side asynchronously;
   the payload is read once every one of them has. *)
let quiesce stats = wait_until "connections to close" (fun () -> stat (stats ()) "conns" = 0.)

let render rows = List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) rows

(* Counter series only: latency histograms and gauges carry timings. *)
let counter_rows sink =
  List.filter
    (fun (k, _) ->
      let name = match String.index_opt k '{' with Some i -> String.sub k 0 i | None -> k in
      String.ends_with ~suffix:"_total" name)
    (Registry.rows (Sink.metrics sink))

let check_lines what want got =
  if want <> got then
    Alcotest.failf "%s differs; got:\n%s" what
      (String.concat "\n" (List.map (Printf.sprintf "    %S;") got))

(* A stat and the metric series that counts the same event (summed over
   its labels when the stat is a total). *)
let check_pairs pairs stats sink =
  let rows = Registry.rows (Sink.metrics sink) in
  List.iter
    (fun (s, m) ->
      let series =
        List.fold_left
          (fun acc (k, v) ->
            if k = m || String.starts_with ~prefix:(m ^ "{") k then acc +. v else acc)
          0. rows
      in
      Alcotest.(check (float 0.)) (Printf.sprintf "%s = %s" s m) (stat stats s) series)
    pairs

let listener_pairs name =
  [
    ("accept_errors", name ^ "_accept_errors_total");
    ("conn_shed", name ^ "_conns_shed_total");
    ("idle_closed", name ^ "_conns_idle_closed_total");
  ]

let server_pairs =
  listener_pairs "server"
  @ [
      ("cache_evictions", "server_cache_evictions_total");
      ("cache_hits", "server_cache_hits_total");
      ("cache_misses", "server_cache_misses_total");
      ("cancelled", "server_cancelled_total");
      ("coalesced", "server_coalesced_total");
      ("errors", "server_errors_total");
      ("faults_injected", "server_faults_injected_total");
      ("orphaned_stops", "server_orphaned_stops_total");
      ("pool_dropped", "server_pool_dropped_exceptions_total");
      ("served", "server_served_total");
      ("shed", "server_shed_total");
      ("sliced", "server_sliced_total");
      ("timeouts", "server_timeouts_total");
      ("warm_starts", "server_warm_starts_total");
    ]

let router_pairs =
  listener_pairs "router"
  @ [
      ("adoptions", "router_adoptions_total");
      ("cache_evictions", "router_cache_evictions_total");
      ("cache_hits", "router_cache_hits_total");
      ("cache_misses", "router_cache_misses_total");
      ("ejections", "router_shard_ejections_total");
      ("errors", "router_errors_total");
      ("forwarded", "router_forwarded_total");
      ("no_live", "router_no_live_shard_total");
      ("overloaded", "router_overloaded_total");
      ("readmissions", "router_shard_readmissions_total");
      ("reroutes", "router_reroutes_total");
      ("served", "router_served_total");
      ("shard0_ejections", "router_shard_ejections_total{shard=\"0\"}");
      ("shard0_requests", "router_shard_requests_total{shard=\"0\"}");
      ("timeouts", "router_timeouts_total");
    ]

(* ------------------------------------------------------------------ *)
(* Pinned payloads                                                     *)
(* ------------------------------------------------------------------ *)

let server_alone_stats =
  [
    "accept_errors=0";
    "cache_bytes=72";
    "cache_entries=2";
    "cache_evictions=3";
    "cache_hits=1";
    "cache_misses=7";
    "cancelled=0";
    "coalesced=1";
    "conn_shed=0";
    "conns=0";
    "errors=1";
    "faults_injected=1";
    "high_water=1";
    "idle_closed=0";
    "inflight=0";
    "max_conns=256";
    "orphaned_stops=0";
    "pending=0";
    "pool_dropped=0";
    "served=7";
    "shed=1";
    "sliced=0";
    "timeouts=0";
    "warm_starts=0";
    "workers=2";
  ]

let server_alone_metrics =
  [
    "server_accept_errors_total=0";
    "server_cache_evictions_total=3";
    "server_cache_hits_total=1";
    "server_cache_misses_total=7";
    "server_cancelled_total=0";
    "server_coalesced_total=1";
    "server_conns_idle_closed_total=0";
    "server_conns_shed_total=0";
    "server_errors_total=1";
    "server_faults_injected_total=1";
    "server_orphaned_stops_total=0";
    "server_pool_dropped_exceptions_total=0";
    "server_served_total=7";
    "server_shed_total=1";
    "server_sliced_total=0";
    "server_timeouts_total=0";
    "server_warm_starts_total=0";
  ]

let router_stats =
  [
    "accept_errors=0";
    "adoptions=0";
    "cache_bytes=72";
    "cache_entries=2";
    "cache_evictions=3";
    "cache_hits=1";
    "cache_misses=7";
    "conn_shed=0";
    "conns=0";
    "ejections=0";
    "errors=2";
    "forwarded=6";
    "idle_closed=0";
    "no_live=0";
    "overloaded=1";
    "readmissions=0";
    "reroutes=0";
    "served=7";
    "shard0_ejections=0";
    "shard0_live=1";
    "shard0_requests=7";
    "shards=1";
    "shards_live=1";
    "timeouts=0";
  ]

let shard_stats =
  [
    "accept_errors=0";
    "cache_bytes=72";
    "cache_entries=2";
    "cache_evictions=3";
    "cache_hits=0";
    "cache_misses=7";
    "cancelled=0";
    "coalesced=1";
    "conn_shed=0";
    "conns=0";
    "errors=0";
    "faults_injected=1";
    "high_water=1";
    "idle_closed=0";
    "inflight=0";
    "max_conns=256";
    "orphaned_stops=0";
    "pending=0";
    "pool_dropped=0";
    "served=6";
    "shed=1";
    "sliced=0";
    "timeouts=0";
    "warm_starts=0";
    "workers=2";
  ]

let router_metrics =
  [
    "router_accept_errors_total=0";
    "router_adoptions_total=0";
    "router_cache_evictions_total=3";
    "router_cache_hits_total=1";
    "router_cache_misses_total=7";
    "router_conns_idle_closed_total=0";
    "router_conns_shed_total=0";
    "router_errors_total=2";
    "router_forwarded_total=6";
    "router_no_live_shard_total=0";
    "router_overloaded_total=1";
    "router_reroutes_total=0";
    "router_served_total=7";
    "router_shard_ejections_total{shard=\"0\"}=0";
    "router_shard_readmissions_total{shard=\"0\"}=0";
    "router_shard_requests_total{shard=\"0\"}=7";
    "router_timeouts_total=0";
  ]

let shard_metrics =
  [
    "server_accept_errors_total=0";
    "server_cache_evictions_total=3";
    "server_cache_hits_total=0";
    "server_cache_misses_total=7";
    "server_cancelled_total=0";
    "server_coalesced_total=1";
    "server_conns_idle_closed_total=0";
    "server_conns_shed_total=0";
    "server_errors_total=0";
    "server_faults_injected_total=1";
    "server_orphaned_stops_total=0";
    "server_pool_dropped_exceptions_total=0";
    "server_served_total=6";
    "server_shed_total=1";
    "server_sliced_total=0";
    "server_timeouts_total=0";
    "server_warm_starts_total=0";
  ]


(* ------------------------------------------------------------------ *)
(* Cases                                                               *)
(* ------------------------------------------------------------------ *)

let test_server ~with_sink () =
  let obs = if with_sink then Some (Sink.create ()) else None in
  let gate = Atomic.make false in
  let config = server_config ~obs ~gate in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      session ~addr:(Server.listen_addr server) ~server ~faults:config.Server.faults ~gate;
      quiesce (fun () -> Server.stats server);
      let stats = Server.stats server in
      check_lines "server stats" server_alone_stats (render stats);
      Option.iter
        (fun sink ->
          check_lines "server metrics" server_alone_metrics (render (counter_rows sink));
          check_pairs server_pairs stats sink)
        obs)

let test_router ~with_sink () =
  let sink () = if with_sink then Some (Sink.create ()) else None in
  let shard_obs = sink () and router_obs = sink () in
  let gate = Atomic.make false in
  let config = server_config ~obs:shard_obs ~gate in
  let server = Server.start config in
  let router =
    Router.start
      {
        (Router.default_config (Server.Tcp 0) ~shards:[ Server.listen_addr server ]) with
        Router.cache_capacity = 2;
        health_interval_s = 60.;
        obs = router_obs;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Server.stop server)
    (fun () ->
      session ~addr:(Router.listen_addr router) ~server ~faults:config.Server.faults ~gate;
      quiesce (fun () -> Router.stats router);
      quiesce (fun () -> Server.stats server);
      let rstats = Router.stats router and sstats = Server.stats server in
      check_lines "router stats" router_stats (render rstats);
      check_lines "shard stats" shard_stats (render sstats);
      Option.iter
        (fun sink ->
          check_lines "router metrics" router_metrics (render (counter_rows sink));
          check_pairs
            (("shards_live", "router_live_shards") :: router_pairs)
            rstats sink)
        router_obs;
      Option.iter
        (fun sink ->
          check_lines "shard metrics" shard_metrics (render (counter_rows sink));
          check_pairs server_pairs sstats sink)
        shard_obs)

let suite =
  [
    Alcotest.test_case "server payload, no sink" `Quick (test_server ~with_sink:false);
    Alcotest.test_case "server payload and series, sink" `Quick (test_server ~with_sink:true);
    Alcotest.test_case "router payload, no sink" `Quick (test_router ~with_sink:false);
    Alcotest.test_case "router payload and series, sink" `Quick (test_router ~with_sink:true);
  ]
