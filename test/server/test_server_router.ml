(* Consistent-hash ring properties and router end-to-end tests: a real
   router over real in-process shards on loopback sockets. The chaos
   cases — ejection of a crashed shard with re-routing, re-admission
   after recovery, and a shard killed under swarm load with zero lost
   requests — live in [chaos_suite] and run under the chaos tier. *)

module Server = Ptg_server.Server
module Router = Ptg_server.Router
module Ring = Ptg_server.Ring
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario
module Clock = Ptg_util.Clock

(* ------------------------------------------------------------------ *)
(* Ring properties                                                     *)
(* ------------------------------------------------------------------ *)

let all_live n = Array.make n true

let route_exn ring ~live key =
  match Ring.route_string ring ~live key with
  | Some s -> s
  | None -> Alcotest.fail "route returned None with live shards"

let test_ring_coverage_and_determinism () =
  let ring = Ring.create 4 in
  let ring' = Ring.create 4 in
  let live = all_live 4 in
  let counts = Array.make 4 0 in
  for i = 0 to 999 do
    let key = Printf.sprintf "key-%d" i in
    let s = route_exn ring ~live key in
    counts.(s) <- counts.(s) + 1;
    Alcotest.(check int)
      "same layout, same shard" s
      (route_exn ring' ~live key)
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns a usable slice" i)
        true
        (c > 100))
    counts;
  (* Clustered keys (the shape real scenario hashes take — long shared
     prefix, a few differing digits) must still spread. *)
  let clustered = Array.make 2 0 in
  let ring2 = Ring.create 2 in
  for i = 0 to 63 do
    let s = route_exn ring2 ~live:(all_live 2) (Printf.sprintf "seed-10%02d" i) in
    clustered.(s) <- clustered.(s) + 1
  done;
  Alcotest.(check bool) "clustered keys spread" true
    (clustered.(0) > 0 && clustered.(1) > 0)

let test_ring_ejection_moves_only_ejected_keyspace () =
  let ring = Ring.create 4 in
  let keys = List.init 500 (Printf.sprintf "key-%d") in
  let before = List.map (fun k -> route_exn ring ~live:(all_live 4) k) keys in
  let live = all_live 4 in
  live.(2) <- false;
  let moved = ref 0 in
  List.iter2
    (fun k was ->
      let now = route_exn ring ~live k in
      Alcotest.(check bool) "never routed to an ejected shard" true (now <> 2);
      if was <> 2 then
        Alcotest.(check int) "non-ejected keyspace is untouched" was now
      else incr moved)
    keys before;
  Alcotest.(check bool) "the ejected keyspace moved somewhere" true (!moved > 0);
  (* Re-admission restores exactly the original ownership. *)
  live.(2) <- true;
  List.iter2
    (fun k was ->
      Alcotest.(check int) "readmission restores ownership" was
        (route_exn ring ~live k))
    keys before

let test_ring_edge_cases () =
  let ring = Ring.create 3 in
  Alcotest.(check bool) "no live shard routes nowhere" true
    (Ring.route_string ring ~live:(Array.make 3 false) "k" = None);
  Alcotest.(check int) "shards" 3 (Ring.shards ring);
  Alcotest.check_raises "live mask length checked"
    (Invalid_argument "Ring.route: live") (fun () ->
      ignore (Ring.route ring ~live:(all_live 2) 0L));
  Alcotest.(check bool) "shards < 1 rejected" true
    (match Ring.create 0 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "vnodes < 1 rejected" true
    (match Ring.create ~vnodes:0 2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let shares = Ring.ownership ring ~live:(all_live 3) in
  let total = Array.fold_left ( +. ) 0. shares in
  Alcotest.(check bool) "ownership sums to ~1" true (abs_float (total -. 1.) < 1e-3);
  Array.iter
    (fun s -> Alcotest.(check bool) "every live shard owns some arc" true (s > 0.))
    shares;
  let live = [| true; false; true |] in
  let shares = Ring.ownership ring ~live in
  Alcotest.(check (float 0.)) "ejected shard owns nothing" 0. shares.(1);
  Alcotest.(check bool) "all dead owns nothing" true
    (Array.for_all
       (fun s -> s = 0.)
       (Ring.ownership ring ~live:(Array.make 3 false)))

(* ------------------------------------------------------------------ *)
(* Router end-to-end helpers                                           *)
(* ------------------------------------------------------------------ *)

(* A fast retry policy so chaos paths do not sleep through production
   backoffs. *)
let fast_policy =
  { Client.attempts = 2; base_backoff_s = 0.01; max_backoff_s = 0.05; jitter = 0.5 }

let shard_config ?(handler = fun s -> "res-" ^ Scenario.hash s) ?(addr = Server.Tcp 0) () =
  {
    (Server.default_config addr) with
    Server.workers = 2;
    high_water = 32;
    handler = Some (Test_server_e2e.text_handler handler);
  }

let router_config ?(health_interval_s = 10.) ?(strike_limit = 1)
    ?(cache_capacity = 64) shards =
  {
    (Router.default_config (Server.Tcp 0) ~shards) with
    Router.retry = fast_policy;
    connect_timeout_s = 0.5;
    request_timeout_s = 5.;
    health_interval_s;
    strike_limit;
    cache_capacity;
  }

let rstat router key =
  match List.assoc_opt key (Router.stats router) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "router stat %s missing" key

let wait_for_rstat router key want =
  let deadline = Clock.ns_after (Clock.now_ns ()) 5.0 in
  let rec go () =
    if rstat router key = want then ()
    else if Clock.now_ns () >= deadline then
      Alcotest.failf "router stat %s never reached %d (now %d)" key want
        (rstat router key)
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let scenario_seed seed = Scenario.make ~seed Scenario.Fig8

(* An address nothing listens on: bind an ephemeral port, then close. *)
let dead_addr () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  Server.Tcp port

(* ------------------------------------------------------------------ *)
(* Router end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let test_router_forward_and_hot_cache () =
  let shards = List.init 2 (fun _ -> Server.start (shard_config ())) in
  let router =
    Router.start (router_config (List.map Server.listen_addr shards))
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      List.iter Server.stop shards)
    (fun () ->
      let addr = Router.listen_addr router in
      (match addr with
      | Server.Tcp port -> Alcotest.(check bool) "ephemeral port" true (port > 0)
      | _ -> Alcotest.fail "expected tcp");
      with_client addr (fun c ->
          (* Ping and stats speak the same protocol as a shard. *)
          (match Client.request ~id:"p" c Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | _ -> Alcotest.fail "ping not answered");
          (match Client.request c Protocol.Stats with
          | Ok (Protocol.Stats_reply rows) ->
              Alcotest.(check (option (float 0.)))
                "stats carries shard count" (Some 2.)
                (List.assoc_opt "shards" rows);
              Alcotest.(check (option (float 0.)))
                "all shards live" (Some 2.)
                (List.assoc_opt "shards_live" rows)
          | _ -> Alcotest.fail "stats not answered");
          let scenario = scenario_seed 1L in
          let want = "res-" ^ Scenario.hash scenario in
          (* First request: forwarded to exactly one shard, a miss
             there, and the bytes are the shard handler's. *)
          (match Client.run c scenario with
          | Ok (Protocol.Result { cache = Protocol.Miss; result; hash }) ->
              Alcotest.(check string) "shard bytes pass through" want result;
              Alcotest.(check string) "hash passes through"
                (Scenario.hash scenario) hash
          | Ok _ -> Alcotest.fail "expected a forwarded miss"
          | Error e -> Alcotest.fail e);
          Alcotest.(check int) "one forward" 1 (rstat router "forwarded");
          Alcotest.(check int) "exactly one shard saw it" 1
            (rstat router "shard0_requests" + rstat router "shard1_requests");
          (* Second identical request: answered from the router's own
             hot-set cache — same bytes, no extra forward. *)
          (match Client.run c scenario with
          | Ok (Protocol.Result { cache = Protocol.Hit; result; _ }) ->
              Alcotest.(check string) "router cache returns identical bytes"
                want result
          | Ok _ -> Alcotest.fail "expected a router cache hit"
          | Error e -> Alcotest.fail e);
          Alcotest.(check int) "no extra forward" 1 (rstat router "forwarded");
          Alcotest.(check int) "router cache hit counted" 1
            (rstat router "cache_hits");
          Alcotest.(check int) "both served" 2 (rstat router "served");
          (* A working set of distinct scenarios spreads over both
             shards. *)
          for i = 2 to 33 do
            match Client.run c (scenario_seed (Int64.of_int i)) with
            | Ok (Protocol.Result _) -> ()
            | Ok _ -> Alcotest.fail "unexpected frame"
            | Error e -> Alcotest.fail e
          done;
          Alcotest.(check bool) "both shards took requests" true
            (rstat router "shard0_requests" > 0
            && rstat router "shard1_requests" > 0);
          Alcotest.(check int) "nothing lost or errored" 0
            (rstat router "errors" + rstat router "no_live")))

let test_router_shutdown_frame () =
  let shard = Server.start (shard_config ()) in
  let router = Router.start (router_config [ Server.listen_addr shard ]) in
  let addr = Router.listen_addr router in
  with_client addr (fun c ->
      match Client.request c Protocol.Shutdown with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
  Router.wait router;
  (* stop after wait is a no-op. *)
  Router.stop router;
  Server.stop shard

(* The router forwards every run as a v2 stream, and a sliceable plan
   (here two fig6 rows) has its shard write a progress frame after the
   first row and then the result as separate small writes. With Nagle's
   algorithm on the shard hop, the result waits for the progress frame's
   ACK, which the router — sending nothing back — delays by about 40 ms.
   With Nagle off, a cold routed run costs the shard's few milliseconds
   of compute. (A one-row run writes no progress frame, so it cannot
   show the stall.) *)
let cold_fig6 ?(rows = 1) i =
  let workloads = Array.of_list Ptg_workloads.Workload.names in
  Scenario.make ~seed:(Int64.of_int (70_000 + i)) ~reduced:true
    ~workloads:(List.init rows (fun k -> workloads.((i + k) mod Array.length workloads)))
    ~instrs:2000 ~warmup:500 Scenario.Fig6

let test_routed_cold_runs_skip_delayed_ack () =
  let shards =
    List.init 2 (fun _ ->
        Server.start { (Server.default_config (Server.Tcp 0)) with Server.workers = 1 })
  in
  let router = Router.start (router_config (List.map Server.listen_addr shards)) in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      List.iter Server.stop shards)
    (fun () ->
      with_client (Router.listen_addr router) (fun c ->
          let runs = 32 in
          let latency_ms =
            Array.init runs (fun i ->
                let t0 = Clock.now_ns () in
                (match Client.run c (cold_fig6 ~rows:2 i) with
                | Ok (Protocol.Result { cache = Protocol.Miss; _ }) -> ()
                | Ok _ -> Alcotest.fail "expected a computed miss"
                | Error e -> Alcotest.fail e);
                Clock.elapsed_us t0 /. 1e3)
          in
          (* The premise: fig6 reports progress per row, and a routed
             stream re-emits what its shard streamed. Whether a two-row
             run carries its first row's frame is a race between the
             shard's connection thread waking and the second row
             finishing, so some of a few streams must. *)
          let progress = ref 0 in
          for i = 0 to 7 do
            match
              Client.run_stream ~on_progress:(fun ~done_count:_ ~total:_ -> incr progress)
                c (cold_fig6 ~rows:2 (runs + i))
            with
            | Ok (Protocol.Result { cache = Protocol.Miss; _ }) -> ()
            | Ok _ -> Alcotest.fail "expected a computed stream"
            | Error e -> Alcotest.fail e
          done;
          Alcotest.(check bool) "the shards streamed progress" true (!progress >= 1);
          (* A stall hits only some runs, so stalls can leave the
             median either side of 20 ms; the count of stalled runs
             separates the two cleanly. *)
          let p50 = Ptg_util.Stats.percentile latency_ms 50. in
          let stalled = Array.fold_left (fun n ms -> if ms >= 30. then n + 1 else n) 0 latency_ms in
          if p50 >= 20. || stalled > 4 then
            Alcotest.failf
              "cold routed p50 %.1f ms (want < 20), %d of %d runs >= 30 ms (want <= 4): \
               a delayed-ACK stall?"
              p50 stalled runs))

(* A progress frame whose done equals its total only says "finished",
   right before the result that says it: none is sent. A one-row stream
   through the router therefore carries no progress frame, while a
   two-row stream reports its first row (rows long enough that the
   shard's connection thread wakes before the second one ends). *)
let test_routed_streams_skip_finished_progress () =
  let shards =
    List.init 2 (fun _ ->
        Server.start { (Server.default_config (Server.Tcp 0)) with Server.workers = 1 })
  in
  let router = Router.start (router_config (List.map Server.listen_addr shards)) in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      List.iter Server.stop shards)
    (fun () ->
      with_client (Router.listen_addr router) (fun c ->
          let frames scenario =
            let seen = ref [] in
            (match
               Client.run_stream
                 ~on_progress:(fun ~done_count ~total -> seen := (done_count, total) :: !seen)
                 c scenario
             with
            | Ok (Protocol.Result { cache = Protocol.Miss; _ }) -> ()
            | Ok _ -> Alcotest.fail "expected a computed stream"
            | Error e -> Alcotest.fail e);
            List.rev !seen
          in
          for i = 0 to 15 do
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "one-row stream %d: no progress frame" i)
              [] (frames (cold_fig6 (100 + i)))
          done;
          let two_rows i =
            let s = cold_fig6 ~rows:2 (200 + i) in
            { s with Scenario.instrs = Some 400_000; warmup = Some 20_000 }
          in
          for i = 0 to 3 do
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "two-row stream %d: the first row only" i)
              [ (1, 2) ] (frames (two_rows i))
          done))

(* ------------------------------------------------------------------ *)
(* Chaos: ejection, re-routing, re-admission, kill-under-swarm         *)
(* ------------------------------------------------------------------ *)

let test_ejection_and_rerouting () =
  let shard = Server.start (shard_config ()) in
  let router =
    Router.start (router_config [ Server.listen_addr shard; dead_addr () ])
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Server.stop shard)
    (fun () ->
      with_client (Router.listen_addr router) (fun c ->
          (* Enough distinct scenarios that some route to the dead
             shard: each such request must be re-routed, not failed. *)
          for i = 0 to 31 do
            match Client.run c (scenario_seed (Int64.of_int i)) with
            | Ok (Protocol.Result { result; _ }) ->
                Alcotest.(check bool) "re-routed requests return real bytes"
                  true
                  (String.length result > 0)
            | Ok _ -> Alcotest.fail "expected every request to be served"
            | Error e -> Alcotest.fail e
          done);
      Alcotest.(check int) "dead shard ejected" 1 (rstat router "ejections");
      Alcotest.(check bool) "re-routes counted" true (rstat router "reroutes" >= 1);
      Alcotest.(check int) "dead shard marked down" 0 (rstat router "shard1_live");
      Alcotest.(check bool) "ejection state exposed" true
        (Router.live_shards router = [| true; false |]);
      Alcotest.(check int) "no request was lost" 0
        (rstat router "errors" + rstat router "no_live"))

let test_readmission_after_recovery () =
  let path = Filename.temp_file "ptg_router_shard" ".sock" in
  (* A fresh path: start refuses to replace the regular file temp_file
     leaves there. *)
  Sys.remove path;
  let shard_addr = Server.Unix_socket path in
  let shard = ref (Server.start (shard_config ~addr:shard_addr ())) in
  let router =
    Router.start (router_config ~health_interval_s:0.05 [ shard_addr ])
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Server.stop !shard;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      with_client (Router.listen_addr router) (fun c ->
          match Client.run c (scenario_seed 1L) with
          | Ok (Protocol.Result _) -> ()
          | _ -> Alcotest.fail "healthy shard must serve");
      (* Crash the only shard: health pings eject it. *)
      Server.stop !shard;
      wait_for_rstat router "shards_live" 0;
      Alcotest.(check bool) "ejection counted" true (rstat router "ejections" >= 1);
      (* With no live shard the router sheds rather than hangs. *)
      with_client (Router.listen_addr router) (fun c ->
          match Client.run c (scenario_seed 2L) with
          | Ok Protocol.Overloaded -> ()
          | _ -> Alcotest.fail "expected overloaded with no live shard");
      (* Recovery on the same address: the next ping re-admits it with
         its original keyspace. *)
      shard := Server.start (shard_config ~addr:shard_addr ());
      wait_for_rstat router "shards_live" 1;
      Alcotest.(check int) "readmission counted" 1 (rstat router "readmissions");
      with_client (Router.listen_addr router) (fun c ->
          match Client.run c (scenario_seed 3L) with
          | Ok (Protocol.Result _) -> ()
          | _ -> Alcotest.fail "readmitted shard must serve again"))

let test_shard_kill_under_swarm () =
  let shards =
    (* Tiny shard caches and a slowed handler keep the swarm airborne
       long enough that the kill lands while requests are in flight. *)
    List.init 2 (fun _ ->
        Server.start
          {
            (shard_config
               ~handler:(fun s ->
                 Thread.delay 0.002;
                 "res-" ^ Scenario.hash s)
               ())
            with
            Server.cache_capacity = 2;
          })
  in
  let router =
    (* Router cache far below the working set, so the kill is actually
       exercised against the shards rather than absorbed by the hot
       cache. *)
    Router.start
      (router_config ~cache_capacity:2
         (List.map Server.listen_addr shards))
  in
  let victim = List.hd shards in
  let survivors = List.tl shards in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      List.iter Server.stop survivors)
    (fun () ->
      let scenarios = List.init 16 (fun i -> scenario_seed (Int64.of_int i)) in
      let report = ref None in
      let load =
        Thread.create
          (fun () ->
            report :=
              Some
                (Client.loadgen ~policy:fast_policy ~swarm:2
                   ~addr:(Router.listen_addr router) ~clients:4
                   ~requests_per_client:100 ~scenarios ()))
          ()
      in
      (* Kill one shard mid-swarm. *)
      Thread.delay 0.1;
      Server.stop victim;
      Thread.join load;
      let r = Option.get !report in
      Alcotest.(check int) "every request issued" 400 r.Client.requests;
      let lost =
        r.Client.requests - r.Client.ok - r.Client.overloaded
        - r.Client.timeouts - r.Client.errors
      in
      Alcotest.(check int) "no request fell through unanswered" 0 lost;
      Alcotest.(check int) "no request was failed by the kill" 0
        (r.Client.errors + r.Client.overloaded + r.Client.timeouts);
      Alcotest.(check int) "every request served ok" 400 r.Client.ok;
      (* The kill is observable: the victim was ejected and its traffic
         re-routed to the survivor. *)
      Alcotest.(check int) "victim ejected" 1 (rstat router "ejections");
      Alcotest.(check int) "victim marked down" 0 (rstat router "shard0_live");
      Alcotest.(check bool) "re-routes counted" true
        (rstat router "reroutes" >= 1))

let test_router_obs_series () =
  let sink = Ptg_obs.Sink.create () in
  let shard = Server.start (shard_config ()) in
  let dead = dead_addr () in
  let router =
    Router.start
      { (router_config [ Server.listen_addr shard; dead ]) with Router.obs = Some sink }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Server.stop shard)
    (fun () ->
      with_client (Router.listen_addr router) (fun c ->
          for i = 0 to 15 do
            match Client.run c (scenario_seed (Int64.of_int i)) with
            | Ok (Protocol.Result _) -> ()
            | _ -> Alcotest.fail "expected every request served"
          done;
          (* One repeat for a router cache hit. *)
          match Client.run c (scenario_seed 0L) with
          | Ok (Protocol.Result { cache = Protocol.Hit; _ }) -> ()
          | _ -> Alcotest.fail "expected a router cache hit");
      let m = Ptg_obs.Sink.metrics sink in
      let v key =
        match Ptg_obs.Registry.find m key with
        | Some v -> v
        | None -> Alcotest.failf "metric %s missing" key
      in
      Alcotest.(check (float 0.)) "served total" 17. (v "router_served_total");
      Alcotest.(check bool) "per-shard request counters" true
        (v "router_shard_requests_total{shard=\"0\"}" > 0.);
      Alcotest.(check (float 0.)) "ejection counter labelled by shard" 1.
        (v "router_shard_ejections_total{shard=\"1\"}");
      Alcotest.(check bool) "hit ratio gauge live" true
        (v "router_cache_hit_ratio" > 0.);
      (* Ring-position gauges: after the ejection the live shard owns
         the whole keyspace. *)
      Alcotest.(check bool) "survivor owns ~whole ring" true
        (v "router_ring_share{shard=\"0\"}" > 0.999);
      Alcotest.(check (float 0.)) "ejected shard owns nothing" 0.
        (v "router_ring_share{shard=\"1\"}");
      Alcotest.(check (float 0.)) "live-shard gauge" 1. (v "router_live_shards");
      (* Trace carries typed router events. *)
      let tr = Ptg_obs.Sink.trace sink in
      let kinds = List.map Ptg_obs.Trace.kind (Ptg_obs.Trace.events tr) in
      Alcotest.(check bool) "router_request events recorded" true
        (List.mem "router_request" kinds))

let suite =
  [
    Alcotest.test_case "ring covers every shard deterministically" `Quick
      test_ring_coverage_and_determinism;
    Alcotest.test_case "ejection moves only the ejected keyspace" `Quick
      test_ring_ejection_moves_only_ejected_keyspace;
    Alcotest.test_case "ring edge cases and ownership" `Quick
      test_ring_edge_cases;
    Alcotest.test_case "router forwards, caches and spreads" `Slow
      test_router_forward_and_hot_cache;
    Alcotest.test_case "router stops on a shutdown frame" `Slow
      test_router_shutdown_frame;
    Alcotest.test_case "router observability series" `Slow
      test_router_obs_series;
    Alcotest.test_case "cold routed runs skip the delayed-ACK stall" `Slow
      test_routed_cold_runs_skip_delayed_ack;
    Alcotest.test_case "routed streams send no finished-only progress frame" `Slow
      test_routed_streams_skip_finished_progress;
  ]

let chaos_suite =
  [
    Alcotest.test_case "dead shard ejected, its keyspace re-routed" `Slow
      test_ejection_and_rerouting;
    Alcotest.test_case "recovered shard re-admitted by health ping" `Slow
      test_readmission_after_recovery;
    Alcotest.test_case "shard killed under swarm load loses nothing" `Slow
      test_shard_kill_under_swarm;
  ]
