(* serve-mix: a closed loop of [clients] connections, each waiting for
   its reply before the next request as CLI and router callers do,
   against a router fronting two one-worker shards. The router and the
   shards are CLI processes separate from this generator (the topology
   serve-router --spawn 2 builds), so the generator's threads never
   contend with the servers for one runtime lock.

   Requests are seeded Zipf draws over [hot] small scenarios: more than
   the router's 64-entry LRU holds, so hits split between router hits
   and one extra hop to a shard hit. Shards get a cache large enough for
   the hot set plus every never-seen scenario of a run, so a shard never
   recomputes a hot scenario. One request in [miss_every] is a
   never-seen small reduced fig8 scenario, which always computes; fig8
   cost is heavy-tailed across seeds, so misses are kept rare enough
   that their cost does not dominate the run. Hit ratios are reported
   explicitly, so a serving number cannot hide a cache-capacity
   effect. *)

open Ptg_util
module Scenario = Ptg_sim.Scenario
module Server = Ptg_server.Server
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol

let clients = 2
let hot = 128
let router_cache = 64
let shard_cache = 4096
let zipf_exponent = 1.0
let miss_every = 400
let hot_instrs = 2000
let miss_processes = 2
let setup_repeats = 3

(* Enough samples to leave 10 beyond p99 of hits and p90 of misses. *)
let min_hits = 1000
let min_misses = 100

(* One never-seen result in this many is recomputed in-process and
   compared byte for byte. *)
let check_every_miss = 8
let request_timeout_s = 30.

(* Hot scenarios are one-workload fig6 rows of a few thousand
   instructions: their cost barely depends on the seed, so the warm pass
   (part of set-up) is steady across seeds. *)
let hot_scenario seed i =
  let workloads = Ptg_workloads.Workload.names in
  Scenario.make ~seed:(Int64.add (Int64.mul seed 1000L) (Int64.of_int i)) ~reduced:true
    ~workloads:[ List.nth workloads (i mod List.length workloads) ]
    ~instrs:hot_instrs ~warmup:(hot_instrs / 4) Scenario.Fig6

(* Distinct per client and per request. *)
let miss_scenario seed ~client j =
  Scenario.make
    ~seed:(Int64.add (Int64.mul seed 10_000_000L) (Int64.of_int ((client * 5_000_000) + j)))
    ~reduced:true ~processes:miss_processes Scenario.Fig8

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

type proc = { pid : int; out : in_channel; addr : Server.addr }

(* Start a CLI server process and read the port it announces on its
   first stdout line. *)
let spawn cli args ~announce =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  match Scanf.sscanf_opt line announce (fun p -> p) with
  | Some port -> { pid; out; addr = Server.Tcp port }
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr out;
      failwith (Printf.sprintf "%s %s announced %S" cli (String.concat " " args) line)

let rec reap pid ~tries =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when tries > 0 ->
      Thread.delay 0.05;
      reap pid ~tries:(tries - 1)
  | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid ~tries

(* A shutdown frame, then up to 10 s for the process to exit. *)
let shutdown p =
  (try
     let c = Client.connect ~timeout_s:2. p.addr in
     ignore (Client.request ~timeout_s:5. c Protocol.Shutdown);
     Client.close c
   with _ -> ());
  reap p.pid ~tries:200;
  close_in_noerr p.out

type topology = { router : proc; shards : proc list }

let start_topology cli =
  let shard () =
    spawn cli
      [ "serve"; "--port"; "0"; "--jobs"; "1"; "--cache"; string_of_int shard_cache ]
      ~announce:"serving on 127.0.0.1:%d"
  in
  let shards = List.init 2 (fun _ -> shard ()) in
  let port = function { addr = Server.Tcp p; _ } -> string_of_int p | _ -> assert false in
  match
    spawn cli
      ([ "serve-router"; "--port"; "0"; "--cache"; string_of_int router_cache ]
      @ List.concat_map (fun s -> [ "--shard"; port s ]) shards)
      ~announce:"routing on 127.0.0.1:%d"
  with
  | router -> { router; shards }
  | exception e ->
      List.iter shutdown shards;
      raise e

let stop_topology t =
  shutdown t.router;
  List.iter shutdown t.shards

let stats addr =
  let c = Client.connect ~timeout_s:2. addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.request ~timeout_s:5. c Protocol.Stats with
      | Ok (Protocol.Stats_reply rows) -> rows
      | _ -> failwith "stats request failed")

let stat rows k = Option.value ~default:0. (List.assoc_opt k rows)

(* ------------------------------------------------------------------ *)
(* Closed-loop clients                                                 *)
(* ------------------------------------------------------------------ *)

type kind = Hot of int | Never_seen of Scenario.t

type sample = {
  kind : kind;
  lat_s : float;
  disposition : Protocol.cache_disposition option;  (** [None] when it failed *)
  mutable outcome : Measure.outcome;
}

let outcome_of_reply expected = function
  | Ok (Protocol.Result { cache; result; _ }) ->
      ( Some cache,
        match expected with
        | Some want when want <> result -> Measure.Mismatch "hot result differs from Scenario.run_to_string"
        | _ -> Measure.Passed )
  | Ok Protocol.Overloaded -> (None, Measure.Refused)
  | Ok Protocol.Timeout -> (None, Measure.Timed_out)
  | Ok (Protocol.Error_reply e) -> (None, Measure.Errored e)
  | Ok _ -> (None, Measure.Errored "unexpected reply")
  | Error e -> (None, Measure.Errored e)

type window = {
  samples : sample list;
  results : (Scenario.t * string) list;  (** never-seen results kept for checking *)
  wall_s : float;
}

let zipf_cdf =
  let w = Array.init hot (fun i -> 1. /. (float_of_int (i + 1) ** zipf_exponent)) in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. x; !acc) w

let zipf rng =
  let u = Rng.float rng *. zipf_cdf.(hot - 1) in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if zipf_cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (hot - 1)

(* Per-client request counters survive across windows, so never-seen
   scenarios stay never-seen for the whole run. *)
type client_state = { rng : Rng.t; mutable sent : int; mutable misses_sent : int }

let client_states seed =
  Array.init clients (fun c ->
      { rng = Rng.create (Int64.add (Int64.mul seed 7919L) (Int64.of_int c)); sent = 0; misses_sent = 0 })

(* Drive [clients] closed loops for [seconds], extended (up to three
   times as long) until the samples support the named percentiles. *)
let drive ~seed ~addr ~expected ~states ~seconds =
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let t0 = Clock.now_ns () in
  let enough () =
    let s = Clock.elapsed_s t0 in
    s >= 3. *. seconds
    || (s >= seconds && Atomic.get hits >= min_hits && Atomic.get misses >= min_misses)
  in
  let loop c =
    let st = states.(c) in
    let conn = ref (Client.connect ~timeout_s:2. addr) in
    let samples = ref [] and results = ref [] in
    while not (enough ()) do
      let kind =
        if st.sent mod miss_every = miss_every - 1 then begin
          st.misses_sent <- st.misses_sent + 1;
          Never_seen (miss_scenario seed ~client:c st.misses_sent)
        end
        else Hot (zipf st.rng)
      in
      st.sent <- st.sent + 1;
      let scenario, want =
        match kind with
        | Hot i -> (hot_scenario seed i, Some expected.(i))
        | Never_seen s -> (s, None)
      in
      let t = Clock.now_ns () in
      let reply = Client.request ~timeout_s:request_timeout_s !conn (Protocol.Run scenario) in
      let lat_s = Clock.elapsed_s t in
      let disposition, outcome = outcome_of_reply want reply in
      (match (reply, kind, disposition) with
      | Error _, _, _ ->
          Client.close !conn;
          conn := Client.connect ~timeout_s:2. addr
      | Ok (Protocol.Result { result; _ }), Never_seen s, _
        when st.misses_sent mod check_every_miss = 0 ->
          results := (s, result) :: !results
      | _ -> ());
      (match disposition with
      | Some Protocol.Miss -> Atomic.incr misses
      | Some (Protocol.Hit | Protocol.Coalesced) -> Atomic.incr hits
      | None -> ());
      samples := { kind; lat_s; disposition; outcome } :: !samples
    done;
    Client.close !conn;
    (!samples, !results)
  in
  let out = Array.make clients (Ok ([], [])) in
  let threads =
    List.init clients (fun c -> Thread.create (fun () -> out.(c) <- (try Ok (loop c) with e -> Error e)) ())
  in
  List.iter Thread.join threads;
  let out = Array.map (function Ok r -> r | Error e -> raise e) out in
  let wall_s = Clock.elapsed_s t0 in
  {
    samples = List.concat_map fst (Array.to_list out);
    results = List.concat_map snd (Array.to_list out);
    wall_s;
  }

(* Recompute the kept never-seen results in-process; returns the
   compute times. A mismatch marks that request's sample failed. *)
let verify_misses w =
  List.map
    (fun (s, got) ->
      let want, dt = Measure.time (fun () -> Scenario.run_to_string s) in
      if want <> got then
        List.iter
          (fun smp ->
            match smp.kind with
            | Never_seen s' when s' == s -> smp.outcome <- Measure.Mismatch "never-seen result differs"
            | _ -> ())
          w.samples;
      dt)
    w.results

let warm ~tally ~addr ~expected seed =
  let mutex = Mutex.create () in
  let record o = Mutex.protect mutex (fun () -> Measure.record tally o) in
  let loop c =
    match Client.connect ~timeout_s:2. addr with
    | exception e -> record (Measure.Errored ("warm pass: " ^ Printexc.to_string e))
    | conn ->
        for i = 0 to hot - 1 do
          if i mod clients = c then begin
            let reply = Client.request ~timeout_s:request_timeout_s conn (Protocol.Run (hot_scenario seed i)) in
            record (snd (outcome_of_reply (Some expected.(i)) reply))
          end
        done;
        Client.close conn
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create loop c))

(* Topology start plus the warm pass over the hot set, whose replies are
   checked into [tally]. *)
let setup ~tally ~cli ~expected seed =
  let t0 = Clock.now_ns () in
  let topo = start_topology cli in
  match warm ~tally ~addr:topo.router.addr ~expected seed with
  | () -> (topo, Clock.elapsed_s t0)
  | exception e ->
      stop_topology topo;
      raise e

type summary = {
  ok : int;
  hit_lat : float list;
  miss_lat : float list;
  all_lat : float list;
}

let summarize w =
  let ok = List.filter (fun s -> s.outcome = Measure.Passed) w.samples in
  let lat d = List.filter_map (fun s -> if s.disposition = Some d then Some s.lat_s else None) ok in
  {
    ok = List.length ok;
    hit_lat = lat Protocol.Hit @ lat Protocol.Coalesced;
    miss_lat = lat Protocol.Miss;
    all_lat = List.map (fun s -> s.lat_s) ok;
  }

let pct p xs = if xs = [] then 0. else Measure.percentile p xs

let tail_note what scale unit xs =
  match Measure.tail [ 50.; 90.; 99.; 99.9 ] xs with
  | Some t ->
      Printf.sprintf "%s: p50 %.1f %s, highest supported p%g %.1f %s (n = %d)" what
        (scale *. pct 50. xs) unit t.Measure.pct (scale *. t.value) unit t.samples
  | None -> Printf.sprintf "%s: %d samples, too few for any tail" what (List.length xs)

let record_all tally w = List.iter (fun s -> Measure.record tally s.outcome) w.samples

let serve_metrics w s =
  [
    ("serve_rps", float_of_int s.ok /. w.wall_s);
    ("hit_p50_us", 1e6 *. pct 50. s.hit_lat);
    ("hit_p99_us", 1e6 *. pct 99. s.hit_lat);
    ("miss_p50_ms", 1e3 *. pct 50. s.miss_lat);
    ("miss_p90_ms", 1e3 *. pct 90. s.miss_lat);
    ("hit_samples", float_of_int (List.length s.hit_lat));
    ("miss_samples", float_of_int (List.length s.miss_lat));
  ]

let sample_check tally s =
  if List.length s.hit_lat < min_hits || List.length s.miss_lat < min_misses then
    Measure.record tally
      (Measure.Errored
         (Printf.sprintf "too few samples for the named percentiles: %d hits, %d misses"
            (List.length s.hit_lat) (List.length s.miss_lat)))

let hit_ratio before after =
  let d k = stat after k -. stat before k in
  Measure.ratio (d "cache_hits") (d "cache_hits" +. d "cache_misses")

let shards_hit_ratio before after =
  let d k = List.fold_left2 (fun acc b a -> acc +. stat a k -. stat b k) 0. before after in
  Measure.ratio (d "cache_hits") (d "cache_hits" +. d "cache_misses")

let expected_hot seed = Array.init hot (fun i -> Scenario.run_to_string (hot_scenario seed i))

(* Set up [repeats] times, keep the last topology for [f]. *)
let with_setups ~tally ~cli ~expected ~seed ~repeats f =
  let rec go n times =
    let topo, dt = setup ~tally ~cli ~expected seed in
    if n > 1 then begin
      stop_topology topo;
      go (n - 1) (dt :: times)
    end
    else Fun.protect ~finally:(fun () -> stop_topology topo) (fun () -> f topo (dt :: times))
  in
  go repeats []

let run ~cli ~seed ~seconds =
  let expected = expected_hot seed in
  let tally = Measure.tally () in
  with_setups ~tally ~cli ~expected ~seed ~repeats:setup_repeats (fun topo setups ->
      let states = client_states seed in
      let r0 = stats topo.router.addr and s0 = List.map (fun s -> stats s.addr) topo.shards in
      let w = drive ~seed ~addr:topo.router.addr ~expected ~states ~seconds in
      let r1 = stats topo.router.addr and s1 = List.map (fun s -> stats s.addr) topo.shards in
      let rss =
        List.fold_left (fun acc p -> acc +. Measure.peak_rss_mb p.pid) 0. (topo.router :: topo.shards)
      in
      ignore (verify_misses w);
      record_all tally w;
      let s = summarize w in
      sample_check tally s;
      {
        Measure.tally;
        metrics =
          [
            ("setup_s", Measure.median setups);
            ("work_per_s", float_of_int s.ok /. w.wall_s);
            ("request_p50_ms", 1e3 *. pct 50. s.all_lat);
            ("peak_rss_mb", rss);
          ];
        notes =
          [
            Printf.sprintf
              "serve-mix: %d clients, closed loop, %.1f s; %d ok of %d (serve_rps %.1f, failed_frac %g)"
              clients w.wall_s s.ok (List.length w.samples) (float_of_int s.ok /. w.wall_s)
              (Measure.failed_frac tally);
            tail_note "hits (router or shard)" 1e6 "us" s.hit_lat;
            tail_note "misses (never-seen, computed)" 1e3 "ms" s.miss_lat;
            Printf.sprintf "router cache hit ratio %.3f, shard cache hit ratio %.3f"
              (hit_ratio r0 r1) (shards_hit_ratio s0 s1);
          ];
      })

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Mean seconds per call of [f] over [xs], repeated until at least
   [min_calls] calls. *)
let per_call ?(min_calls = 20_000) f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let reps = max 1 ((min_calls + n - 1) / n) in
  let (), dt =
    Measure.time (fun () ->
        for _ = 1 to reps do
          Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
        done)
  in
  dt /. float_of_int (reps * n)

let timed_requests conn scenarios =
  List.map
    (fun sc ->
      let t = Clock.now_ns () in
      match Client.request ~timeout_s:request_timeout_s conn (Protocol.Run sc) with
      | Ok (Protocol.Result _) -> Clock.elapsed_s t
      | _ -> failwith "probe request failed")
    scenarios

let traced ~cli ~seed ~seconds =
  let expected = expected_hot seed in
  let tally = Measure.tally () in
  with_setups ~tally ~cli ~expected ~seed ~repeats:1 (fun topo _ ->
      let addr = topo.router.addr in
      let states = client_states seed in
      (* An unmeasured window first, so both measured windows start with
         the caches and the generator's heap in their steady state. *)
      record_all tally (drive ~seed ~addr ~expected ~states ~seconds:(seconds /. 4.));
      let plain = drive ~seed ~addr ~expected ~states ~seconds in
      (* The traced window also snapshots router and shard counters
         around itself. *)
      let r0 = stats addr and s0 = List.map (fun s -> stats s.addr) topo.shards in
      let w = drive ~seed ~addr ~expected ~states ~seconds in
      let r1 = stats addr and s1 = List.map (fun s -> stats s.addr) topo.shards in
      ignore (verify_misses plain);
      let compute = verify_misses w in
      record_all tally plain;
      record_all tally w;
      let s = summarize w and sp = summarize plain in
      sample_check tally s;
      (* Probes, one connection at a time. *)
      let hot_list = List.init hot (hot_scenario seed) in
      let conn = Client.connect ~timeout_s:2. addr in
      let shard_hop =
        Fun.protect ~finally:(fun () -> Client.close conn) (fun () ->
            (* Cycling in order through more scenarios than the router
               LRU holds misses it every time: each is a shard hit. *)
            ignore (timed_requests conn hot_list);
            let before = stats addr in
            let forwarded = List.concat (List.init 2 (fun _ -> timed_requests conn hot_list)) in
            let after = stats addr in
            if stat after "cache_hits" <> stat before "cache_hits" then
              Measure.record tally (Measure.Errored "hop probe: cycling pass hit the router cache");
            let few = List.filteri (fun i _ -> i < 32) hot_list in
            ignore (timed_requests conn few);
            let local = List.concat (List.init 5 (fun _ -> timed_requests conn few)) in
            (Measure.median forwarded, Measure.median local))
      in
      let ping_rtt =
        Measure.median
          (List.concat_map
             (fun sh ->
               let c = Client.connect ~timeout_s:2. sh.addr in
               Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                   List.init 200 (fun _ ->
                       let t = Clock.now_ns () in
                       match Client.request ~timeout_s:5. c Protocol.Ping with
                       | Ok Protocol.Pong -> Clock.elapsed_s t
                       | _ -> failwith "ping failed")))
             topo.shards)
      in
      (* In-process costs of the hit path, on the run's own frames. *)
      let frames = List.map (fun sc -> Protocol.encode_request ~id:"r" (Protocol.Run sc)) hot_list in
      let replies =
        List.mapi
          (fun i sc ->
            Protocol.Result { cache = Protocol.Hit; hash = Scenario.hash sc; result = expected.(i) })
          hot_list
      in
      let reply_frames = List.map (Protocol.encode_response ~id:"r") replies in
      let decode_s = per_call Protocol.decode_request frames in
      let encode_s = per_call (Protocol.encode_response ~id:"r") replies in
      let client_s =
        per_call (Protocol.encode_request ~id:"r") (List.map (fun sc -> Protocol.Run sc) hot_list)
        +. per_call Protocol.decode_response reply_frames
      in
      let hash_s = per_call Scenario.hash hot_list in
      let lru = Ptg_server.Lru.create ~capacity:router_cache () in
      List.iteri (fun i sc -> if i < router_cache then Ptg_server.Lru.put lru (Scenario.hash sc) expected.(i)) hot_list;
      let hashes = Array.of_list (List.map Scenario.hash hot_list) in
      let keys = List.filter_map (fun smp -> match smp.kind with Hot i -> Some hashes.(i) | _ -> None) w.samples in
      let find_s = per_call (Ptg_server.Lru.find lru) keys in
      (* The median compares with miss_p50_ms; the mean, times the
         count, is the compute time itself (the cost is heavy-tailed). *)
      let miss_compute = if compute = [] then 0. else Measure.median compute in
      let miss_compute_mean = if compute = [] then 0. else Measure.mean compute in
      let requests = float_of_int (List.length w.samples) in
      let forwarded = stat r1 "cache_misses" -. stat r0 "cache_misses" in
      let shard_misses =
        List.fold_left2 (fun acc b a -> acc +. stat a "cache_misses" -. stat b "cache_misses") 0. s0 s1
      in
      let hops = requests +. forwarded in
      let layer name calls cost_s = { Measure.name; calls; cost_s } in
      let layers =
        [
          layer "net" hops ping_rtt;
          layer "protocol" hops (decode_s +. encode_s +. client_s);
          layer "scenario-hash" hops hash_s;
          layer "lru" hops find_s;
          layer "compute" shard_misses miss_compute_mean;
        ]
      in
      let busy = List.fold_left ( +. ) 0. s.all_lat in
      let mean xs = Measure.mean (if xs = [] then [ 0. ] else xs) in
      let forwarded_s, local_s = shard_hop in
      {
        Measure.tally;
        metrics =
          serve_metrics w s
          @ [
              ("protocol.decode_us", 1e6 *. decode_s);
              ("protocol.encode_us", 1e6 *. encode_s);
              ("protocol.client_us", 1e6 *. client_s);
              ("scenario.hash_us", 1e6 *. hash_s);
              ("lru.find_ns", 1e9 *. find_s);
              ("router.hop_us", 1e6 *. (forwarded_s -. local_s));
              ("router.cache_hit_ratio", hit_ratio r0 r1);
              ("server.cache_hit_ratio", shards_hit_ratio s0 s1);
              ("net.ping_rtt_us", 1e6 *. ping_rtt);
              ("sim.miss_compute_ms", 1e3 *. miss_compute);
              ("server.miss_overhead_ms", 1e3 *. (pct 50. s.miss_lat -. miss_compute));
              ("layers.unattributed_share", Measure.unattributed_share ~wall:busy layers);
              ("trace.overhead_pct", 100. *. ((mean s.all_lat /. mean sp.all_lat) -. 1.));
            ];
        notes =
          [
            Printf.sprintf "serve-mix traced: %d requests untraced, %d traced; %.0f forwarded to shards, %.0f computed"
              (List.length plain.samples) (List.length w.samples) forwarded shard_misses;
            tail_note "hits (router or shard)" 1e6 "us" s.hit_lat;
            tail_note "misses (never-seen, computed)" 1e3 "ms" s.miss_lat;
            Printf.sprintf "layer shares of client-side busy time: %s"
              (String.concat ", "
                 (List.map (fun (l : Measure.layer) -> Printf.sprintf "%s %.3f" l.name (Measure.share ~wall:busy l)) layers));
          ];
      })
