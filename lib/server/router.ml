(* Sharding front tier for the scenario service.

   The router accepts the same line-JSON protocol the shards speak and
   forwards each [run] to the backend shard owning the scenario's
   canonical hash on a consistent-hash ring ([Ring]). In front of the
   shards it keeps its own hot-set LRU over the union of the per-shard
   caches, so repeat requests for the hottest scenarios are answered
   without a network hop at all.

   Failure handling follows the client's fault taxonomy:

   - transport failures (connect refused, torn/closed connection,
     request timeout at the socket) are first retried by the inter-tier
     [Client.session]; when its retries are exhausted the shard is
     ejected and the request re-routed to the next live shard on the
     ring — a non-shed request is never lost to a shard crash;
   - server-decided [Timeout] and [Overloaded] replies pass through to
     the caller (that policy belongs to the edge client) but count as
     health strikes against the shard;
   - a health thread pings every shard each interval: failures add
     strikes until the shard is ejected, a successful ping resets the
     strikes and re-admits an ejected shard, restoring its original
     keyspace.

   Connections are [Listener]'s, as for [Server]; the router supplies
   only the forwarding session and its [cancel] error. Forwarding is
   I/O-bound, so requests run inline on the connection thread — no
   worker pool. *)

module Scenario = Ptg_sim.Scenario
module Registry = Ptg_obs.Registry
module Trace = Ptg_obs.Trace
module Clock = Ptg_util.Clock

type config = {
  addr : Server.addr;
  shards : Server.addr list;
  cache_capacity : int;
  cache_bytes : int option;
  vnodes : int;
  retry : Client.retry_policy;
  connect_timeout_s : float;
  request_timeout_s : float;
  health_interval_s : float;
  strike_limit : int;
  idle_timeout_s : float;
  max_conns : int;
  drain_deadline_s : float;
  obs : Ptg_obs.Sink.t option;
}

let default_config addr ~shards =
  {
    addr;
    shards;
    cache_capacity = 64;
    cache_bytes = None;
    vnodes = 64;
    retry = Client.default_retry;
    connect_timeout_s = 1.0;
    request_timeout_s = 30.;
    health_interval_s = 0.5;
    strike_limit = 3;
    idle_timeout_s = 60.;
    max_conns = 256;
    drain_deadline_s = 5.;
    obs = None;
  }

(* One registry counter per event, in the sink's registry when there is
   one and in a private registry otherwise; the [stats] payload reads the
   same counters. Handles are resolved once at startup and updated under
   the router mutex. *)
type counters = {
  served : Registry.counter;
  forwarded : Registry.counter;
  reroutes : Registry.counter;
  adoptions : Registry.counter;
  no_live : Registry.counter;
  errors : Registry.counter;
  timeouts : Registry.counter;
  overloaded : Registry.counter;
}

let make_counters reg =
  let c name = Registry.counter reg ("router_" ^ name ^ "_total") in
  {
    served = c "served";
    forwarded = c "forwarded";
    reroutes = c "reroutes";
    adoptions = c "adoptions";
    no_live = c "no_live_shard";
    errors = c "errors";
    timeouts = c "timeouts";
    overloaded = c "overloaded";
  }

(* Gauges and trace events exist only with a sink; per-shard series are
   labelled with the shard index so one registry serves any topology. *)
type obs_metrics = {
  g_ring : Registry.gauge array;
  g_hit_ratio : Registry.gauge;
  g_live : Registry.gauge;
  trace : Trace.t;
}

let make_obs sink ~shards =
  let reg = Ptg_obs.Sink.registry sink in
  {
    g_ring =
      Array.init shards (fun i ->
          Registry.gauge reg
            ~labels:[ ("shard", string_of_int i) ]
            "router_ring_share");
    g_hit_ratio = Registry.gauge reg "router_cache_hit_ratio";
    g_live = Registry.gauge reg "router_live_shards";
    trace = Ptg_obs.Sink.trace sink;
  }

type shard_state = {
  s_addr : Server.addr;
  mutable live : bool;
  mutable strikes : int;
  requests : Registry.counter;
  ejections : Registry.counter;
  readmissions : Registry.counter;
}

type t = {
  config : config;
  ring : Ring.t;
  states : shard_state array;
  listener : Listener.t;
  mutex : Mutex.t;
  cache : Lru.t;
  mutable conn_seq : int;
  mutable health_stop : bool;
  mutable health_thread : Thread.t option;
  counts : counters;
  obs_m : obs_metrics option;
}

let listen_addr t = Listener.bound t.listener

(* ------------------------------------------------------------------ *)
(* Shard health (all _locked helpers require the router mutex)         *)
(* ------------------------------------------------------------------ *)

let live_mask_locked t = Array.map (fun s -> s.live) t.states

let live_count_locked t =
  Array.fold_left (fun a s -> if s.live then a + 1 else a) 0 t.states

let sync_topology_gauges_locked t =
  match t.obs_m with
  | None -> ()
  | Some m ->
      let shares = Ring.ownership t.ring ~live:(live_mask_locked t) in
      Array.iteri (fun i g -> Registry.set_gauge g shares.(i)) m.g_ring;
      Registry.set_gauge m.g_live (float_of_int (live_count_locked t))

let eject_locked t i =
  let st = t.states.(i) in
  if st.live then begin
    st.live <- false;
    Registry.incr st.ejections;
    sync_topology_gauges_locked t
  end

let strike_locked t i =
  let st = t.states.(i) in
  st.strikes <- st.strikes + 1;
  if st.strikes >= t.config.strike_limit then eject_locked t i

let mark_healthy_locked t i =
  let st = t.states.(i) in
  st.strikes <- 0;
  if not st.live then begin
    st.live <- true;
    Registry.incr st.readmissions;
    sync_topology_gauges_locked t
  end

let sync_hit_ratio_locked t =
  match t.obs_m with
  | None -> ()
  | Some m ->
      let lookups = Lru.hits t.cache + Lru.misses t.cache in
      if lookups > 0 then
        Registry.set_gauge m.g_hit_ratio
          (float_of_int (Lru.hits t.cache) /. float_of_int lookups)

(* ------------------------------------------------------------------ *)
(* Stats (also the [stats] op payload), merged and sorted by Listener  *)
(* ------------------------------------------------------------------ *)

let stats_locked t =
  let n = float_of_int and c r = float_of_int (Registry.counter_value r) in
  let k = t.counts in
  let total f = Array.fold_left (fun a s -> a +. c (f s)) 0. t.states in
  let base =
    [
      ("adoptions", c k.adoptions);
      ("cache_bytes", n (Lru.bytes t.cache));
      ("cache_entries", n (Lru.length t.cache));
      ("cache_evictions", n (Lru.evictions t.cache));
      ("cache_hits", n (Lru.hits t.cache));
      ("cache_misses", n (Lru.misses t.cache));
      ("ejections", total (fun s -> s.ejections));
      ("errors", c k.errors);
      ("forwarded", c k.forwarded);
      ("no_live", c k.no_live);
      ("overloaded", c k.overloaded);
      ("readmissions", total (fun s -> s.readmissions));
      ("reroutes", c k.reroutes);
      ("served", c k.served);
      ("shards", n (Array.length t.states));
      ("shards_live", n (live_count_locked t));
      ("timeouts", c k.timeouts);
    ]
  in
  let per_shard =
    List.concat
      (List.init (Array.length t.states) (fun i ->
           let st = t.states.(i) in
           [
             (Printf.sprintf "shard%d_ejections" i, c st.ejections);
             (Printf.sprintf "shard%d_live" i, if st.live then 1. else 0.);
             (Printf.sprintf "shard%d_requests" i, c st.requests);
           ]))
  in
  base @ per_shard

let stats t = Listener.stats t.listener

let live_shards t =
  Mutex.lock t.mutex;
  let mask = live_mask_locked t in
  Mutex.unlock t.mutex;
  mask

(* ------------------------------------------------------------------ *)
(* Request routing                                                     *)
(* ------------------------------------------------------------------ *)

let record_trace_locked t ~hash64 ~status ~shard =
  match t.obs_m with
  | Some m ->
      Trace.record m.trace (Trace.Router_request { hash = hash64; status; shard })
  | None -> ()

(* The response for one [run] frame. [get_session] hands out this
   connection's lazily-built session for a shard index; the blocking
   forward happens outside the mutex. Forwards always travel as a v2
   stream so a shard slicing a long run keeps the inter-tier hop alive
   with progress frames; [on_progress] (the edge re-emission hook) runs
   on this thread, between frame reads. *)
let handle_run ?on_progress t get_session scenario =
  let hash64 = Scenario.hash64 scenario in
  let hash = Ptg_util.Bits.to_hex hash64 in
  Mutex.lock t.mutex;
  let cached = Lru.find t.cache hash in
  sync_hit_ratio_locked t;
  match cached with
  | Some result ->
      Registry.incr t.counts.served;
      record_trace_locked t ~hash64 ~status:"hit" ~shard:"";
      Mutex.unlock t.mutex;
      Protocol.Result { cache = Protocol.Hit; hash; result }
  | None ->
      Mutex.unlock t.mutex;
      let n = Array.length t.states in
      let no_live_reply () =
        Mutex.lock t.mutex;
        Registry.incr t.counts.no_live;
        record_trace_locked t ~hash64 ~status:"overloaded" ~shard:"";
        Mutex.unlock t.mutex;
        Protocol.Overloaded
      in
      (* Each transport failure ejects its shard, so successive attempts
         see a strictly smaller live set; [n + 1] tries bounds the walk
         even if health pings re-admit a flapping shard mid-request. *)
      let rec attempt tried =
        if tried > n then no_live_reply ()
        else begin
          Mutex.lock t.mutex;
          let target = Ring.route t.ring ~live:(live_mask_locked t) hash64 in
          Option.iter (fun i -> Registry.incr t.states.(i).requests) target;
          Mutex.unlock t.mutex;
          match target with
          | None -> no_live_reply ()
          | Some i -> (
              let shard = string_of_int i in
              let finish ?(strike = false) ?(adopted = false) ~status
                  response =
                Mutex.lock t.mutex;
                if strike then strike_locked t i
                else t.states.(i).strikes <- 0;
                (match response with
                | Protocol.Result { hash = h; result; _ } ->
                    Lru.put t.cache h result;
                    Registry.incr t.counts.served;
                    Registry.incr t.counts.forwarded;
                    if adopted then Registry.incr t.counts.adoptions
                | Protocol.Overloaded -> Registry.incr t.counts.overloaded
                | Protocol.Timeout -> Registry.incr t.counts.timeouts
                | _ -> Registry.incr t.counts.errors);
                record_trace_locked t ~hash64 ~status ~shard;
                Mutex.unlock t.mutex;
                response
              in
              match
                Client.session_run_stream ?on_progress (get_session i)
                  scenario
              with
              | Ok (Protocol.Result _ as r) ->
                  (* A result reached after ≥1 re-route means the ring
                     successor adopted the victim's request — and, when
                     the shards share a warm-start store, its deepest
                     checkpoint. *)
                  finish ~adopted:(tried > 1) ~status:"ok" r
              | Ok Protocol.Overloaded ->
                  (* Server-decided: pass through (re-routing would
                     defeat the keyspace partition) but strike — a shard
                     shedding load is part of the health signal. *)
                  finish ~strike:true ~status:"overloaded" Protocol.Overloaded
              | Ok Protocol.Timeout ->
                  finish ~strike:true ~status:"timeout" Protocol.Timeout
              | Ok (Protocol.Error_reply _ as r) -> finish ~status:"error" r
              | Ok
                  ( Protocol.Pong | Protocol.Stats_reply _ | Protocol.Cancelled
                  | Protocol.Progress _ | Protocol.Hello_reply _ ) ->
                  finish ~status:"error"
                    (Protocol.Error_reply "unexpected response from shard")
              | Error _ ->
                  (* Transport crash after the session's own retries:
                     eject and re-route — the request is not lost. *)
                  Mutex.lock t.mutex;
                  eject_locked t i;
                  Registry.incr t.counts.reroutes;
                  Mutex.unlock t.mutex;
                  attempt (tried + 1))
        end
      in
      attempt 1

(* ------------------------------------------------------------------ *)
(* The front end the listener drives                                   *)
(* ------------------------------------------------------------------ *)

let record_error_locked t = Registry.incr t.counts.errors

(* One forwarding session per connection, holding one shard session per
   shard, built on first use: shard sessions are single-threaded, and
   per-connection ownership keeps the inter-tier connection count
   proportional to the edge's. *)
let open_session t conn =
  Mutex.lock t.mutex;
  let conn_id = t.conn_seq in
  t.conn_seq <- conn_id + 1;
  Mutex.unlock t.mutex;
  let n = Array.length t.states in
  let sessions = Array.make n None in
  let get_session i =
    match sessions.(i) with
    | Some s -> s
    | None ->
        let s =
          Client.session ~policy:t.config.retry
            ~connect_timeout_s:t.config.connect_timeout_s
            ~request_timeout_s:t.config.request_timeout_s
            ~seed:(Int64.of_int (0x5eed + (conn_id * n) + i))
            t.states.(i).s_addr
        in
        sessions.(i) <- Some s;
        s
  in
  let reply ?id ~v response = Listener.send conn (Protocol.encode_response ?id ~v response) in
  let dispatch { Protocol.id; v } = function
    | Listener.Cancel target ->
        (* The router holds no in-flight registry of its own — forwarded
           runs block their connection thread — so a cancel can never
           name anything it could stop. *)
        Mutex.lock t.mutex;
        record_error_locked t;
        Mutex.unlock t.mutex;
        reply ?id ~v
          (Protocol.Error_reply
             (Printf.sprintf "cancel: no in-flight request with id \"%s\"" target));
        true
    | Listener.Run { scenario; stream } ->
        (* Forwarded as a v2 stream regardless: shard progress frames
           keep the inter-tier hop alive through sliced runs. For a plain
           run they are consumed here and only the terminal frame goes
           back, at the edge's version. A [stream] run (which only
           decodes at v2) gets them re-emitted, duplicate-tolerant (an
           inter-tier retry may replay pairs), matching what Server
           itself sends on a re-coalesced waiter. *)
        let on_progress ~done_count ~total =
          reply ?id ~v (Protocol.Progress { done_count; total })
        in
        let on_progress = if stream then Some on_progress else None in
        reply ?id ~v (handle_run ?on_progress t get_session scenario);
        true
  in
  {
    Listener.dispatch;
    close = (fun () -> Array.iter (Option.iter Client.session_close) sessions);
  }

(* ------------------------------------------------------------------ *)
(* Health checks                                                       *)
(* ------------------------------------------------------------------ *)

let check_shard t i =
  let ok =
    match Client.connect ~timeout_s:t.config.connect_timeout_s t.states.(i).s_addr with
    | exception _ -> false
    | c ->
        let r = Client.request ~timeout_s:t.config.request_timeout_s c Protocol.Ping in
        Client.close c;
        (match r with Ok Protocol.Pong -> true | _ -> false)
  in
  Mutex.lock t.mutex;
  if ok then mark_healthy_locked t i else strike_locked t i;
  Mutex.unlock t.mutex

(* Sleeps in small slices so shutdown is never blocked behind a full
   health interval. *)
let health_loop t =
  let stopping () =
    Mutex.lock t.mutex;
    let s = t.health_stop in
    Mutex.unlock t.mutex;
    s
  in
  let rec sleep remaining =
    if (not (stopping ())) && remaining > 0. then begin
      let slice = Float.min 0.05 remaining in
      Thread.delay slice;
      sleep (remaining -. slice)
    end
  in
  let rec loop () =
    if not (stopping ()) then begin
      sleep t.config.health_interval_s;
      if not (stopping ()) then begin
        Array.iteri (fun i _ -> if not (stopping ()) then check_shard t i) t.states;
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start config =
  let check ok field = if not ok then invalid_arg ("Router.start: " ^ field) in
  check (config.shards <> []) "shards";
  check (config.cache_capacity >= 1) "cache_capacity";
  check (Option.fold ~none:true ~some:(fun b -> b >= 1) config.cache_bytes) "cache_bytes";
  check (config.vnodes >= 1) "vnodes";
  check (config.connect_timeout_s > 0.) "connect_timeout_s";
  check (config.request_timeout_s > 0.) "request_timeout_s";
  check (config.health_interval_s > 0.) "health_interval_s";
  check (config.strike_limit >= 1) "strike_limit";
  let mutex = Mutex.create () in
  let registry =
    match config.obs with Some sink -> Ptg_obs.Sink.registry sink | None -> Registry.create ()
  in
  let listener =
    Listener.create ~name:"router" ~mutex ~registry
      {
        Listener.addr = config.addr;
        idle_timeout_s = config.idle_timeout_s;
        max_conns = config.max_conns;
        drain_deadline_s = config.drain_deadline_s;
      }
  in
  let shards = Array.of_list config.shards in
  let t =
    {
      config;
      ring = Ring.create ~vnodes:config.vnodes (Array.length shards);
      states =
        Array.mapi
          (fun i a ->
            let c name =
              Registry.counter registry ~labels:[ ("shard", string_of_int i) ]
                ("router_shard_" ^ name ^ "_total")
            in
            {
              s_addr = a;
              live = true;
              strikes = 0;
              requests = c "requests";
              ejections = c "ejections";
              readmissions = c "readmissions";
            })
          shards;
      listener;
      mutex;
      cache =
        Lru.counted
          {
            Lru.hits = Registry.counter registry "router_cache_hits_total";
            misses = Registry.counter registry "router_cache_misses_total";
            evictions = Registry.counter registry "router_cache_evictions_total";
          }
          ?max_bytes:config.cache_bytes ~capacity:config.cache_capacity ();
      conn_seq = 0;
      health_stop = false;
      health_thread = None;
      counts = make_counters registry;
      obs_m =
        Option.map (fun s -> make_obs s ~shards:(Array.length shards)) config.obs;
    }
  in
  Mutex.lock t.mutex;
  sync_topology_gauges_locked t;
  Mutex.unlock t.mutex;
  t.health_thread <- Some (Thread.create health_loop t);
  Listener.serve listener
    {
      Listener.admit = (fun () -> true);
      open_session = open_session t;
      stats_locked = (fun () -> stats_locked t);
      on_error_locked = (fun () -> record_error_locked t);
      on_tick_locked = ignore;
      on_force_locked = ignore;
      on_drained =
        (fun ~drain_us:_ ->
          Mutex.lock t.mutex;
          t.health_stop <- true;
          let health = t.health_thread in
          t.health_thread <- None;
          Mutex.unlock t.mutex;
          Option.iter Thread.join health);
    };
  t

let stop t = Listener.stop t.listener
let wait t = Listener.wait t.listener
