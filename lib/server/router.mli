(** Sharding front tier for the scenario service.

    Speaks the same protocol as {!Server} on its listen address and
    forwards each [run] frame to the backend shard that owns the
    scenario's canonical hash on a consistent-hash ring ({!Ring}),
    using {!Client} retrying sessions as the inter-tier transport. A
    router-local LRU over the hot set answers repeat requests without a
    network hop.

    Failure handling follows the client's fault taxonomy: transport
    failures exhaust the inter-tier session's retries, then eject the
    shard and re-route the request to the ring successor (a non-shed
    request is never lost to a shard crash); server-decided [Timeout] /
    [Overloaded] replies pass through to the caller but count as health
    strikes. A health thread pings every shard each interval — failures
    accumulate strikes until ejection, and a successful ping re-admits
    the shard with its original keyspace.

    The router is checkpoint-aware by construction: requests route by
    the scenario's canonical hash, so each shard owns the warm-start
    store keys of exactly the scenarios it serves, and when the shards
    share one snapshot directory (the [serve-router] spawner's default)
    an ejection re-route lands the request on a successor that resumes
    from the victim's deepest persisted checkpoint rather than
    recomputing from scratch. A [Result] obtained after ≥1 re-route is
    counted as an {e adoption} ([adoptions] /
    [router_adoptions_total]).

    Every event the router counts is counted once, in a
    [router_*_total] registry counter: the [obs] sink's registry when
    there is one, a private registry otherwise; {!stats} reads those
    counters. Only with a sink does the router also keep ring-share,
    live-shard and hit-ratio gauges and a [router_request] trace event
    per request. Counters are get-or-create by name, so two routers
    given the same sink share their counts, and
    {!Ptg_obs.Sink.reset} zeroes those [stats] rows too.

    Protocol v2: responses mirror the request's version. [hello]
    negotiates normally. Every forward travels as a v2 stream
    ({!Client.session_run_stream}) so a shard slicing a long run past
    its deadline keeps the inter-tier hop alive with [progress] frames;
    when the edge itself sent [stream:true] those frames are re-emitted
    to it (duplicates possible across inter-tier retries, gaps never),
    otherwise they are consumed at the router and only the terminal
    frame goes back, at the edge's version. [cancel] is always an
    error, since forwarded runs block their connection thread and the
    router tracks no in-flight ids. *)

type config = {
  addr : Server.addr;          (** where the router listens *)
  shards : Server.addr list;   (** backend shard addresses; index = shard id *)
  cache_capacity : int;        (** router hot-set LRU entries *)
  cache_bytes : int option;    (** optional hot-set LRU byte budget *)
  vnodes : int;                (** ring points per shard *)
  retry : Client.retry_policy; (** inter-tier transport retries *)
  connect_timeout_s : float;
  request_timeout_s : float;   (** per-forward deadline at the socket *)
  health_interval_s : float;   (** delay between ping sweeps *)
  strike_limit : int;          (** consecutive failures before ejection *)
  idle_timeout_s : float;
  max_conns : int;
  drain_deadline_s : float;
  obs : Ptg_obs.Sink.t option;
}

val default_config : Server.addr -> shards:Server.addr list -> config
(** 64-entry cache, 64 vnodes, {!Client.default_retry}, 1 s connects,
    30 s forwards, 0.5 s health sweeps, 3 strikes, and {!Server}-like
    connection limits. *)

type t

val start : config -> t
(** Binds, then serves on background threads until {!stop} (or a
    [shutdown] frame). Raises [Invalid_argument] on an empty shard list
    or nonsensical tuning values, {!Listener.Bind_error} when binding
    fails.
    All shards start live; the first health sweep corrects that within
    [health_interval_s]. *)

val listen_addr : t -> Server.addr
(** Actual bound address ([Tcp 0] resolves to the kernel-chosen port). *)

val stats : t -> (string * float) list
(** Keys sorted; also the [stats] op payload. Each event count is its
    registry counter read under a short name: adoptions, errors,
    forwarded, overloaded, reroutes, served and timeouts are
    [router_<name>_total], no_live is [router_no_live_shard_total],
    cache_hits/misses/evictions are [router_cache_hits_total] /
    [router_cache_misses_total] / [router_cache_evictions_total],
    [shardN_requests] / [shardN_ejections]
    are [router_shard_requests_total{shard="N"}] /
    [router_shard_ejections_total{shard="N"}], and [ejections] /
    [readmissions] sum [router_shard_ejections_total] /
    [router_shard_readmissions_total] over the shards; accept_errors,
    conn_shed and idle_closed are {!Listener}'s. The rest are current
    state: cache bytes/entries, conns, shards, shards_live and
    [shardN_live]. *)

val live_shards : t -> bool array
(** Current ejection state, indexed by shard id. *)

val stop : t -> unit
(** Stop accepting, drain connections (bounded by [drain_deadline_s]),
    join every background thread. Idempotent. *)

val wait : t -> unit
(** Block until a [shutdown] frame arrives, then finalize as {!stop}. *)
