(** The scenario-serving subsystem: a long-lived socket server that
    executes {!Ptg_sim.Scenario} requests on a persistent
    {!Ptg_util.Pool.Service} domain pool, fronted by an LRU result cache
    and an admission gate.

    Request lifecycle (one mutex guards cache + scheduler state):

    - canonicalize + hash the scenario ({!Ptg_sim.Scenario.hash});
    - cache hit → respond immediately ([cache:"hit"]);
    - an identical request already in flight → attach to it and wait
      ([cache:"coalesced"]) — K duplicate concurrent requests run the
      experiment exactly once;
    - otherwise, if in-flight computations have reached the configured
      high-water mark → immediate [overloaded] response (load shedding,
      never unbounded queueing);
    - otherwise submit the computation and wait ([cache:"miss"]).

    Because every scenario is deterministic given its canonical form, a
    cache hit is byte-identical to a re-run — caching is lossless.

    Fault tolerance: a waiter whose computation has not finished within
    [deadline_s] gets a [timeout] frame instead of blocking forever, and
    its pending entry is unhooked so identical retries recompute rather
    than coalesce onto the straggler (whose in-flight slot stays charged
    until its worker actually finishes — a wedged worker still counts
    against [high_water]). With [slices > 0], a sliceable scenario
    ({!Ptg_sim.Checkpoint.sliceable}) whose deadline runs out is {e not}
    timed out: the worker persists its deepest checkpoint and yields,
    the scheduler requeues the remainder (up to [slices] times per
    request), and the waiter — kept alive by streamed [progress] frames
    on v2 — receives the final slice's result, byte-identical to an
    uninterrupted run. Connections are {!Listener}'s, shared with
    {!Router}: idle timeouts ([idle_timeout_s]), the accept-time
    connection cap ([max_conns]), the frame limit, and the shutdown
    drain ([drain_deadline_s]). {!Faults} can inject each failure for
    chaos tests.

    Protocol v2 ({!Protocol}): responses mirror the request's version,
    so v1 clients interoperate unchanged. v2 adds [hello] version
    negotiation, streamed [progress] frames for [stream:true] runs
    (emitted from the waiting connection's own thread as the
    computation reports chunk progress), and [cancel] — the cancelled
    waiter gets a terminal [cancelled] frame, and once an in-flight
    computation has no interested waiters left it stops at its next
    checkpoint boundary instead of running to completion. With
    [snapshot_dir] set, computations checkpoint periodically and
    identical re-requests warm-start from the deepest stored prefix —
    which also makes a forced drain lossless: interrupted runs resume
    where they stopped after a restart over the same store.

    The compute pool is [workers] domains. With an [obs] sink the server
    reports per-request latency histograms, queue-depth and
    drain-duration gauges, served/shed/coalesced/error/timeout,
    connection-shed/idle-closed/accept-error, fault-injection and
    pool-dropped-exception counters, cache hit/miss/eviction counters,
    and a [server_request] trace event per request. *)

type addr = Listener.addr =
  | Unix_socket of string
  | Tcp of int  (** 127.0.0.1; port 0 binds an ephemeral port *)

type config = {
  addr : addr;
  workers : int;         (** compute pool size *)
  high_water : int;      (** max in-flight computations before shedding *)
  cache_capacity : int;  (** LRU entries *)
  cache_bytes : int option;
      (** optional LRU byte budget over encoded entry sizes (see
          {!Lru.weight}); [None] bounds by entry count alone *)
  deadline_s : float;
      (** per-request compute budget: a waiter past it gets
          [Protocol.Timeout] (must be [> 0]; expiry is noticed within
          ~50 ms of the deadline) *)
  slices : int;
      (** max deadline-slice requeues per request ([0] disables): each
          expiry of [deadline_s] on a sliceable scenario checkpoints,
          requeues the remainder and grants one more window instead of
          timing out *)
  idle_timeout_s : float;
      (** socket read/write timeout per connection; [0.] disables *)
  max_conns : int;       (** concurrent connections before accept-time shed *)
  drain_deadline_s : float;
      (** shutdown drain budget before stragglers are force-closed;
          [0.] force-closes immediately *)
  snapshot_dir : string option;
      (** warm-start snapshot store for the default handler: scenario
          computations checkpoint their position here and resume from
          the deepest stored prefix of an identical later request (see
          {!Ptg_sim.Checkpoint.run_scenario}) *)
  snapshot_every : int option;
      (** checkpoint cadence (scenario units) for [snapshot_dir];
          [None] checkpoints at completion or on a stop only *)
  obs : Ptg_obs.Sink.t option;
  handler :
    (progress:(done_count:int -> total:int -> unit) ->
    should_stop:(unit -> bool) ->
    Ptg_sim.Scenario.t ->
    Ptg_sim.Checkpoint.served)
    option;
      (** compute override for tests: receives the progress callback
          that feeds streamed [progress] frames and the [should_stop]
          poll that turns true once every waiter has cancelled or
          expired (or the server is aborting). Returning
          [{text = None; _}] means the computation stopped early —
          nothing is cached and no error is counted. Default:
          {!Ptg_sim.Checkpoint.run_scenario} over [snapshot_dir]. The
          scenario's [jobs] arrives clamped to
          {!Ptg_util.Pool.default_jobs}. *)
  faults : Faults.t;     (** chaos injection slot; unarmed by default *)
}

val default_config : addr -> config
(** workers {!Ptg_util.Pool.default_jobs}, high-water [2 * workers]
    (min 4), 64 cache entries (no byte budget), 30 s deadline, no
    slicing, 60 s idle timeout, 256 connections, 5 s drain deadline,
    no snapshot store, no obs, default handler, unarmed faults. *)

type t

val start : config -> t
(** Bind, listen and begin accepting. Raises [Invalid_argument] on a
    non-positive worker/high-water/cache size and {!Listener.Bind_error}
    when binding fails (a socket path may only name a stale socket). *)

val listen_addr : t -> addr
(** The bound address — for [Tcp 0], the actual ephemeral port. *)

val stats : t -> (string * float) list
(** Scheduler/cache/failure counters, sorted by key: accept_errors,
    cache bytes/entries/hits/misses/evictions, cancelled, coalesced,
    conn_shed, conns, errors, faults_injected, idle_closed, inflight,
    orphaned_stops, pending, pool_dropped, served, shed, sliced,
    timeouts, warm_starts, plus the configured
    high_water/max_conns/workers. Also what the [stats] op returns. *)

val stop : t -> unit
(** Stop accepting, drain open connections (force-closing stragglers
    after [drain_deadline_s]), shut the compute pool down. Idempotent;
    also the path a [shutdown] frame triggers. Note: a genuinely wedged
    worker domain cannot be killed — shutdown waits for it, so injected
    wedges should use finite delays. *)

val wait : t -> unit
(** Block until the server has fully stopped (a [shutdown] frame or a
    concurrent {!stop}), then release its resources. *)
