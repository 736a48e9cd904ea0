(** Client side of the wire protocol: one-shot connections, retrying
    sessions, and the closed-loop load generator behind the [loadgen]
    subcommand.

    All durations are measured on the monotonic clock
    ({!Ptg_util.Clock}), never wall-clock time. *)

type t

val connect : ?timeout_s:float -> Server.addr -> t
(** Raises [Unix.Unix_error] if the server is unreachable; with
    [timeout_s], a non-responding peer raises [ETIMEDOUT] after at most
    that long instead of the kernel default. A TCP connection has Nagle
    off ({!Listener.skip_nagle}). *)

val close : t -> unit

val request :
  ?id:string ->
  ?v:int ->
  ?timeout_s:float ->
  t ->
  Protocol.request ->
  (Protocol.response, string) result
(** One round trip: send the frame, block for the one-line reply.
    [Error] covers transport failures (connection closed mid-reply,
    ["request timed out"] when [timeout_s] elapsed) and undecodable
    response frames. [timeout_s] bounds both the send and the receive
    via socket timeouts. [v] is the frame's protocol version (default
    {!Protocol.version}); v2-only requests raise through
    {!Protocol.encode_request} unless [v >= 2]. *)

val run : t -> Ptg_sim.Scenario.t -> (Protocol.response, string) result

(** {2 Protocol v2} *)

val hello : ?timeout_s:float -> t -> (int, string) result
(** Negotiate: send [hello] with our {!Protocol.max_version}, return
    the version the server settled on. A v1-only server rejects the
    frame, which surfaces as [Error] — callers may treat that as
    "speak v1". *)

val cancel : ?timeout_s:float -> t -> target:string -> (unit, string) result
(** Cancel the in-flight run whose request id is [target]. Must be sent
    on a different connection than the run itself (that connection is
    blocked awaiting its result). [Error] carries the server's reply
    when the id names nothing in flight. *)

val run_stream :
  ?id:string ->
  ?timeout_s:float ->
  ?on_progress:(done_count:int -> total:int -> unit) ->
  t ->
  Ptg_sim.Scenario.t ->
  (Protocol.response, string) result
(** Streamed run: sends [stream:true] at v2 and forwards each
    [progress] frame to [on_progress] until the terminal frame, which
    is returned exactly like {!request}. [timeout_s] applies per frame
    (progress frames reset it), so it can be much shorter than the
    whole computation. *)

(** {2 Retrying sessions}

    Retries are lossless, not merely safe: every scenario is
    deterministic and cache-keyed, so re-sending an identical request
    can only hit the cache or recompute the same bytes (see DESIGN.md).
    Sessions therefore retry transport failures — failed connects,
    torn/closed connections, request timeouts — with jittered
    exponential backoff, transparently reconnecting. Server-decided
    replies ([Timeout], [Overloaded], error frames) are returned to the
    caller, which owns that policy. *)

type retry_policy = {
  attempts : int;        (** total tries, including the first (>= 1) *)
  base_backoff_s : float;
  max_backoff_s : float;
  jitter : float;        (** in [0,1]: each delay is scaled by
                             [1 - jitter * u], [u] uniform in [0,1) *)
}

val default_retry : retry_policy
(** 3 attempts, 50 ms base doubling to at most 1 s, jitter 0.5. *)

val backoff_delay : retry_policy -> u:float -> attempt:int -> float
(** Pure: delay before retry number [attempt + 1] given a uniform draw
    [u]. Exposed for tests. For a positive [base_backoff_s] the result
    is strictly positive — jitter is floored at 10% of the base (clamped
    to [max_backoff_s]) so full jitter can never produce a 0 s delay and
    a retry hot loop — and never exceeds [max_backoff_s]. *)

type session

val session :
  ?policy:retry_policy ->
  ?connect_timeout_s:float ->
  ?request_timeout_s:float ->
  ?seed:int64 ->
  Server.addr ->
  session
(** Lazily-connecting session; [seed] fixes the jitter stream. Raises
    [Invalid_argument] on a nonsensical policy. *)

val session_request :
  session -> Protocol.request -> (Protocol.response, string) result
(** Like {!request}, with reconnect-and-retry per the policy. After the
    final attempt the last transport error is returned. *)

val session_run :
  session -> Ptg_sim.Scenario.t -> (Protocol.response, string) result

val session_run_stream :
  ?on_progress:(done_count:int -> total:int -> unit) ->
  session ->
  Ptg_sim.Scenario.t ->
  (Protocol.response, string) result
(** {!run_stream} with reconnect-and-retry per the policy. Because the
    read timeout restarts per frame, a server that slices a long run
    keeps this call alive with [progress] frames even when every slice
    exceeds [request_timeout_s]. A retry after a torn stream may replay
    progress pairs already seen (never skip any), so [on_progress] must
    tolerate duplicates. *)

val session_retries : session -> int
(** Re-attempts made after a transport failure (first tries excluded). *)

val session_reconnects : session -> int
(** Successful connects after the first one. *)

val session_close : session -> unit

(** {2 Closed-loop load generation}

    [clients] concurrent sessions, each issuing [requests_per_client]
    requests back-to-back (a client sends its next request only after
    the previous response arrives or its retries are exhausted), cycling
    through [scenarios]. A connection that dies mid-run is re-dialled
    with backoff rather than charging every remaining request as an
    error. *)
type report = {
  clients : int;
  requests : int;  (** total issued across all clients *)
  ok : int;
  hits : int;
  misses : int;
  coalesced : int;
  overloaded : int;
  timeouts : int;  (** server [timeout] frames (deadline expiries) *)
  errors : int;    (** error frames plus exhausted-retry transport failures *)
  retries : int;   (** transport-failure re-attempts across all clients *)
  reconnects : int;
  wall_s : float;
  throughput_rps : float;  (** ok responses per wall-clock second *)
  p50_us : float option;
  p95_us : float option;
  p99_us : float option;
      (** latency percentiles over ok responses; [None] when no request
          succeeded (an empty sample has no percentiles — reporting 0
          would fake a perfect server in a fully-failed run) *)
}

val loadgen :
  ?policy:retry_policy ->
  ?connect_timeout_s:float ->
  ?request_timeout_s:float ->
  ?swarm:int ->
  addr:Server.addr ->
  clients:int ->
  requests_per_client:int ->
  scenarios:Ptg_sim.Scenario.t list ->
  unit ->
  report
(** [swarm] (default 1) is the number of independent sessions each
    client thread holds, dealt requests round-robin: [clients * swarm]
    connections sustained by [clients] closed-loop threads — the mode
    that soaks a sharded router without thousands of OS threads.
    Raises [Invalid_argument] on non-positive [clients],
    [requests_per_client] or [swarm], an empty [scenarios] list, or a
    nonsensical [policy]. *)

val report_to_string : report -> string
(** Multi-line human-readable summary, newline-terminated. *)
