(** Line-JSON wire protocol, versions 1 and 2.

    Every frame is one JSON object on one line, newline-terminated.
    Each frame carries its protocol version in ["v"], and a response
    mirrors the version of the request it answers — a v1 client never
    sees a v2-only frame, which is what keeps v1 clients working
    unchanged against a v2 server.

    Version 1 requests carry an operation, an optional caller id
    (echoed back verbatim) and, for [run], a scenario object:
    {v
    {"v":1,"op":"run","id":"r1","scenario":{"kind":"fig6","seed":42,
      "reduced":true,"workloads":["mcf","bc"],"instrs":6000,"warmup":2000}}
    {"v":1,"op":"ping"}
    {"v":1,"op":"stats"}
    {"v":1,"op":"shutdown"}
    v}

    Version 1 responses are one of four statuses — ["ok"],
    ["overloaded"] (load shed: the server's in-flight high-water mark
    was reached; retry later), ["timeout"] (the per-request compute
    deadline expired before the scenario finished; an identical retry
    recomputes) or ["error"] (the explicit error frame):
    {v
    {"v":1,"id":"r1","status":"ok","cache":"miss","hash":"63…","result":"…"}
    {"v":1,"id":"r1","status":"overloaded"}
    {"v":1,"id":"r1","status":"timeout"}
    {"v":1,"id":"r1","status":"error","error":"unknown workload zzz (…)"}
    v}

    Version 2 adds:

    - {b negotiation}: ["hello"] carries the client's highest supported
      version; the reply names the version the server settles on
      ([min client_max server_max]). Purely informative — every frame
      still names its own version, and a server accepts any supported
      one.
      {v
      {"v":2,"op":"hello","max":2}
      {"v":2,"status":"ok","result":"hello","version":2}
      v}
    - {b progress streaming}: a run with ["stream":true] may receive
      any number of ["progress"] frames (same id) before its terminal
      frame. [done]/[total] count the experiment's own units
      (instructions for fullsys, rows for fig6); a warm-started run's
      first progress frame starts at the adopted checkpoint depth.
      Progress frames are best-effort — zero of them is valid.
      {v
      {"v":2,"op":"run","id":"r2","stream":true,"scenario":{…}}
      {"v":2,"id":"r2","status":"progress","done":20000,"total":60000}
      {"v":2,"id":"r2","status":"ok","cache":"miss","hash":"…","result":"…"}
      v}
    - {b cancellation}: ["cancel"] names the [id] of an in-flight v2
      run (sent on another connection — the requesting connection is
      blocked in its run). The cancelled run terminates with status
      ["cancelled"]; its computation stops at the next checkpoint
      boundary once no interested waiter remains.
      {v
      {"v":2,"op":"cancel","target":"r2"}
      {"v":2,"id":"r2","status":"cancelled"}
      v}

    This module owns the frames only. A [run] frame's ["scenario"]
    object is {!Ptg_sim.Scenario.to_json}'s encoding, decoded by
    {!Ptg_sim.Scenario.of_json}: its fields and their defaults are
    documented in [scenario.mli]. Scenario field order and whitespace
    are irrelevant: the server canonicalizes
    ({!Ptg_sim.Scenario.canonical}) before hashing, so any spelling of
    the same scenario shares one cache entry. Unknown scenario fields,
    v2-only fields/ops under v1, and unsupported versions are rejected
    (the version field is the compatibility mechanism, not silent
    tolerance). *)

val version : int
(** The baseline version (1): the default for {!encode_request} and
    {!encode_response}, so existing v1 peers are unaffected by v2. *)

val max_version : int
(** Highest version this implementation speaks (2). *)

val max_frame_bytes : int
(** Longest request frame a server reads, newline excluded: 1 MiB, far
    above any legitimate request (trace scenarios carry a path, not
    content). A longer frame gets an error frame naming this limit and
    the connection is closed. *)

val supported : int -> bool

type request =
  | Run of Ptg_sim.Scenario.t
  | Run_stream of Ptg_sim.Scenario.t
      (** v2: like [Run], but the server may interleave [Progress]
          frames before the terminal frame. *)
  | Ping
  | Stats
  | Shutdown
  | Hello of int  (** v2: the sender's highest supported version *)
  | Cancel of string  (** v2: the id of the in-flight run to cancel *)

type cache_disposition = Hit | Miss | Coalesced

val cache_disposition_name : cache_disposition -> string
(** ["hit"] / ["miss"] / ["coalesced"]. *)

type response =
  | Result of { cache : cache_disposition; hash : string; result : string }
  | Pong
  | Stats_reply of (string * float) list
  | Overloaded
  | Timeout
      (** The compute deadline expired while this request waited; the
          pending entry was unhooked, so an identical retry recomputes
          (or hits the cache if the straggler finished meanwhile). *)
  | Error_reply of string
  | Progress of { done_count : int; total : int }
      (** v2, non-terminal: streamed while a [Run_stream] computes. *)
  | Cancelled  (** v2, terminal: the run was cancelled by a [Cancel]. *)
  | Hello_reply of int  (** v2: the negotiated version *)

type meta = { id : string option; v : int }
(** Per-frame envelope: the echoed caller id and the frame's protocol
    version (which the response to it must mirror). *)

val encode_request : ?id:string -> ?v:int -> request -> string
(** One frame, without the trailing newline; [v] defaults to
    {!version}. Raises [Invalid_argument] when a v2-only request is
    encoded at v1 or [v] is unsupported. *)

val decode_request : string -> (meta * request, string) result
(** Returns the frame envelope alongside the request; on malformed
    frames the id is recovered when possible so the error frame can
    still be correlated. *)

val encode_response : ?id:string -> ?v:int -> response -> string
(** Raises [Invalid_argument] when a v2-only response is encoded at v1
    — the type-level guard behind "a v1 client never sees a v2
    frame". *)

val decode_response : string -> (meta * response, string) result
