module Clock = Ptg_util.Clock

(* [timeout_s] is the socket timeout last applied, so a request with the
   same timeout as the one before costs no [setsockopt]. *)
type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable timeout_s : float option;
}

let connect ?timeout_s addr =
  let domain, sockaddr = Listener.sockaddr addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  Listener.skip_nagle domain fd;
  (try
     match timeout_s with
     | None -> Unix.connect fd sockaddr
     | Some timeout -> (
         (* Non-blocking connect + select so an unreachable peer costs
            at most [timeout] rather than the kernel's default. *)
         Unix.set_nonblock fd;
         (match Unix.connect fd sockaddr with
         | () -> ()
         | exception
             Unix.Unix_error
               ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> (
             match Unix.select [] [ fd ] [] timeout with
             | [], [], [] ->
                 raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
             | _ -> (
                 match Unix.getsockopt_error fd with
                 | None -> ()
                 | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
         Unix.clear_nonblock fd)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    timeout_s = None;
  }

let close t =
  (* Both channels share one descriptor; closing the output channel
     flushes and closes it. *)
  close_out_noerr t.oc

let set_timeouts t timeout_s =
  match timeout_s with
  | Some v when v > 0. && not (Option.equal Float.equal t.timeout_s timeout_s) -> (
      try
        Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO v;
        Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO v;
        t.timeout_s <- timeout_s
      with Unix.Unix_error _ | Invalid_argument _ -> ())
  | _ -> ()

(* A socket-timeout expiry surfaces as [Sys_blocked_io] through the
   buffered channel (or a read/write error); classify by elapsed time
   (monotonic). *)
let classify_transport_error timeout_s t0 =
  match timeout_s with
  | Some v when v > 0. && Clock.elapsed_s t0 >= 0.9 *. v ->
      Error "request timed out"
  | _ -> Error "connection closed"

(* Send one request frame, then read frames until a terminal one,
   forwarding any [progress] frame to [on_progress]. The read timeout
   restarts per frame — progress frames are keep-alives, so a streamed
   run survives a per-frame timeout shorter than the whole compute. *)
let exchange ?id ?v ?timeout_s ?on_progress t req =
  set_timeouts t timeout_s;
  let t0 = Clock.now_ns () in
  match
    output_string t.oc (Protocol.encode_request ?id ?v req);
    output_char t.oc '\n';
    flush t.oc
  with
  | exception (Sys_error _ | Sys_blocked_io) -> classify_transport_error timeout_s t0
  | () ->
      let rec read_frame () =
        let t_frame = Clock.now_ns () in
        match input_line t.ic with
        | exception (End_of_file | Sys_error _ | Sys_blocked_io) ->
            classify_transport_error timeout_s t_frame
        | line -> (
            match Protocol.decode_response line with
            | Ok (_meta, Protocol.Progress { done_count; total }) ->
                Option.iter (fun f -> f ~done_count ~total) on_progress;
                read_frame ()
            | Ok (_meta, resp) -> Ok resp
            | Error e -> Error e)
      in
      read_frame ()

let request ?id ?v ?timeout_s t req = exchange ?id ?v ?timeout_s t req

let run t scenario = request t (Protocol.Run scenario)

let hello ?timeout_s t =
  match request ~v:2 ?timeout_s t (Protocol.Hello Protocol.max_version) with
  | Ok (Protocol.Hello_reply v) -> Ok v
  | Ok _ -> Error "hello: unexpected reply"
  | Error e -> Error e

let cancel ?timeout_s t ~target =
  match request ~v:2 ?timeout_s t (Protocol.Cancel target) with
  | Ok Protocol.Pong -> Ok ()
  | Ok (Protocol.Error_reply e) -> Error e
  | Ok _ -> Error "cancel: unexpected reply"
  | Error e -> Error e

let run_stream ?id ?timeout_s ?on_progress t scenario =
  exchange ?id ~v:2 ?timeout_s ?on_progress t (Protocol.Run_stream scenario)

(* ------------------------------------------------------------------ *)
(* Retrying sessions                                                   *)
(* ------------------------------------------------------------------ *)

type retry_policy = {
  attempts : int;
  base_backoff_s : float;
  max_backoff_s : float;
  jitter : float;
}

let default_retry =
  { attempts = 3; base_backoff_s = 0.05; max_backoff_s = 1.0; jitter = 0.5 }

let check_policy p =
  if p.attempts < 1 then invalid_arg "Client: retry attempts";
  if not (p.base_backoff_s >= 0. && p.max_backoff_s >= 0.) then
    invalid_arg "Client: retry backoff";
  if not (p.jitter >= 0. && p.jitter <= 1.) then invalid_arg "Client: jitter"

let backoff_delay policy ~u ~attempt =
  let exp = Float.of_int (1 lsl min attempt 30) in
  let d = Float.min policy.max_backoff_s (policy.base_backoff_s *. exp) in
  (* Full jitter ([jitter = 1.0], [u -> 1.0]) must not collapse the
     delay to ~0 s — that turns retries into a hot loop against a server
     that is already struggling. Floor at 10% of the base backoff
     (clamped to the cap so a base above the cap cannot push past it). *)
  let floor_s = Float.min policy.max_backoff_s (0.1 *. policy.base_backoff_s) in
  Float.max floor_s (d *. (1. -. (policy.jitter *. u)))

type session = {
  s_addr : Server.addr;
  policy : retry_policy;
  connect_timeout_s : float option;
  request_timeout_s : float option;
  rng : Ptg_util.Rng.t;
  mutable conn : t option;
  mutable ever_connected : bool;
  mutable retries : int;
  mutable reconnects : int;
}

let session ?(policy = default_retry) ?connect_timeout_s ?request_timeout_s
    ?(seed = 1L) addr =
  check_policy policy;
  {
    s_addr = addr;
    policy;
    connect_timeout_s;
    request_timeout_s;
    rng = Ptg_util.Rng.create seed;
    conn = None;
    ever_connected = false;
    retries = 0;
    reconnects = 0;
  }

let session_retries s = s.retries
let session_reconnects s = s.reconnects

let session_close s =
  match s.conn with
  | Some c ->
      s.conn <- None;
      close c
  | None -> ()

let drop_conn s = session_close s

let ensure_conn s =
  match s.conn with
  | Some c -> Ok c
  | None -> (
      match connect ?timeout_s:s.connect_timeout_s s.s_addr with
      | c ->
          if s.ever_connected then s.reconnects <- s.reconnects + 1;
          s.ever_connected <- true;
          s.conn <- Some c;
          Ok c
      | exception Unix.Unix_error (err, _, _) ->
          Error ("connect: " ^ Unix.error_message err)
      | exception Sys_error msg -> Error ("connect: " ^ msg))

(* The one retry loop behind every session call. Only transport-level
   failures (connect, torn/closed/timed-out sockets) are retried; the
   interface documents why that is lossless, including for a torn
   stream whose progress pairs are replayed. *)
let with_retries s call =
  let rec attempt k last_err =
    if k >= s.policy.attempts then Error last_err
    else begin
      if k > 0 then begin
        s.retries <- s.retries + 1;
        let d =
          backoff_delay s.policy ~u:(Ptg_util.Rng.float s.rng) ~attempt:(k - 1)
        in
        if d > 0. then Thread.delay d
      end;
      match ensure_conn s with
      | Error e -> attempt (k + 1) e
      | Ok conn -> (
          match call conn with
          | Ok resp -> Ok resp
          | Error e ->
              drop_conn s;
              attempt (k + 1) e)
    end
  in
  attempt 0 "no attempts made"

let session_request s req =
  with_retries s (fun conn -> request ?timeout_s:s.request_timeout_s conn req)

let session_run s scenario = session_request s (Protocol.Run scenario)

let session_run_stream ?on_progress s scenario =
  with_retries s (fun conn ->
      run_stream ?timeout_s:s.request_timeout_s ?on_progress conn scenario)

(* ------------------------------------------------------------------ *)
(* Load generation                                                     *)
(* ------------------------------------------------------------------ *)

type report = {
  clients : int;
  requests : int;
  ok : int;
  hits : int;
  misses : int;
  coalesced : int;
  overloaded : int;
  timeouts : int;
  errors : int;
  retries : int;
  reconnects : int;
  wall_s : float;
  throughput_rps : float;
  p50_us : float option;
  p95_us : float option;
  p99_us : float option;
}

type worker_tally = {
  mutable w_ok : int;
  mutable w_hits : int;
  mutable w_misses : int;
  mutable w_coalesced : int;
  mutable w_overloaded : int;
  mutable w_timeouts : int;
  mutable w_errors : int;
  mutable w_retries : int;
  mutable w_reconnects : int;
  mutable latencies_us : float list;  (** ok responses only *)
}

let loadgen ?(policy = default_retry) ?connect_timeout_s ?request_timeout_s
    ?(swarm = 1) ~addr ~clients ~requests_per_client ~scenarios () =
  if clients < 1 then invalid_arg "Client.loadgen: clients";
  if requests_per_client < 1 then invalid_arg "Client.loadgen: requests_per_client";
  if scenarios = [] then invalid_arg "Client.loadgen: scenarios";
  if swarm < 1 then invalid_arg "Client.loadgen: swarm";
  check_policy policy;
  let scenarios = Array.of_list scenarios in
  let tallies =
    Array.init clients (fun _ ->
        {
          w_ok = 0;
          w_hits = 0;
          w_misses = 0;
          w_coalesced = 0;
          w_overloaded = 0;
          w_timeouts = 0;
          w_errors = 0;
          w_retries = 0;
          w_reconnects = 0;
          latencies_us = [];
        })
  in
  let worker i =
    let tally = tallies.(i) in
    (* Per-client seeds: deterministic jitter streams, distinct per
       client (and per swarm connection) so backoffs do not
       synchronize. Swarm mode keeps [swarm] independent sessions per
       closed-loop thread and deals requests across them round-robin —
       a connection pool that multiplies socket-level concurrency
       without multiplying threads. *)
    let sessions =
      Array.init swarm (fun s ->
          session ~policy ?connect_timeout_s ?request_timeout_s
            ~seed:(Int64.of_int (0x10001 + (i * swarm) + s))
            addr)
    in
    for r = 0 to requests_per_client - 1 do
      let sess = sessions.(r mod swarm) in
      let scenario = scenarios.(r mod Array.length scenarios) in
      let t0 = Clock.now_ns () in
      match session_run sess scenario with
      | Ok (Protocol.Result { cache; _ }) -> (
          tally.w_ok <- tally.w_ok + 1;
          tally.latencies_us <- Clock.elapsed_us t0 :: tally.latencies_us;
          match cache with
          | Protocol.Hit -> tally.w_hits <- tally.w_hits + 1
          | Protocol.Miss -> tally.w_misses <- tally.w_misses + 1
          | Protocol.Coalesced -> tally.w_coalesced <- tally.w_coalesced + 1)
      | Ok Protocol.Overloaded -> tally.w_overloaded <- tally.w_overloaded + 1
      | Ok Protocol.Timeout -> tally.w_timeouts <- tally.w_timeouts + 1
      | Ok Protocol.Cancelled
      | Ok (Protocol.Error_reply _ | Protocol.Progress _)
      | Ok (Protocol.Pong | Protocol.Stats_reply _ | Protocol.Hello_reply _)
      | Error _ ->
          tally.w_errors <- tally.w_errors + 1
    done;
    Array.iter
      (fun sess ->
        tally.w_retries <- tally.w_retries + session_retries sess;
        tally.w_reconnects <- tally.w_reconnects + session_reconnects sess;
        session_close sess)
      sessions
  in
  let wall_t0 = Clock.now_ns () in
  let threads = Array.init clients (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  let wall_s = Clock.elapsed_s wall_t0 in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 tallies in
  let ok = sum (fun w -> w.w_ok) in
  let lat = Array.of_list (List.concat_map (fun w -> w.latencies_us) (Array.to_list tallies)) in
  (* No ok responses means no latency sample: the percentiles are
     undefined, not 0 us — a 0 would read as an impossibly fast server
     in exactly the runs that are total failures. *)
  let pct p =
    if Array.length lat = 0 then None else Some (Ptg_util.Stats.percentile lat p)
  in
  {
    clients;
    requests = clients * requests_per_client;
    ok;
    hits = sum (fun w -> w.w_hits);
    misses = sum (fun w -> w.w_misses);
    coalesced = sum (fun w -> w.w_coalesced);
    overloaded = sum (fun w -> w.w_overloaded);
    timeouts = sum (fun w -> w.w_timeouts);
    errors = sum (fun w -> w.w_errors);
    retries = sum (fun w -> w.w_retries);
    reconnects = sum (fun w -> w.w_reconnects);
    wall_s;
    throughput_rps = (if wall_s > 0. then float_of_int ok /. wall_s else 0.);
    p50_us = pct 50.;
    p95_us = pct 95.;
    p99_us = pct 99.;
  }

let report_to_string r =
  let pct = function Some v -> Printf.sprintf "%.0f us" v | None -> "n/a" in
  Printf.sprintf
    "loadgen: %d clients x %d requests (%d total)\n\
    \  ok          %d (hit %d / miss %d / coalesced %d)\n\
    \  overloaded  %d\n\
    \  timeouts    %d\n\
    \  errors      %d (retries %d, reconnects %d)\n\
    \  wall        %.3f s\n\
    \  throughput  %.1f req/s\n\
    \  latency     p50 %s  p95 %s  p99 %s\n"
    r.clients
    (r.requests / max 1 r.clients)
    r.requests r.ok r.hits r.misses r.coalesced r.overloaded r.timeouts
    r.errors r.retries r.reconnects r.wall_s r.throughput_rps (pct r.p50_us)
    (pct r.p95_us) (pct r.p99_us)
