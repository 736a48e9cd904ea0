(* Chaos tests: every Faults kind injected against a live server, plus
   the failure surfaces that need no injection — slow-loris connections
   against the cap and idle timeout, and the forced shutdown drain. The
   deadline test is the acceptance criterion for the fault-tolerance
   layer: a wedged worker yields a [timeout] frame within the configured
   deadline, the pending entry is unhooked, and an identical retry
   recomputes instead of coalescing onto the zombie. *)

module Server = Ptg_server.Server
module Router = Ptg_server.Router
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Faults = Ptg_server.Faults
module Scenario = Ptg_sim.Scenario
module Clock = Ptg_util.Clock

let with_server config f =
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let base_config ?(handler = fun _ -> "payload") ?obs ?(workers = 2)
    ?(high_water = 8) ?(deadline_s = 30.) ?(idle_timeout_s = 60.)
    ?(max_conns = 256) ?(drain_deadline_s = 5.)
    ?(faults = Faults.create ()) () =
  {
    (Server.default_config (Server.Tcp 0)) with
    Server.workers;
    high_water;
    deadline_s;
    idle_timeout_s;
    max_conns;
    drain_deadline_s;
    obs;
    handler = Some (Test_server_e2e.text_handler handler);
    faults;
  }

let stat server key =
  match List.assoc_opt key (Server.stats server) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stat %s missing" key

let scenario_seed seed = Scenario.make ~seed Scenario.Fig8

(* A fast retry policy so chaos tests do not sleep through real
   production backoffs. *)
let fast_policy =
  {
    Client.attempts = 3;
    base_backoff_s = 0.01;
    max_backoff_s = 0.05;
    jitter = 0.5;
  }

(* ------------------------------------------------------------------ *)
(* Deadline expiry: the acceptance criterion                           *)
(* ------------------------------------------------------------------ *)

let test_wedged_worker_times_out () =
  let faults = Faults.create () in
  Faults.arm faults (Faults.Wedge_worker 1.0);
  let config =
    base_config ~handler:(fun _ -> "quick") ~workers:2 ~deadline_s:0.25 ~faults
      ()
  in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let t0 = Clock.now_ns () in
          (match Client.run c (scenario_seed 1L) with
          | Ok Protocol.Timeout -> ()
          | Ok _ -> Alcotest.fail "expected a timeout frame"
          | Error e -> Alcotest.fail e);
          let waited = Clock.elapsed_s t0 in
          Alcotest.(check bool) "bounded by the deadline, not the wedge" true
            (waited >= 0.2 && waited < 0.9);
          Alcotest.(check int) "timeout counted" 1 (stat server "timeouts");
          Alcotest.(check int) "pending entry unhooked" 0
            (stat server "pending");
          Alcotest.(check int) "wedge consumed" 1
            (stat server "faults_injected");
          (* The worker really is still busy: its in-flight slot stays
             charged until it finishes. *)
          Alcotest.(check int) "wedged slot still charged" 1
            (stat server "inflight");
          (* An identical retry recomputes on the free worker — a miss,
             not a coalesce onto the zombie, and not a stale answer. *)
          (match Client.run c (scenario_seed 1L) with
          | Ok (Protocol.Result { cache = Protocol.Miss; result = "quick"; _ })
            ->
              ()
          | Ok Protocol.Timeout ->
              Alcotest.fail "retry coalesced onto the wedged computation"
          | Ok _ -> Alcotest.fail "unexpected frame"
          | Error e -> Alcotest.fail e);
          Alcotest.(check int) "retry served" 1 (stat server "served")))

(* ------------------------------------------------------------------ *)
(* Client-side retries against each injected fault                     *)
(* ------------------------------------------------------------------ *)

let run_with_session ?request_timeout_s config scenario =
  with_server config (fun server ->
      let sess =
        Client.session ~policy:fast_policy ?request_timeout_s ~seed:42L
          (Server.listen_addr server)
      in
      Fun.protect ~finally:(fun () -> Client.session_close sess) (fun () ->
          let reply = Client.session_run sess scenario in
          ( reply,
            Client.session_retries sess,
            Client.session_reconnects sess )))

let check_recovered (reply, retries, reconnects) =
  (match reply with
  | Ok (Protocol.Result { result = "payload"; _ }) -> ()
  | Ok _ -> Alcotest.fail "unexpected frame"
  | Error e -> Alcotest.failf "retry did not recover: %s" e);
  Alcotest.(check int) "one retry" 1 retries;
  Alcotest.(check int) "one reconnect" 1 reconnects

let test_delay_fault_retried () =
  (* The handler thread stalls past the client's request timeout; the
     retry lands on a fresh connection whose fault budget is spent. *)
  let faults = Faults.create () in
  Faults.arm faults (Faults.Delay_handler 0.6);
  check_recovered
    (run_with_session ~request_timeout_s:0.2 (base_config ~faults ())
       (scenario_seed 2L))

let test_torn_frame_retried () =
  (* Half a frame then a hangup: the client sees a decode error, drops
     the connection and retries — the second answer is a cache hit. *)
  let faults = Faults.create () in
  Faults.arm faults Faults.Torn_frame;
  check_recovered
    (run_with_session (base_config ~faults ()) (scenario_seed 3L))

let test_dropped_connection_retried () =
  let faults = Faults.create () in
  Faults.arm faults Faults.Drop_connection;
  check_recovered
    (run_with_session (base_config ~faults ()) (scenario_seed 4L))

(* Server-decided frames are not transport failures: a [timeout] reply
   comes straight back to the caller, with no retry burned. *)
let test_timeout_frame_not_retried () =
  let faults = Faults.create () in
  Faults.arm faults (Faults.Wedge_worker 0.8);
  let config =
    base_config ~handler:(fun _ -> "quick") ~workers:2 ~deadline_s:0.2 ~faults
      ()
  in
  let reply, retries, _ = run_with_session config (scenario_seed 5L) in
  (match reply with
  | Ok Protocol.Timeout -> ()
  | Ok _ -> Alcotest.fail "expected the timeout frame itself"
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "no transport retries" 0 retries

(* ------------------------------------------------------------------ *)
(* Connection hardening, once per front end                            *)
(* ------------------------------------------------------------------ *)

(* Both front ends accept connections through one listener, so every
   row below runs against a [Server] and against a [Router] in front of
   one shard. *)
type front = {
  addr : Server.addr;
  stats : unit -> (string * float) list;
  stop : unit -> unit;
}

type front_kind = {
  label : string;
  start :
    ?addr:Server.addr ->
    ?obs:Ptg_obs.Sink.t ->
    ?idle_timeout_s:float ->
    ?max_conns:int ->
    ?drain_deadline_s:float ->
    ?handler:(Scenario.t -> string) ->
    unit ->
    front;
}

let server_kind =
  {
    label = "server";
    start =
      (fun ?(addr = Server.Tcp 0) ?obs ?idle_timeout_s ?max_conns ?drain_deadline_s
           ?handler () ->
        let config =
          base_config ?handler ?obs ~workers:1 ?idle_timeout_s ?max_conns
            ?drain_deadline_s ()
        in
        let server = Server.start { config with Server.addr } in
        {
          addr = Server.listen_addr server;
          stats = (fun () -> Server.stats server);
          stop = (fun () -> Server.stop server);
        });
  }

let router_kind =
  {
    label = "router";
    start =
      (fun ?(addr = Server.Tcp 0) ?obs ?(idle_timeout_s = 60.) ?(max_conns = 256)
           ?(drain_deadline_s = 5.) ?handler () ->
        let shard = Server.start (base_config ?handler ()) in
        let config =
          {
            (Router.default_config addr ~shards:[ Server.listen_addr shard ]) with
            Router.retry = fast_policy;
            idle_timeout_s;
            max_conns;
            drain_deadline_s;
            obs;
          }
        in
        match Router.start config with
        | router ->
            {
              addr = Router.listen_addr router;
              stats = (fun () -> Router.stats router);
              stop =
                (fun () ->
                  Router.stop router;
                  Server.stop shard);
            }
        | exception e ->
            Server.stop shard;
            raise e);
  }

let fstat front key =
  match List.assoc_opt key (front.stats ()) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stat %s missing" key

(* Poll [stats] until [key] reaches [want] — for transitions driven by
   timers (idle closes, connection teardown). *)
let wait_for_fstat front key want =
  let deadline = Clock.ns_after (Clock.now_ns ()) 3.0 in
  let rec go () =
    if fstat front key = want then ()
    else if Clock.now_ns () >= deadline then
      Alcotest.failf "stat %s never reached %d (now %d)" key want (fstat front key)
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_front front f = Fun.protect ~finally:front.stop (fun () -> f front)

let dial_tcp front =
  let port =
    match front.addr with
    | Server.Tcp p -> p
    | Server.Unix_socket _ -> Alcotest.fail "expected tcp"
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let expect_payload front seed =
  let c = Client.connect front.addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.run c (scenario_seed seed) with
      | Ok (Protocol.Result { result = "payload"; _ }) -> ()
      | Ok _ -> Alcotest.fail "unexpected frame"
      | Error e -> Alcotest.fail e)

(* Slow loris: the connection cap and the idle timeout. *)
let test_conn_cap_and_idle_timeout kind () =
  with_front (kind.start ~max_conns:2 ~idle_timeout_s:0.3 ()) (fun front ->
      (* Two connections that never send a byte occupy the whole cap. *)
      let loris1 = dial_tcp front and loris2 = dial_tcp front in
      wait_for_fstat front "conns" 2;
      (* The third is shed at accept time with a best-effort overloaded
         frame, then closed. *)
      let ic3 = Unix.in_channel_of_descr (dial_tcp front) in
      (match input_line ic3 with
      | exception End_of_file -> Alcotest.fail "no shed frame before close"
      | line -> (
          match Protocol.decode_response line with
          | Ok ({ Protocol.id = None; _ }, Protocol.Overloaded) -> ()
          | _ -> Alcotest.failf "unexpected shed frame %s" line));
      (match input_line ic3 with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "expected close after the shed frame");
      close_in_noerr ic3;
      Alcotest.(check int) "accept-time shed counted" 1 (fstat front "conn_shed");
      (* The idle timeout reaps both loris connections... *)
      wait_for_fstat front "conns" 0;
      Alcotest.(check int) "idle closes counted" 2 (fstat front "idle_closed");
      (try Unix.close loris1 with Unix.Unix_error _ -> ());
      (try Unix.close loris2 with Unix.Unix_error _ -> ());
      (* ...freeing capacity for a real client. *)
      expect_payload front 6L)

(* Shutdown drain deadline: a request still computing when the drain
   deadline passes is force-closed, not waited for. *)
let test_drain_deadline_forces_stragglers kind () =
  let obs = Ptg_obs.Sink.create () in
  let front =
    kind.start
      ~handler:(fun _ ->
        Thread.delay 0.8;
        "slow")
      ~drain_deadline_s:0.2 ~obs ()
  in
  let reply = ref (Error "unset") in
  let replied_at = ref 0L in
  let c = Client.connect front.addr in
  let straggler =
    Thread.create
      (fun () ->
        reply := Client.run c (scenario_seed 7L);
        replied_at := Clock.now_ns ())
      ()
  in
  Thread.delay 0.2 (* let the request get admitted and start computing *);
  let stop_t0 = Clock.now_ns () in
  front.stop ();
  Thread.join straggler;
  Client.close c;
  (* The straggler was expired, not served: either it saw the timeout
     frame before its socket was force-closed, or the close itself. *)
  (match !reply with
  | Ok Protocol.Timeout | Error _ -> ()
  | Ok _ -> Alcotest.fail "straggler should have been expired");
  Alcotest.(check bool) "straggler released by the drain deadline" true
    (Int64.to_float (Int64.sub !replied_at stop_t0) /. 1e9 < 0.7);
  (* Connection drain was bounded by the drain deadline (~0.2 s), not
     held open for the 0.8 s handler. *)
  if kind.label = "server" then
    match
      Ptg_obs.Registry.find (Ptg_obs.Sink.metrics obs) "server_drain_duration_us"
    with
    | Some d ->
        Alcotest.(check bool) "drain bounded by its deadline" true (d < 700_000.)
    | None -> Alcotest.fail "drain gauge missing"

(* A stale socket file is replaced and removed on stop; any other file
   at the path is refused and keeps its bytes. *)
let test_stale_socket_lifecycle kind () =
  let path = Filename.temp_file "ptg_front_" ".sock" in
  Sys.remove path;
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  with_front (kind.start ~addr:(Server.Unix_socket path) ()) (fun front ->
      Alcotest.(check bool) "socket file exists" true (Sys.file_exists path);
      expect_payload front 8L);
  Alcotest.(check bool) "socket file removed on stop" false (Sys.file_exists path);
  Out_channel.with_open_bin path (fun oc -> output_string oc "precious");
  (match kind.start ~addr:(Server.Unix_socket path) () with
  | front ->
      front.stop ();
      Alcotest.fail "start replaced a regular file"
  | exception _ -> ());
  Alcotest.(check string) "regular file untouched" "precious"
    (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path

(* A frame at the limit is read; one byte more gets an error frame
   naming the limit and a hangup, and the front end keeps serving. *)
let test_over_long_frame kind () =
  with_front (kind.start ~idle_timeout_s:3. ()) (fun front ->
      let fd = dial_tcp front in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          let write s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          let head = {|{"v":1,"op":"ping"|} in
          write
            (head
            ^ String.make (Protocol.max_frame_bytes - String.length head - 1) ' '
            ^ "}\n");
          (match Protocol.decode_response (input_line ic) with
          | Ok (_, Protocol.Pong) -> ()
          | _ -> Alcotest.fail "a frame at the limit must be answered");
          write (String.make (Protocol.max_frame_bytes + 1) 'x');
          (match input_line ic with
          | exception End_of_file -> Alcotest.fail "no error frame before close"
          | line -> (
              match Protocol.decode_response line with
              | Ok (_, Protocol.Error_reply msg) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "error names the limit (got %s)" msg)
                    true
                    (contains msg (string_of_int Protocol.max_frame_bytes))
              | _ -> Alcotest.failf "unexpected frame %s" line));
          match input_line ic with
          | exception (End_of_file | Sys_error _) -> ()
          | _ -> Alcotest.fail "expected close after the error frame");
      Alcotest.(check int) "over-long frame counted" 1 (fstat front "errors");
      expect_payload front 9L)

let hardening_suite =
  List.concat_map
    (fun kind ->
      let name n = if kind.label = "server" then n else kind.label ^ ": " ^ n in
      [
        Alcotest.test_case (name "slow loris: connection cap and idle timeout") `Slow
          (test_conn_cap_and_idle_timeout kind);
        Alcotest.test_case (name "shutdown drain deadline force-closes stragglers") `Slow
          (test_drain_deadline_forces_stragglers kind);
        Alcotest.test_case (name "stale socket replaced, other files refused") `Quick
          (test_stale_socket_lifecycle kind);
        Alcotest.test_case (name "over-long frame answered, then hung up") `Quick
          (test_over_long_frame kind);
      ])
    [ server_kind; router_kind ]

(* ------------------------------------------------------------------ *)
(* The fault slot itself                                               *)
(* ------------------------------------------------------------------ *)

let take_if_torn t =
  Faults.take_matching t (function Faults.Torn_frame -> Some () | _ -> None)

let test_fault_slot_budget () =
  let t = Faults.create () in
  Alcotest.(check (option unit)) "unarmed injects nothing" None
    (Faults.take_matching t (fun _ -> Some ()));
  Faults.arm ~times:2 t Faults.Torn_frame;
  (* A non-matching injection point never burns a firing. *)
  Alcotest.(check (option unit)) "non-matching point" None
    (Faults.take_matching t (function
      | Faults.Drop_connection -> Some ()
      | _ -> None));
  Alcotest.(check (option unit)) "first firing" (Some ()) (take_if_torn t);
  Alcotest.(check (option unit)) "second firing" (Some ()) (take_if_torn t);
  Alcotest.(check (option unit)) "budget exhausted" None (take_if_torn t);
  Faults.arm t (Faults.Delay_handler 0.1);
  Faults.disarm t;
  Alcotest.(check (option unit)) "disarmed" None
    (Faults.take_matching t (fun _ -> Some ()));
  Alcotest.check_raises "times < 1 rejected"
    (Invalid_argument "Faults.arm: times") (fun () ->
      Faults.arm ~times:0 t Faults.Torn_frame);
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Faults.arm: delay") (fun () ->
      Faults.arm t (Faults.Wedge_worker (-1.)));
  Alcotest.check_raises "infinite delay rejected"
    (Invalid_argument "Faults.arm: delay") (fun () ->
      Faults.arm t (Faults.Delay_handler Float.infinity));
  Alcotest.check_raises "nan delay rejected"
    (Invalid_argument "Faults.arm: delay") (fun () ->
      Faults.arm t (Faults.Wedge_worker Float.nan))

let test_fault_spec_parsing () =
  let ok spec want_kind want_times =
    match Faults.of_spec spec with
    | Ok (kind, times) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s kind" spec)
          true (kind = want_kind);
        Alcotest.(check int) (Printf.sprintf "%s times" spec) want_times times
    | Error e -> Alcotest.failf "of_spec %S: %s" spec e
  in
  let err spec =
    match Faults.of_spec spec with
    | Ok _ -> Alcotest.failf "of_spec %S: expected an error" spec
    | Error _ -> ()
  in
  ok "torn" Faults.Torn_frame 1;
  ok "drop" Faults.Drop_connection 1;
  ok "drop:*:5" Faults.Drop_connection 5;
  ok "delay:0.5" (Faults.Delay_handler 0.5) 1;
  ok "wedge:2:3" (Faults.Wedge_worker 2.) 3;
  err "delay" (* missing seconds *);
  err "wedge:-1";
  err "torn:0.5" (* torn takes no argument *);
  err "drop:*:0";
  err "bogus";
  err "wedge:1:2:3";
  (* Non-finite durations parse as floats but can never fire or drain:
     they must be rejected at the spec boundary, not at arm time. *)
  err "delay:inf";
  err "delay:-inf";
  err "delay:nan";
  err "wedge:inf";
  err "wedge:nan:3"

(* ------------------------------------------------------------------ *)
(* Backoff is pure and bounded                                         *)
(* ------------------------------------------------------------------ *)

let test_backoff_delay () =
  let p =
    {
      Client.attempts = 5;
      base_backoff_s = 0.05;
      max_backoff_s = 1.0;
      jitter = 0.5;
    }
  in
  let f = Alcotest.(check (float 1e-9)) in
  f "first retry at the base" 0.05 (Client.backoff_delay p ~u:0. ~attempt:0);
  f "doubles" 0.1 (Client.backoff_delay p ~u:0. ~attempt:1);
  f "caps at max" 1.0 (Client.backoff_delay p ~u:0. ~attempt:10);
  f "full jitter halves" 0.5 (Client.backoff_delay p ~u:1. ~attempt:10);
  (* Huge attempt numbers must not overflow the shift. *)
  f "no overflow" 1.0 (Client.backoff_delay p ~u:0. ~attempt:1000);
  for attempt = 0 to 8 do
    let d = Client.backoff_delay p ~u:0.3 ~attempt in
    Alcotest.(check bool) "within [0, max]" true (d >= 0. && d <= 1.0)
  done;
  (* Full jitter (jitter = 1, u = 1) can no longer collapse the delay
     to zero: the floor is 10% of the base. Before the fix this was a
     hot retry loop against an already-struggling server. *)
  let full = { p with Client.jitter = 1.0 } in
  f "jitter floor at 10% of base" 0.005
    (Client.backoff_delay full ~u:1. ~attempt:0);
  f "floor clamped to the cap"
    (Float.min 1.0 (0.1 *. full.Client.base_backoff_s))
    (Client.backoff_delay full ~u:1. ~attempt:6)

(* Property: over arbitrary (sane) policies, every delay respects the
   anti-hot-loop floor — at least 10% of the base backoff (clamped to
   the cap), so full jitter cannot collapse a retry to ~0 s against an
   overloaded shard — and never exceeds the configured cap. *)
let prop_backoff_positive_and_capped =
  QCheck2.Test.make ~name:"backoff delays strictly positive and capped"
    ~count:1000
    ~print:(fun (base, max_s, jitter, u, attempt) ->
      Printf.sprintf "base=%g max=%g jitter=%g u=%g attempt=%d" base max_s
        jitter u attempt)
    QCheck2.Gen.(
      map
        (fun ((base, max_s), (jitter, u), attempt) ->
          (base, max_s, jitter, u, attempt))
        (triple
           (pair (float_range 1e-4 2.) (float_range 1e-4 10.))
           (pair (float_range 0. 1.) (float_range 0. 1.))
           (int_range 0 1000)))
    (fun (base, max_s, jitter, u, attempt) ->
      let p =
        {
          Client.attempts = 5;
          base_backoff_s = base;
          max_backoff_s = max_s;
          jitter;
        }
      in
      let d = Client.backoff_delay p ~u ~attempt in
      d >= Float.min max_s (0.1 *. base) && d <= max_s)

let suite =
  [
    Alcotest.test_case "wedged worker yields timeout within deadline" `Slow
      test_wedged_worker_times_out;
    Alcotest.test_case "delayed handler recovered by request-timeout retry"
      `Slow test_delay_fault_retried;
    Alcotest.test_case "torn frame recovered by retry" `Slow
      test_torn_frame_retried;
    Alcotest.test_case "dropped connection recovered by retry" `Slow
      test_dropped_connection_retried;
    Alcotest.test_case "timeout frames are not retried" `Slow
      test_timeout_frame_not_retried;
    Alcotest.test_case "fault slot budget and disarm" `Quick
      test_fault_slot_budget;
    Alcotest.test_case "fault spec parsing" `Quick test_fault_spec_parsing;
    Alcotest.test_case "backoff delay is pure and bounded" `Quick
      test_backoff_delay;
    QCheck_alcotest.to_alcotest prop_backoff_positive_and_capped;
  ]
  @ hardening_suite
