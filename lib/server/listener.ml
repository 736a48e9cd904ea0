module Registry = Ptg_obs.Registry
module Clock = Ptg_util.Clock

type addr = Unix_socket of string | Tcp of int

exception Bind_error of string

type config = {
  addr : addr;
  idle_timeout_s : float;
  max_conns : int;
  drain_deadline_s : float;
}

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  buf : Bytes.t;  (* read buffer; bytes [start, stop) are unread *)
  mutable start : int;
  mutable stop : int;
}

let send c frame =
  output_string c.oc frame;
  output_char c.oc '\n';
  flush c.oc

let send_torn c frame =
  output_string c.oc (String.sub frame 0 (String.length frame / 2));
  flush c.oc

type work = Run of { scenario : Ptg_sim.Scenario.t; stream : bool } | Cancel of string
type session = { dispatch : Protocol.meta -> work -> bool; close : unit -> unit }

type frontend = {
  admit : unit -> bool;
  open_session : conn -> session;
  stats_locked : unit -> (string * float) list;
  on_error_locked : unit -> unit;
  on_tick_locked : unit -> unit;
  on_force_locked : unit -> unit;
  on_drained : drain_us:float -> unit;
}

type t = {
  config : config;
  mutex : Mutex.t;  (* the front end's *)
  drained : Condition.t;  (* connection-count / stopping transitions *)
  listen_fd : Unix.file_descr;
  bound : addr;
  pipe_r : Unix.file_descr;  (* self-pipe: wakes the accept loop on stop *)
  pipe_w : Unix.file_descr;
  conn_fds : (Unix.file_descr, unit) Hashtbl.t;
  mutable fe : frontend option;
  mutable conns : int;
  mutable stopping : bool;
  mutable finalized : bool;
  mutable accept_thread : Thread.t option;
  mutable ticker_thread : Thread.t option;
  conn_shed : Registry.counter;
  accept_errors : Registry.counter;
  idle_closed : Registry.counter;
}

let bound t = t.bound

let locked t f =
  Mutex.lock t.mutex;
  let r = f () in
  Mutex.unlock t.mutex;
  r

let stats t =
  let c r = float_of_int (Registry.counter_value r) in
  locked t (fun () ->
      List.sort compare
        (("accept_errors", c t.accept_errors)
        :: ("conn_shed", c t.conn_shed)
        :: ("conns", float_of_int t.conns)
        :: ("idle_closed", c t.idle_closed)
        :: Option.fold ~none:[] ~some:(fun fe -> fe.stats_locked ()) t.fe))

(* ------------------------------------------------------------------ *)
(* Binding                                                             *)
(* ------------------------------------------------------------------ *)

let bind_error addr cause =
  let where =
    match addr with
    | Unix_socket path -> "unix socket " ^ path
    | Tcp port -> Printf.sprintf "127.0.0.1:%d" port
  in
  Bind_error (Printf.sprintf "cannot listen on %s: %s" where cause)

let sockaddr = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))

(* Every frame is its own flush, and a streamed run sends a progress
   frame and then its result as two small writes. Under Nagle's
   algorithm the result waits for the progress frame's ACK, which a peer
   that sends nothing back delays by about 40 ms. No frame gains from
   coalescing, so every TCP socket of the tier turns Nagle off; the
   option does not apply to Unix-domain sockets. *)
let skip_nagle domain fd =
  if domain = Unix.PF_INET then
    try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* Only a socket left behind by a dead server is replaced; any other file
   at the path is the caller's mistake, and its data stays put. *)
let open_listener addr =
  try
    (match addr with
    | Unix_socket path -> (
        match (Unix.lstat path).Unix.st_kind with
        | Unix.S_SOCK -> Unix.unlink path
        | kind ->
            let what = if kind = Unix.S_DIR then "a directory" else "a non-socket file" in
            raise (bind_error addr (what ^ " is in the way; refusing to replace it"))
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
    | Tcp _ -> ());
    let domain, sockaddr = sockaddr addr in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    try
      if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd sockaddr;
      Unix.listen fd 64;
      (fd, match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> Tcp p | _ -> addr)
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with Unix.Unix_error (err, _, _) -> raise (bind_error addr (Unix.error_message err))

let create ~name ~mutex ~registry config =
  let check ok field =
    if not ok then invalid_arg (String.capitalize_ascii name ^ ".start: " ^ field)
  in
  check (config.idle_timeout_s >= 0.) "idle_timeout_s";
  check (config.max_conns >= 1) "max_conns";
  check (config.drain_deadline_s >= 0.) "drain_deadline_s";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, bound = open_listener config.addr in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  let counter suffix = Registry.counter registry (name ^ suffix) in
  {
    config;
    mutex;
    drained = Condition.create ();
    listen_fd;
    bound;
    pipe_r;
    pipe_w;
    conn_fds = Hashtbl.create 64;
    fe = None;
    conns = 0;
    stopping = false;
    finalized = false;
    accept_thread = None;
    ticker_thread = None;
    conn_shed = counter "_conns_shed_total";
    accept_errors = counter "_accept_errors_total";
    idle_closed = counter "_conns_idle_closed_total";
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let initiate_stop t =
  locked t (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        (try ignore (Unix.write t.pipe_w (Bytes.make 1 'x') 0 1)
         with Unix.Unix_error _ -> ());
        Condition.broadcast t.drained
      end)

type frame = Frame of string | Too_long | Eof

let rec index_newline buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else index_newline buf (i + 1) stop

(* The next newline-terminated frame, read a buffer at a time. [parts]
   holds the frame's earlier pieces (newest first) and [size] their
   length, which never exceeds [Protocol.max_frame_bytes]: a peer that
   never sends a newline costs at most one frame of memory. Like
   [input_line], a final unterminated frame is returned at EOF. *)
let rec read_frame c parts size =
  let nl = index_newline c.buf c.start c.stop in
  let n = (if nl >= 0 then nl else c.stop) - c.start in
  if size + n > Protocol.max_frame_bytes then Too_long
  else
    let piece = Bytes.sub_string c.buf c.start n in
    let whole () = String.concat "" (List.rev (piece :: parts)) in
    if nl >= 0 then begin
      c.start <- nl + 1;
      Frame (if parts = [] then piece else whole ())
    end
    else begin
      c.start <- 0;
      c.stop <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
      if c.stop > 0 then read_frame c (piece :: parts) (size + n)
      else if size + n = 0 then Eof
      else Frame (whole ())
    end

let handle_conn t fe fd =
  (* Read/write timeouts bound how long a slow or hung peer can hold
     this thread: an idle socket times the blocked read out, and a peer
     that stops reading times our blocked write out. 0 disables. *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.idle_timeout_s
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  skip_nagle (fst (sockaddr t.bound)) fd;
  let c =
    { fd; oc = Unix.out_channel_of_descr fd; buf = Bytes.create 65536; start = 0; stop = 0 }
  in
  let session = fe.open_session c in
  let reply ?id ?v response = send c (Protocol.encode_response ?id ?v response) in
  let rec loop () =
    let read_t0 = Clock.now_ns () in
    match read_frame c [] 0 with
    | exception Unix.Unix_error _ ->
        (* SO_RCVTIMEO expiry surfaces as EAGAIN; classify by how long
           the read blocked so idle closes are counted apart from peer
           resets. *)
        if
          t.config.idle_timeout_s > 0.
          && Clock.elapsed_s read_t0 >= 0.9 *. t.config.idle_timeout_s
        then
          locked t (fun () -> Registry.incr t.idle_closed)
    | Eof -> ()
    | Too_long ->
        locked t fe.on_error_locked;
        reply
          (Protocol.Error_reply
             (Printf.sprintf "frame exceeds %d bytes without a newline"
                Protocol.max_frame_bytes))
    | Frame line ->
        let continue =
          match Protocol.decode_request line with
          | Error msg ->
              locked t fe.on_error_locked;
              reply (Protocol.Error_reply msg);
              true
          | Ok (({ Protocol.id; v } as meta), req) -> (
              fe.admit ()
              &&
              match req with
              | Protocol.Ping ->
                  reply ?id ~v Protocol.Pong;
                  true
              | Protocol.Stats ->
                  reply ?id ~v (Protocol.Stats_reply (stats t));
                  true
              | Protocol.Shutdown ->
                  initiate_stop t;
                  reply ?id ~v Protocol.Pong;
                  false
              | Protocol.Hello client_max ->
                  reply ?id ~v (Protocol.Hello_reply (min client_max Protocol.max_version));
                  true
              | Protocol.Run scenario -> session.dispatch meta (Run { scenario; stream = false })
              | Protocol.Run_stream scenario ->
                  session.dispatch meta (Run { scenario; stream = true })
              | Protocol.Cancel target -> session.dispatch meta (Cancel target))
        in
        if continue then loop ()
  in
  (try loop () with
  | End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ()
  | _ -> locked t fe.on_error_locked (* counted, never silent *));
  session.close ();
  locked t (fun () ->
      Hashtbl.remove t.conn_fds fd;
      t.conns <- t.conns - 1;
      Condition.broadcast t.drained);
  close_out_noerr c.oc (* flushes and closes the descriptor *)

(* Accepted but over the connection cap: tell the peer why (best effort,
   non-blocking — a hostile peer must not stall the accept loop) and
   hang up. *)
let shed_conn fd =
  (try
     Unix.set_nonblock fd;
     let frame = Protocol.encode_response Protocol.Overloaded ^ "\n" in
     ignore (Unix.write_substring fd frame 0 (String.length frame))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Transient fd exhaustion leaves listen_fd readable, so without a pause
   select+accept would busy-loop at 100% CPU until an fd frees up. *)
let accept_backoff_s = 0.05

let accept_loop t fe =
  let accept_error () = locked t (fun () -> Registry.incr t.accept_errors) in
  let rec loop () =
    match Unix.select [ t.listen_fd; t.pipe_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | readable, _, _ when List.mem t.pipe_r readable -> ()
    | _ ->
        (match Unix.accept ~cloexec:true t.listen_fd with
        | exception
            Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _)
          ->
            accept_error ();
            Thread.delay accept_backoff_s
        | exception Unix.Unix_error _ ->
            (* e.g. ECONNABORTED: the event was consumed, no spin. *)
            accept_error ()
        | fd, _ ->
            Mutex.lock t.mutex;
            let over = t.conns >= t.config.max_conns in
            if over then Registry.incr t.conn_shed
            else begin
              t.conns <- t.conns + 1;
              Hashtbl.replace t.conn_fds fd ()
            end;
            Mutex.unlock t.mutex;
            if over then shed_conn fd else ignore (Thread.create (handle_conn t fe) fd));
        loop ()
  in
  loop ()

(* Periodic broadcasts bound how late deadline-style waits (the drain
   deadline below, the front end's through [on_tick_locked]) notice that
   their clock ran out; completion events still wake them at once. *)
let tick_interval_s = 0.05

let ticker t fe =
  let rec loop () =
    Thread.delay tick_interval_s;
    Mutex.lock t.mutex;
    let stop = t.finalized in
    if not stop then begin
      fe.on_tick_locked ();
      Condition.broadcast t.drained
    end;
    Mutex.unlock t.mutex;
    if not stop then loop ()
  in
  loop ()

let serve t fe =
  t.fe <- Some fe;
  t.accept_thread <- Some (Thread.create (accept_loop t) fe);
  t.ticker_thread <- Some (Thread.create (ticker t) fe)

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)
(* ------------------------------------------------------------------ *)

let finalize t =
  (* Join the accept loop (woken by the self-pipe byte). *)
  Mutex.lock t.mutex;
  let acceptor = t.accept_thread in
  t.accept_thread <- None;
  Mutex.unlock t.mutex;
  Option.iter Thread.join acceptor;
  (* Nudge idle connections: half-close their read side so blocked reads
     see EOF. Done under the mutex so a connection thread cannot
     concurrently remove-and-close the same descriptor. In-flight
     requests get [drain_deadline_s] to finish; then the front end is
     told and the stragglers are force-closed. *)
  Mutex.lock t.mutex;
  let drain_t0 = Clock.now_ns () in
  let force_at = Clock.ns_after drain_t0 t.config.drain_deadline_s in
  let shutdown_all how =
    Hashtbl.iter (fun fd () -> try Unix.shutdown fd how with Unix.Unix_error _ -> ()) t.conn_fds
  in
  shutdown_all Unix.SHUTDOWN_RECEIVE;
  let forced = ref false in
  while t.conns > 0 do
    if (not !forced) && Clock.now_ns () >= force_at then begin
      forced := true;
      Option.iter (fun fe -> fe.on_force_locked ()) t.fe;
      shutdown_all Unix.SHUTDOWN_ALL
    end;
    Condition.wait t.drained t.mutex
  done;
  let drain_us = Clock.elapsed_us drain_t0 in
  let first = not t.finalized in
  t.finalized <- true;
  let tick = t.ticker_thread in
  t.ticker_thread <- None;
  Mutex.unlock t.mutex;
  Option.iter Thread.join tick;
  if first then begin
    Option.iter (fun fe -> fe.on_drained ~drain_us) t.fe;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.pipe_r; t.pipe_w ];
    match t.bound with
    | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()
  end

let stop t =
  initiate_stop t;
  finalize t

let wait t =
  locked t (fun () ->
      while not t.stopping do
        Condition.wait t.drained t.mutex
      done);
  finalize t
