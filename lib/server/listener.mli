(** The connection layer shared by {!Server} and {!Router}: one bind,
    accept, shed, read and drain path behind both front ends.

    A [Unix_socket] path is replaced only when it holds a socket (a
    stale one left by a dead server); any other file is refused and left
    untouched. Accepts beyond [max_conns] get a best-effort [overloaded]
    frame; EMFILE-class accept errors back off briefly. Each connection
    runs on its own thread with [idle_timeout_s] as its socket timeout.
    A frame longer than {!Protocol.max_frame_bytes} gets an error frame
    naming the limit and a hangup. [ping], [hello], [stats] and
    [shutdown] are answered here, [run] and [cancel] by the front end's
    {!session}. The listener's state is guarded by the front end's
    mutex. *)

type addr =
  | Unix_socket of string
  | Tcp of int  (** 127.0.0.1; port 0 binds an ephemeral port *)

exception Bind_error of string
(** Binding failed; the message names the address and the cause. *)

val sockaddr : addr -> Unix.socket_domain * Unix.sockaddr
(** What [addr] names, for binding here and connecting in {!Client}. *)

val skip_nagle : Unix.socket_domain -> Unix.file_descr -> unit
(** Set [TCP_NODELAY] on a [PF_INET] stream socket; a no-op for any
    other domain. Called on every accepted connection and by
    {!Client.connect}, so a result never waits behind a progress frame
    for the peer's delayed ACK. *)

type config = {
  addr : addr;
  idle_timeout_s : float;    (** socket read/write timeout; [0.] disables *)
  max_conns : int;           (** open connections before accept-time shed *)
  drain_deadline_s : float;  (** stop's grace before force-closing *)
}

type conn

val send : conn -> string -> unit
(** One frame and its newline, flushed. *)

val send_torn : conn -> string -> unit
(** The first half of a frame and no newline (fault injection). *)

type work = Run of { scenario : Ptg_sim.Scenario.t; stream : bool } | Cancel of string
type session = { dispatch : Protocol.meta -> work -> bool; close : unit -> unit }
(** One connection's front-end state; [dispatch] returning [false]
    hangs up. *)

(** What differs between front ends. [_locked] hooks run with the
    mutex held. *)
type frontend = {
  admit : unit -> bool;  (** before every decoded frame; [false] hangs up *)
  open_session : conn -> session;
  stats_locked : unit -> (string * float) list;  (** merged into {!stats} *)
  on_error_locked : unit -> unit;  (** undecodable/over-long frame, crash *)
  on_tick_locked : unit -> unit;  (** every 50 ms until stopped *)
  on_force_locked : unit -> unit;  (** the drain deadline passed *)
  on_drained : drain_us:float -> unit;  (** once, before the socket closes *)
}

type t

val create : name:string -> mutex:Mutex.t -> registry:Ptg_obs.Registry.t -> config -> t
(** Validate the limits ([Invalid_argument "Name.start: field"]) and
    bind (or raise {!Bind_error} with the socket closed). Shed
    connections, accept errors and idle closes are counted once, in
    [registry]'s [<name>_conns_shed_total], [<name>_accept_errors_total]
    and [<name>_conns_idle_closed_total] counters. *)

val serve : t -> frontend -> unit
(** Start accepting. *)

val bound : t -> addr
(** For [Tcp 0], the actual ephemeral port. *)

val stats : t -> (string * float) list
(** The front end's rows plus [accept_errors], [conn_shed] and
    [idle_closed] (the three counters above, read under their short
    names) and the open-connection count [conns], sorted by key; also
    the [stats] op payload. *)

val stop : t -> unit
(** Stop accepting, half-close every connection, force-close stragglers
    after [drain_deadline_s], close and unlink the socket. Idempotent. *)

val wait : t -> unit
(** Block until a [shutdown] frame or a concurrent {!stop}, then drain
    as {!stop}. *)
