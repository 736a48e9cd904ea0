(** Fault injection for chaos-testing the serving stack.

    A [t] is a shared, thread-safe fault slot: tests (or the hidden
    [--inject-fault] CLI flag) arm it with one fault kind and a firing
    budget; the server consumes firings at the matching injection point.
    An unarmed slot costs one mutex round-trip per check and injects
    nothing, so a default server config behaves exactly as if the module
    did not exist.

    Each kind fires at a specific point in the request path:
    - [Delay_handler d] — the connection thread sleeps [d] seconds
      before dispatching a decoded frame (a slow server; exercises
      client request timeouts and retries);
    - [Wedge_worker d] — the worker domain sleeps [d] seconds before
      running the scenario (a stuck computation; exercises the
      per-request compute deadline and [Protocol.Timeout]);
    - [Torn_frame] — the server writes only half of a response frame
      and drops the connection (exercises client decode-error retry);
    - [Drop_connection] — the server closes the connection instead of
      replying (exercises client reconnect). *)

type kind =
  | Delay_handler of float
  | Wedge_worker of float
  | Torn_frame
  | Drop_connection

val kind_name : kind -> string
(** ["delay"] / ["wedge"] / ["torn"] / ["drop"] (argument elided). *)

type t

val create : unit -> t
(** An unarmed slot. *)

val arm : ?times:int -> t -> kind -> unit
(** Arm [kind] for the next [times] (default 1) matching injection
    points; replaces any previously armed fault. Raises
    [Invalid_argument] on [times < 1] or a negative or non-finite delay
    (an infinite wedge could never drain at shutdown). *)

val disarm : t -> unit

val take_matching : t -> (kind -> 'a option) -> 'a option
(** [take_matching t f] consumes one firing iff a fault is armed, has
    budget left and [f kind] is [Some _] — returning that value — and
    [None] otherwise (leaving the budget untouched, so a non-matching
    injection point never burns a firing). Thread-safe. The consumer
    counts the firings it takes ({!Server}'s [faults_injected]). *)

val of_spec : string -> (kind * int, string) result
(** Parse a CLI fault spec: [KIND[:ARG][:TIMES]] —
    ["delay:0.5"], ["wedge:2:3"] (wedge 2 s, 3 firings), ["torn"],
    ["drop:*:5"] (["*"] keeps the default argument slot empty). [delay]
    and [wedge] require a finite non-negative seconds argument; [TIMES]
    must be a positive integer. Violations produce a descriptive
    [Error] naming the offending token and the constraint. *)
