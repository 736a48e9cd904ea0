module Scenario = Ptg_sim.Scenario
module Checkpoint = Ptg_sim.Checkpoint
module Registry = Ptg_obs.Registry
module Trace = Ptg_obs.Trace
module Clock = Ptg_util.Clock

type addr = Listener.addr = Unix_socket of string | Tcp of int

type config = {
  addr : addr;
  workers : int;
  high_water : int;
  cache_capacity : int;
  cache_bytes : int option;
  deadline_s : float;
  slices : int;
  idle_timeout_s : float;
  max_conns : int;
  drain_deadline_s : float;
  snapshot_dir : string option;
  snapshot_every : int option;
  obs : Ptg_obs.Sink.t option;
  handler :
    (progress:(done_count:int -> total:int -> unit) ->
    should_stop:(unit -> bool) ->
    Scenario.t ->
    Checkpoint.served)
    option;
  faults : Faults.t;
}

let default_high_water workers = max 4 (2 * workers)

let default_config addr =
  let workers = Ptg_util.Pool.default_jobs () in
  {
    addr;
    workers;
    high_water = default_high_water workers;
    cache_capacity = 64;
    cache_bytes = None;
    deadline_s = 30.;
    slices = 0;
    idle_timeout_s = 60.;
    max_conns = 256;
    drain_deadline_s = 5.;
    snapshot_dir = None;
    snapshot_every = None;
    obs = None;
    handler = None;
    faults = Faults.create ();
  }

(* One registry counter per event, in the sink's registry when there is
   one and in a private registry otherwise; the [stats] payload reads the
   same counters. Handles are resolved once at startup (the registry
   contract); every update happens under the server mutex, which also
   makes a shared sink safe across connection threads and worker
   domains. *)
type counters = {
  served : Registry.counter;
  shed : Registry.counter;
  coalesced : Registry.counter;
  errors : Registry.counter;
  timeouts : Registry.counter;
  cancelled : Registry.counter;
  warm_starts : Registry.counter;
  sliced : Registry.counter;
  orphaned_stops : Registry.counter;
  faults : Registry.counter;
  pool_dropped : Registry.counter;
}

let make_counters reg =
  let c name = Registry.counter reg ("server_" ^ name ^ "_total") in
  {
    served = c "served";
    shed = c "shed";
    coalesced = c "coalesced";
    errors = c "errors";
    timeouts = c "timeouts";
    cancelled = c "cancelled";
    warm_starts = c "warm_starts";
    sliced = c "sliced";
    orphaned_stops = c "orphaned_stops";
    faults = c "faults_injected";
    pool_dropped = c "pool_dropped_exceptions";
  }

(* Histograms, gauges and trace events exist only with a sink. *)
type obs_metrics = {
  g_queue : Registry.gauge;
  g_drain : Registry.gauge;
  h_latency : Registry.histogram;
  trace : Trace.t;
}

let make_obs sink =
  let reg = Ptg_obs.Sink.registry sink in
  {
    g_queue = Registry.gauge reg "server_queue_depth";
    g_drain = Registry.gauge reg "server_drain_duration_us";
    h_latency =
      Registry.histogram reg
        ~buckets:[| 100.; 1_000.; 10_000.; 100_000.; 1_000_000.; 10_000_000. |]
        "server_request_latency_us";
    trace = Ptg_obs.Sink.trace sink;
  }

(* One in-flight computation. [p_interest] counts the waiters still
   wanting the result; the worker's [should_stop] turns true when it
   reaches zero (every waiter cancelled or expired), which lets a
   checkpointed run stop at its next chunk boundary instead of burning
   the worker to completion for nobody. [p_done]/[p_total] carry the
   computation's progress for streaming waiters.

   [p_yield] is the deadline-slice handshake: a waiter whose compute
   deadline ran out (with slice budget left) arms it instead of
   expiring, the worker sees it through [should_stop], persists its
   deepest checkpoint and returns [Stopped], and the scheduler requeues
   the remainder — the fresh job warm-starts from that checkpoint.
   [p_slices] counts requeues consumed, bounded by [config.slices]. *)
type pending = {
  mutable outcome : (string, string) result option;
  mutable p_done : int;
  mutable p_total : int;
  mutable p_interest : int;
  mutable p_yield : bool;
  mutable p_slices : int;
}

(* One waiter attached to a pending computation; registered in
   [cancel_tbl] under its request id when cancellable (v2 + id). *)
type waiter = {
  w_hash : string;
  w_pending : pending;
  mutable w_cancelled : bool;
  mutable w_detached : bool;  (* interest already released *)
}

type t = {
  config : config;
  handler :
    progress:(done_count:int -> total:int -> unit) ->
    should_stop:(unit -> bool) ->
    Scenario.t ->
    Checkpoint.served;
  listener : Listener.t;
  service : Ptg_util.Pool.Service.t;
  mutex : Mutex.t;            (* also guards the listener's state *)
  done_cond : Condition.t;    (* a pending computation finished *)
  cache : Lru.t;
  pending_tbl : (string, pending) Hashtbl.t;
  cancel_tbl : (string, waiter) Hashtbl.t;
  mutable inflight : int;
  mutable aborting : bool;    (* forced drain: expire every waiter now *)
  counts : counters;
  obs_m : obs_metrics option;
}

let listen_addr t = Listener.bound t.listener

(* ------------------------------------------------------------------ *)
(* Stats (also the [stats] op payload), merged and sorted by Listener  *)
(* ------------------------------------------------------------------ *)

let stats_locked t =
  let n = float_of_int and c r = float_of_int (Registry.counter_value r) in
  let k = t.counts in
  [
    ("cache_bytes", n (Lru.bytes t.cache));
    ("cache_entries", n (Lru.length t.cache));
    ("cache_evictions", n (Lru.evictions t.cache));
    ("cache_hits", n (Lru.hits t.cache));
    ("cache_misses", n (Lru.misses t.cache));
    ("cancelled", c k.cancelled);
    ("coalesced", c k.coalesced);
    ("errors", c k.errors);
    ("faults_injected", c k.faults);
    ("high_water", n t.config.high_water);
    ("inflight", n t.inflight);
    ("max_conns", n t.config.max_conns);
    ("orphaned_stops", c k.orphaned_stops);
    ("pending", n (Hashtbl.length t.pending_tbl));
    ("pool_dropped", c k.pool_dropped);
    ("served", c k.served);
    ("shed", c k.shed);
    ("sliced", c k.sliced);
    ("timeouts", c k.timeouts);
    ("warm_starts", c k.warm_starts);
    ("workers", n t.config.workers);
  ]

let stats t = Listener.stats t.listener

(* ------------------------------------------------------------------ *)
(* Request scheduling                                                  *)
(* ------------------------------------------------------------------ *)

let set_queue_gauge t =
  match t.obs_m with
  | Some m -> Registry.set_gauge m.g_queue (float_of_int t.inflight)
  | None -> ()

(* A fault firing, counted under the mutex when consumed. *)
let take_fault t f =
  let hit = Faults.take_matching t.config.faults f in
  if hit <> None then begin
    Mutex.lock t.mutex;
    Registry.incr t.counts.faults;
    Mutex.unlock t.mutex
  end;
  hit

type wait_outcome =
  | Done of (string, string) result
  | Expired
  | Was_cancelled
  | Conn_lost of exn  (* a progress write failed: the peer is gone *)

(* Called with the mutex held; releases it while waiting and while
   writing progress frames (socket writes can block). Wakeups come from
   job completion/progress broadcasts and from the listener's ticker,
   which bounds how late a deadline expiry is noticed.

   [sliceable] (forced on expiry) requests whose deadline runs out with slice budget left
   do not expire: the waiter arms [p_yield] (the worker checkpoints and
   the scheduler requeues the remainder) and grants itself one more
   deadline window per slice. Once the pending entry has consumed
   [config.slices] requeues the next expiry is final.

   No progress frame says [done = total]: that says only "finished",
   and the terminal frame that follows says it. *)
let await_locked t p w ~deadline ~sliceable ~on_progress =
  let deadline = ref deadline in
  let last = ref (0, 0) in
  let rec go () =
    let fresh_progress =
      match on_progress with
      | Some _
        when p.outcome = None && p.p_done < p.p_total && (p.p_done, p.p_total) <> !last
        ->
          Some (p.p_done, p.p_total)
      | _ -> None
    in
    match (fresh_progress, on_progress) with
    | Some ((done_count, total) as snap), Some f -> (
        last := snap;
        Mutex.unlock t.mutex;
        match f ~done_count ~total with
        | () ->
            Mutex.lock t.mutex;
            go ()
        | exception e ->
            Mutex.lock t.mutex;
            Conn_lost e)
    | _ -> (
        match p.outcome with
        | Some r -> Done r
        | None when w.w_cancelled -> Was_cancelled
        | None ->
            if t.aborting then Expired
            else if Clock.now_ns () >= !deadline then
              if t.config.slices > 0 && p.p_slices < t.config.slices
                 && Lazy.force sliceable
              then begin
                p.p_yield <- true;
                deadline := Clock.ns_after (Clock.now_ns ()) t.config.deadline_s;
                Condition.wait t.done_cond t.mutex;
                go ()
              end
              else Expired
            else begin
              Condition.wait t.done_cond t.mutex;
              go ()
            end)
  in
  go ()

(* Remove [hash]'s pending entry only if it is still [p]: a timed-out
   waiter may already have unhooked it and a newer identical request
   re-registered — that newer entry must survive. *)
let unhook_locked t hash p =
  match Hashtbl.find_opt t.pending_tbl hash with
  | Some q when q == p -> Hashtbl.remove t.pending_tbl hash
  | _ -> ()

(* Release a waiter's interest in its computation, once. *)
let release_locked w =
  if not w.w_detached then begin
    w.w_detached <- true;
    w.w_pending.p_interest <- w.w_pending.p_interest - 1
  end

type job_result = Finished of string * int option | Stopped | Failed of string

let rec submit_job t hash scenario p =
  Ptg_util.Pool.Service.submit t.service (fun () ->
      Option.iter Thread.delay
        (take_fault t (function Faults.Wedge_worker d -> Some d | _ -> None));
      let progress ~done_count ~total =
        Mutex.lock t.mutex;
        p.p_done <- done_count;
        p.p_total <- total;
        Condition.broadcast t.done_cond;
        Mutex.unlock t.mutex
      in
      let should_stop () =
        Mutex.lock t.mutex;
        let s = t.aborting || p.p_yield || p.p_interest <= 0 in
        Mutex.unlock t.mutex;
        s
      in
      let result =
        try
          let served = t.handler ~progress ~should_stop scenario in
          match served.Checkpoint.text with
          | Some rendered -> Finished (rendered, served.Checkpoint.resumed_from)
          | None -> Stopped
        with e -> Failed (Printexc.to_string e)
      in
      Mutex.lock t.mutex;
      let requeued =
        match result with
        | Stopped when p.p_yield && p.p_interest > 0 && not t.aborting ->
            (* Deadline slice: the worker checkpointed and yielded while
               waiters remain. Requeue the remainder — the fresh job
               warm-starts from the checkpoint just persisted. The
               in-flight slot stays charged; the pending entry stays
               hooked so identical requests keep coalescing. *)
            p.p_yield <- false;
            p.p_slices <- p.p_slices + 1;
            Registry.incr t.counts.sliced;
            submit_job t hash scenario p;
            true
        | _ -> false
      in
      if not requeued then begin
        (match result with
        | Finished (rendered, resumed_from) ->
            Lru.put t.cache hash rendered;
            if resumed_from <> None then Registry.incr t.counts.warm_starts;
            p.outcome <- Some (Ok rendered)
        | Stopped ->
            (* Abandoned (cancelled, expired or draining) and stopped at
               a checkpoint boundary: nothing to cache, nobody to count
               an error for — the store holds the prefix for a retry. An
               orphan (zero waiters, no requeue pending, not draining)
               is counted: it proves abandoned compute stops early
               instead of burning the worker to completion. *)
            if p.p_interest <= 0 && not t.aborting then
              Registry.incr t.counts.orphaned_stops;
            p.outcome <- Some (Error "cancelled")
        | Failed msg ->
            Registry.incr t.counts.errors;
            p.outcome <- Some (Error msg));
        unhook_locked t hash p;
        t.inflight <- t.inflight - 1;
        set_queue_gauge t
      end;
      Condition.broadcast t.done_cond;
      Mutex.unlock t.mutex)

(* The response for one [run] frame. Holds the mutex only around
   scheduler-state transitions (and while blocked in a condvar wait).
   [cancel_id] registers this waiter for [cancel] frames; [on_progress]
   streams progress frames to the peer between wakeups. *)
let handle_run t ?on_progress ?cancel_id scenario =
  (* [jobs] is a hint the hash ignores: no request makes a worker spawn
     more domains than the host recommends (a process has at most 128). *)
  let jobs = min scenario.Scenario.jobs (Ptg_util.Pool.default_jobs ()) in
  let scenario = { scenario with Scenario.jobs } in
  let hash64 = Scenario.hash64 scenario in
  let hash = Ptg_util.Bits.to_hex hash64 in
  (* Building the plan is only worth it once a deadline expires. *)
  let sliceable = lazy (Checkpoint.sliceable scenario) in
  let t0 = Clock.now_ns () in
  let deadline = Clock.ns_after t0 t.config.deadline_s in
  Mutex.lock t.mutex;
  (* Wait on [p] as one more interested waiter. On expiry, unhook so a
     later identical request recomputes instead of coalescing onto the
     zombie. The in-flight slot stays charged: the worker really is still
     busy, and it releases the slot itself (stopping early at its next
     checkpoint boundary once no interest remains). *)
  let wait_on p =
    p.p_interest <- p.p_interest + 1;
    let w =
      { w_hash = hash; w_pending = p; w_cancelled = false; w_detached = false }
    in
    Option.iter (fun id -> Hashtbl.replace t.cancel_tbl id w) cancel_id;
    let r = await_locked t p w ~deadline ~sliceable ~on_progress in
    Option.iter
      (fun id ->
        match Hashtbl.find_opt t.cancel_tbl id with
        | Some w' when w' == w -> Hashtbl.remove t.cancel_tbl id
        | _ -> ())
      cancel_id;
    release_locked w;
    (match r with
    | Expired | Conn_lost _ -> unhook_locked t hash p
    | _ -> ());
    r
  in
  let disposition, outcome =
    match Lru.find t.cache hash with
    | Some rendered -> (Some Protocol.Hit, Done (Ok rendered))
    | None -> (
        match Hashtbl.find_opt t.pending_tbl hash with
        | Some p ->
            Registry.incr t.counts.coalesced;
            (Some Protocol.Coalesced, wait_on p)
        | None ->
            if t.inflight >= t.config.high_water then begin
              Registry.incr t.counts.shed;
              (None, Done (Error "overloaded"))
            end
            else begin
              let p =
                {
                  outcome = None;
                  p_done = 0;
                  p_total = 0;
                  p_interest = 0;
                  p_yield = false;
                  p_slices = 0;
                }
              in
              Hashtbl.replace t.pending_tbl hash p;
              t.inflight <- t.inflight + 1;
              set_queue_gauge t;
              submit_job t hash scenario p;
              (Some Protocol.Miss, wait_on p)
            end)
  in
  match outcome with
  | Conn_lost e ->
      (* The peer vanished mid-stream: interest is released and the
         pending entry unhooked above; let the connection unwind. *)
      Mutex.unlock t.mutex;
      raise e
  | _ ->
      let response =
        match (disposition, outcome) with
        | Some cache, Done (Ok result) ->
            Registry.incr t.counts.served;
            Protocol.Result { cache; hash; result }
        | None, _ -> Protocol.Overloaded
        | Some _, Done (Error msg) -> Protocol.Error_reply msg
        | Some _, Was_cancelled ->
            Registry.incr t.counts.cancelled;
            Protocol.Cancelled
        | Some _, (Expired | Conn_lost _) ->
            Registry.incr t.counts.timeouts;
            Protocol.Timeout
      in
      (match t.obs_m with
      | None -> ()
      | Some m ->
          Registry.observe m.h_latency (Clock.elapsed_us t0);
          let status, cache =
            match response with
            | Protocol.Result { cache; _ } ->
                ("ok", Protocol.cache_disposition_name cache)
            | Protocol.Overloaded -> ("overloaded", "")
            | Protocol.Timeout -> ("timeout", "")
            | Protocol.Cancelled -> ("cancelled", "")
            | _ -> ("error", "")
          in
          Trace.record m.trace
            (Trace.Server_request { hash = hash64; status; cache }));
      Mutex.unlock t.mutex;
      response

(* A [cancel] frame: flip the target waiter, release its interest, and
   wake everyone. Acked with the generic ok frame; an id naming nothing
   in flight (never registered, already finished, or v1) is an error. *)
let handle_cancel t target =
  Mutex.lock t.mutex;
  let response =
    match Hashtbl.find_opt t.cancel_tbl target with
    | None ->
        Protocol.Error_reply
          (Printf.sprintf "cancel: no in-flight request with id \"%s\"" target)
    | Some w ->
        Hashtbl.remove t.cancel_tbl target;
        w.w_cancelled <- true;
        release_locked w;
        (* Nobody is waiting any more: unhook so identical retries
           recompute (warm-starting from whatever was checkpointed)
           rather than coalescing onto the dying computation. *)
        if w.w_pending.p_interest <= 0 then unhook_locked t w.w_hash w.w_pending;
        Condition.broadcast t.done_cond;
        Protocol.Pong
  in
  Mutex.unlock t.mutex;
  response

(* ------------------------------------------------------------------ *)
(* The front end the listener drives                                   *)
(* ------------------------------------------------------------------ *)

(* An undecodable or over-long frame, or a crashed connection. *)
let record_error_locked t =
  Registry.incr t.counts.errors;
  Option.iter
    (fun m ->
      Trace.record m.trace (Trace.Server_request { hash = 0L; status = "error"; cache = "" }))
    t.obs_m

(* Two of the three connection fault points: a stalled handler and a
   dropped connection, before any frame is answered. *)
let admit t () =
  Option.iter Thread.delay
    (take_fault t (function Faults.Delay_handler d -> Some d | _ -> None));
  take_fault t (function Faults.Drop_connection -> Some () | _ -> None) = None

(* One [run] or [cancel] frame; the third fault point tears the result
   frame and hangs up. *)
let dispatch t conn { Protocol.id; v } = function
  | Listener.Cancel target ->
      Listener.send conn (Protocol.encode_response ?id ~v (handle_cancel t target));
      true
  | Listener.Run { scenario; stream } ->
      (* Only v2 requests with an id are cancellable: a v1 waiter could
         not be answered with the [cancelled] status its cancellation
         produces. *)
      let cancel_id = if v >= 2 then id else None in
      let on_progress =
        if stream then
          Some
            (fun ~done_count ~total ->
              Listener.send conn
                (Protocol.encode_response ?id ~v (Protocol.Progress { done_count; total })))
        else None
      in
      let frame =
        Protocol.encode_response ?id ~v (handle_run t ?on_progress ?cancel_id scenario)
      in
      let torn = take_fault t (function Faults.Torn_frame -> Some () | _ -> None) <> None in
      (if torn then Listener.send_torn else Listener.send) conn frame;
      not torn

let frontend t =
  {
    Listener.admit = admit t;
    open_session = (fun conn -> { Listener.dispatch = dispatch t conn; close = ignore });
    stats_locked = (fun () -> stats_locked t);
    on_error_locked = (fun () -> record_error_locked t);
    on_tick_locked = (fun () -> Condition.broadcast t.done_cond);
    on_force_locked =
      (fun () ->
        (* Expire every compute wait; checkpointed computations notice
           [aborting] through [should_stop] and persist their position
           for a resume after restart. *)
        t.aborting <- true;
        Condition.broadcast t.done_cond);
    on_drained =
      (fun ~drain_us ->
        (* Workers the pool shutdown must wait for should stop early
           rather than compute for closed connections. *)
        Mutex.lock t.mutex;
        t.aborting <- true;
        Option.iter (fun m -> Registry.set_gauge m.g_drain drain_us) t.obs_m;
        Mutex.unlock t.mutex;
        Ptg_util.Pool.Service.shutdown t.service);
  }

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start config =
  let check ok field = if not ok then invalid_arg ("Server.start: " ^ field) in
  check (config.workers >= 1) "workers";
  check (config.high_water >= 1) "high_water";
  check (config.cache_capacity >= 1) "cache_capacity";
  check (Option.fold ~none:true ~some:(fun b -> b >= 1) config.cache_bytes) "cache_bytes";
  check (config.deadline_s > 0.) "deadline_s";
  check (config.slices >= 0) "slices";
  check (Option.fold ~none:true ~some:(fun n -> n >= 1) config.snapshot_every) "snapshot_every";
  let mutex = Mutex.create () in
  let registry =
    match config.obs with Some sink -> Ptg_obs.Sink.registry sink | None -> Registry.create ()
  in
  let listener =
    Listener.create ~name:"server" ~mutex ~registry
      {
        Listener.addr = config.addr;
        idle_timeout_s = config.idle_timeout_s;
        max_conns = config.max_conns;
        drain_deadline_s = config.drain_deadline_s;
      }
  in
  (* The pool is created before the server record exists, so its drop
     hook goes through a cell filled in just below. *)
  let drop_hook = ref (fun (_ : exn) -> ()) in
  let t =
    {
      config;
      handler =
        (match config.handler with
        | Some h -> h
        | None ->
            (* The warm-start-aware path: with [snapshot_dir],
               checkpointable scenarios resume from stored prefixes,
               report progress, and stop early when abandoned. *)
            fun ~progress ~should_stop scenario ->
              Checkpoint.run_scenario ?dir:config.snapshot_dir
                ?every:config.snapshot_every ~should_stop ~progress scenario);
      listener;
      service =
        Ptg_util.Pool.Service.create ~workers:config.workers
          ~on_drop:(fun e -> !drop_hook e) ();
      mutex;
      done_cond = Condition.create ();
      cache =
        Lru.counted
          {
            Lru.hits = Registry.counter registry "server_cache_hits_total";
            misses = Registry.counter registry "server_cache_misses_total";
            evictions = Registry.counter registry "server_cache_evictions_total";
          }
          ?max_bytes:config.cache_bytes ~capacity:config.cache_capacity ();
      pending_tbl = Hashtbl.create 64;
      cancel_tbl = Hashtbl.create 16;
      inflight = 0;
      aborting = false;
      counts = make_counters registry;
      obs_m = Option.map make_obs config.obs;
    }
  in
  (drop_hook :=
     fun _e ->
       Mutex.lock t.mutex;
       Registry.incr t.counts.pool_dropped;
       Mutex.unlock t.mutex);
  Listener.serve listener (frontend t);
  t

let stop t = Listener.stop t.listener
let wait t = Listener.wait t.listener
