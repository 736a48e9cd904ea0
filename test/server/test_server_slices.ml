(* Deadline-sliced serving: a request whose scenario outlives its
   compute window is checkpointed and requeued instead of timed out,
   until the final slice's bytes — identical to an uninterrupted run —
   reach the waiter. Also the orphaned-compute fix: a job whose every
   waiter has expired stops at its next chunk boundary instead of
   running to completion for nobody. The chaos case (a shard SIGKILLed
   mid-slice under swarm load, its request adopted by the ring
   successor over a shared warm-start store) runs in the chaos tier. *)

module Server = Ptg_server.Server
module Router = Ptg_server.Router
module Ring = Ptg_server.Ring
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario
module Clock = Ptg_util.Clock

(* Resolve the CLI binary from either cwd the suite runs under:
   `dune runtest` executes from _build/default/test/server, while
   check_all.sh's `dune exec test/server/test_server_main.exe` runs
   from the repo root. *)
let cli =
  let candidates =
    [
      Filename.concat
        (Filename.concat
           (Filename.concat Filename.parent_dir_name Filename.parent_dir_name)
           "bin")
        "ptguard_cli.exe";
      Filename.concat
        (Filename.concat (Filename.concat "_build" "default") "bin")
        "ptguard_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let with_server config f =
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let with_store f =
  let dir = Filename.temp_file "ptgslices" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let stat server key =
  match List.assoc_opt key (Server.stats server) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stat %s missing" key

let rstat router key =
  match List.assoc_opt key (Router.stats router) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "router stat %s missing" key

let metric sink key =
  match Ptg_obs.Registry.find (Ptg_obs.Sink.metrics sink) key with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing" key

let fullsys seed instrs = Scenario.make ~seed ~instrs Scenario.Fullsys

(* Host fullsys throughput, measured once from an uninterrupted
   20k-instruction run. Machine construction is included, which only
   errs towards longer scenarios below. *)
let fullsys_instrs_per_s =
  lazy
    (let n = 20_000 in
     let t0 = Clock.now_ns () in
     ignore (Scenario.run_to_string (fullsys 20L n));
     float_of_int n /. Clock.elapsed_s t0)

(* A fullsys scenario whose uninterrupted run lasts about [windows]
   compute windows of [deadline_s], so it overruns its deadline several
   times over however fast the simulator is (never below the 20k-
   instruction probe). Each window must comfortably exceed the per-slice
   machine construction, or a slice yields at instruction 0 and the run
   never advances. *)
let overrunning_instrs ~deadline_s ~windows =
  let instrs = Lazy.force fullsys_instrs_per_s *. deadline_s *. windows in
  max 20_000 (1000 * (1 + (int_of_float instrs / 1000)))

let overrunning_fullsys seed ~deadline_s ~windows =
  fullsys seed (overrunning_instrs ~deadline_s ~windows)

(* ------------------------------------------------------------------ *)
(* Orphaned compute stops (the bugfix regression)                      *)
(* ------------------------------------------------------------------ *)

let test_orphaned_job_stops () =
  (* 200 chunks x 50 ms = 10 s of fake compute; the only waiter gets a
     timeout after ~0.1 s. Pre-fix the job ran all 200 chunks with
     nobody waiting; now should_stop turns true as soon as the pending
     entry has zero waiters, so it must die within a chunk or two. *)
  let chunks = Atomic.make 0 in
  let stopped = Atomic.make false in
  let handler_ext ~progress ~should_stop _scenario =
    let i = ref 0 in
    while (not (should_stop ())) && !i < 200 do
      incr i;
      Atomic.set chunks !i;
      progress ~done_count:!i ~total:200;
      Thread.delay 0.05
    done;
    if should_stop () then begin
      Atomic.set stopped true;
      { Ptg_sim.Checkpoint.text = None; completed = false; resumed_from = None }
    end
    else
      { Ptg_sim.Checkpoint.text = Some "ran-dry"; completed = true;
        resumed_from = None }
  in
  let sink = Ptg_obs.Sink.create () in
  let config =
    {
      (Server.default_config (Server.Tcp 0)) with
      Server.workers = 1;
      high_water = 4;
      deadline_s = 0.1;
      handler = Some handler_ext;
      obs = Some sink;
    }
  in
  with_server config (fun server ->
      let addr = Server.listen_addr server in
      (match with_client addr (fun c -> Client.run c (Scenario.make Scenario.Fig8)) with
      | Ok Protocol.Timeout -> ()
      | Ok _ -> Alcotest.fail "expected a timeout frame"
      | Error e -> Alcotest.fail e);
      let at_timeout = Atomic.get chunks in
      (* The abandoned job notices within one chunk (plus slack for the
         chunk already in its delay). *)
      let deadline = Clock.ns_after (Clock.now_ns ()) 5.0 in
      while (not (Atomic.get stopped)) && Clock.now_ns () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "orphaned job stopped" true (Atomic.get stopped);
      Alcotest.(check bool) "stopped within a chunk of abandonment" true
        (Atomic.get chunks - at_timeout <= 2);
      Alcotest.(check int) "orphan counted" 1 (stat server "orphaned_stops");
      Alcotest.(check (float 0.)) "orphan counter exported" 1.
        (metric sink "server_orphaned_stops_total");
      Alcotest.(check int) "timeout counted" 1 (stat server "timeouts");
      Alcotest.(check int) "not an error" 0 (stat server "errors"))

(* ------------------------------------------------------------------ *)
(* Deadline slicing end to end                                         *)
(* ------------------------------------------------------------------ *)

let sliced_config ~dir ~sink ~slices ~deadline_s =
  {
    (Server.default_config (Server.Tcp 0)) with
    Server.workers = 1;
    high_water = 4;
    snapshot_dir = Some dir;
    snapshot_every = Some 500;
    deadline_s;
    slices;
    obs = Some sink;
  }

let test_sliced_run_byte_identical () =
  with_store (fun dir ->
      let scenario = overrunning_fullsys 21L ~deadline_s:0.5 ~windows:3. in
      let reference = Scenario.run_to_string scenario in
      let sink = Ptg_obs.Sink.create () in
      let config = sliced_config ~dir ~sink ~slices:100 ~deadline_s:0.5 in
      with_server config (fun server ->
          let addr = Server.listen_addr server in
          (* A plain v1 client: slicing is invisible to it except that
             the run takes several windows instead of timing out. *)
          (match with_client addr (fun c -> Client.run c scenario) with
          | Ok (Protocol.Result { cache = Protocol.Miss; result; _ }) ->
              Alcotest.(check string)
                "sliced run is byte-identical to an uninterrupted run"
                reference result
          | Ok Protocol.Timeout -> Alcotest.fail "sliced run timed out"
          | Ok _ -> Alcotest.fail "unexpected frame"
          | Error e -> Alcotest.fail e);
          Alcotest.(check bool) "deadline expiries were sliced" true
            (stat server "sliced" >= 1);
          Alcotest.(check (float 0.)) "slice counter exported"
            (float_of_int (stat server "sliced"))
            (metric sink "server_sliced_total");
          Alcotest.(check int) "no timeout frame" 0 (stat server "timeouts");
          Alcotest.(check int) "served once" 1 (stat server "served");
          Alcotest.(check int) "no orphan" 0 (stat server "orphaned_stops")))

let test_stream_progress_across_slices () =
  with_store (fun dir ->
      let scenario = overrunning_fullsys 22L ~deadline_s:0.5 ~windows:3. in
      let instrs = Option.get scenario.Scenario.instrs in
      let reference = Scenario.run_to_string scenario in
      let sink = Ptg_obs.Sink.create () in
      let config = sliced_config ~dir ~sink ~slices:100 ~deadline_s:0.5 in
      with_server config (fun server ->
          let addr = Server.listen_addr server in
          let frames = ref [] in
          let on_progress ~done_count ~total =
            frames := (done_count, total) :: !frames
          in
          (match
             with_client addr (fun c ->
                 Client.run_stream ~id:"sliced" ~on_progress c scenario)
           with
          | Ok (Protocol.Result { cache = Protocol.Miss; result; _ }) ->
              Alcotest.(check string) "terminal bytes identical" reference
                result
          | Ok _ -> Alcotest.fail "unexpected terminal frame"
          | Error e -> Alcotest.fail e);
          Alcotest.(check bool) "sliced at least once" true
            (stat server "sliced" >= 1);
          let frames = List.rev !frames in
          Alcotest.(check bool) "progress flowed" true
            (List.length frames >= 2);
          (* Across a requeue the adopting slice restarts from its
             checkpoint, so done counts may repeat — but they never go
             backwards and the total never changes. *)
          Alcotest.(check bool) "progress monotone across slices" true
            (fst (List.hd frames) <= fst (List.nth frames (List.length frames - 1))
            && List.for_all (fun (_, t) -> t = instrs) frames
            &&
            let rec mono = function
              | (a, _) :: ((b, _) :: _ as rest) -> a <= b && mono rest
              | _ -> true
            in
            mono frames)))

let test_slice_budget_exhausted () =
  with_store (fun dir ->
      (* Two 0.3 s windows are nowhere near enough for a run sized to
         six, so after the single allowed slice the request times out —
         the budget is a bound, not a loop. *)
      let scenario = overrunning_fullsys 23L ~deadline_s:0.3 ~windows:6. in
      let sink = Ptg_obs.Sink.create () in
      let config = sliced_config ~dir ~sink ~slices:1 ~deadline_s:0.3 in
      with_server config (fun server ->
          let addr = Server.listen_addr server in
          (match with_client addr (fun c -> Client.run c scenario) with
          | Ok Protocol.Timeout -> ()
          | Ok _ -> Alcotest.fail "expected a timeout after the slice budget"
          | Error e -> Alcotest.fail e);
          Alcotest.(check int) "exactly one slice granted" 1
            (stat server "sliced");
          Alcotest.(check int) "then a timeout" 1 (stat server "timeouts")))

(* ------------------------------------------------------------------ *)
(* Chaos: shard SIGKILLed mid-slice, adopted over the shared store     *)
(* ------------------------------------------------------------------ *)

(* The victim must really die mid-compute — an in-process Server.stop
   drains gracefully and answers Timeout, which the router passes
   through. So the victim is a spawned CLI shard we SIGKILL, exactly
   the crash the serve-router spawner is built to survive. *)
let spawn_victim ~dir =
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--port"; "0"; "--jobs"; "2"; "--high-water"; "32";
        "--snapshot-dir"; dir; "--snapshot-every"; "500"; "--slices"; "100";
        "--deadline"; "0.5";
      |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  match input_line ic with
  | exception End_of_file -> Alcotest.fail "victim shard never announced"
  | line -> (
      match Scanf.sscanf_opt line "serving on 127.0.0.1:%d" (fun p -> p) with
      | Some port -> (pid, ic, Server.Tcp port)
      | None -> Alcotest.failf "victim announced %S" line)

let fast_policy =
  { Client.attempts = 3; base_backoff_s = 0.01; max_backoff_s = 0.05;
    jitter = 0.5 }

let test_shard_kill_mid_slice_adoption () =
  with_store (fun dir ->
      (* Shard 0 (the spawned victim) must own the long scenario: the
         ring layout is a pure function of (vnodes, shards), so the
         test can probe seeds until one routes there. *)
      let ring = Ring.create ~vnodes:64 2 in
      let live = [| true; true |] in
      (* Long enough to outlive the victim's 0.5 s windows several times
         over, so the kill lands mid-run. *)
      let instrs = overrunning_instrs ~deadline_s:0.5 ~windows:4. in
      let rec owned_by_victim seed =
        let s = fullsys seed instrs in
        if Ring.route ring ~live (Scenario.hash64 s) = Some 0 then s
        else owned_by_victim (Int64.add seed 1L)
      in
      let long_scn = owned_by_victim 70L in
      let reference = Scenario.run_to_string long_scn in
      let ((victim_pid, victim_ic, victim_addr) as _victim) =
        spawn_victim ~dir
      in
      let survivor =
        Server.start
          {
            (Server.default_config (Server.Tcp 0)) with
            Server.workers = 2;
            high_water = 32;
            snapshot_dir = Some dir;
            snapshot_every = Some 500;
            (* Generous windows on the adopter: the compute deadline
               includes queue wait, so after the kill dumps the whole
               swarm plus the adopted long run on this shard at once, a
               sub-second window would make every queued job yield at
               its first chunk — ~0.2 s of machine construction burned
               per slice with no forward progress (thrash). The victim
               keeps the tight 0.5 s window; mid-slice behaviour is
               exercised there. *)
            deadline_s = 2.0;
            slices = 100;
          }
      in
      let router =
        Router.start
          {
            (Router.default_config (Server.Tcp 0)
               ~shards:[ victim_addr; Server.listen_addr survivor ])
            with
            (* The SIGKILLed victim is ejected by the unconditional
               transport-failure path, so no tight strike limit is
               needed — and a tight one is actively harmful here: a
               single deadline pass-through from the overloaded
               survivor would eject the only live shard. Frequent
               health pings keep resetting the survivor's strikes (a
               dead victim can never pong its way back in). *)
            Router.retry = fast_policy;
            connect_timeout_s = 0.5;
            request_timeout_s = 10.;
            health_interval_s = 0.5;
            strike_limit = 3;
          }
      in
      let kill_victim () =
        (try Unix.kill victim_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] victim_pid) with Unix.Unix_error _ -> ());
        close_in_noerr victim_ic
      in
      Fun.protect
        ~finally:(fun () ->
          kill_victim ();
          Router.stop router;
          Server.stop survivor)
        (fun () ->
          let addr = Router.listen_addr router in
          (* The long sliced run, streamed edge to edge so the test can
             see the victim make checkpointed progress before dying. *)
          let deepest = Atomic.make 0 in
          let reply = ref (Error "unset") in
          let conn = Client.connect addr in
          let runner =
            Thread.create
              (fun () ->
                reply :=
                  Client.run_stream ~id:"long"
                    ~on_progress:(fun ~done_count ~total:_ ->
                      if done_count > Atomic.get deepest then
                        Atomic.set deepest done_count)
                    conn long_scn)
              ()
          in
          (* Wait until the victim has persisted at least two chunks of
             the long run before raising the swarm — a cold burst could
             otherwise shed the long run off the victim's admission
             gate before it ever streams. *)
          let deadline = Clock.ns_after (Clock.now_ns ()) 20.0 in
          while Atomic.get deepest < 1_500 && Clock.now_ns () < deadline do
            Thread.delay 0.02
          done;
          Alcotest.(check bool) "victim made checkpointed progress" true
            (Atomic.get deepest >= 1_500);
          (* Swarm load across both shards while the long run is up. *)
          let scenarios = List.init 8 (fun i -> fullsys (Int64.of_int (100 + i)) 200) in
          let report = ref None in
          let load =
            Thread.create
              (fun () ->
                report :=
                  Some
                    (Client.loadgen ~policy:fast_policy ~swarm:2 ~addr
                       ~clients:4 ~requests_per_client:50 ~scenarios ()))
              ()
          in
          (* Crash the victim mid-slice, mid-swarm. *)
          Thread.delay 0.2;
          kill_victim ();
          Thread.join load;
          Thread.join runner;
          Client.close conn;
          (* Zero lost requests under the kill. *)
          let r = Option.get !report in
          Alcotest.(check int) "every swarm request issued" 200
            r.Client.requests;
          if r.Client.ok <> 200 then
            Alcotest.failf
              "swarm not fully served: ok=%d overloaded=%d timeouts=%d \
               errors=%d retries=%d reconnects=%d | router: no_live=%g \
               errors=%g ejections=%g readmissions=%g reroutes=%g \
               shard0_live=%g shard1_live=%g"
              r.Client.ok r.Client.overloaded r.Client.timeouts
              r.Client.errors r.Client.retries r.Client.reconnects
              (float_of_int (rstat router "no_live"))
              (float_of_int (rstat router "errors"))
              (float_of_int (rstat router "ejections"))
              (float_of_int (rstat router "readmissions"))
              (float_of_int (rstat router "reroutes"))
              (float_of_int (rstat router "shard0_live"))
              (float_of_int (rstat router "shard1_live"));
          Alcotest.(check int) "no swarm request failed" 0
            (r.Client.errors + r.Client.overloaded + r.Client.timeouts);
          (* The long run survived its shard: re-routed, adopted from
             the victim's deepest checkpoint in the shared store, and
             completed byte-identical to an uninterrupted run. *)
          (match !reply with
          | Ok (Protocol.Result { result; _ }) ->
              Alcotest.(check string)
                "adopted run is byte-identical to an uninterrupted run"
                reference result
          | Ok Protocol.Timeout -> Alcotest.fail "long run timed out"
          | Ok _ -> Alcotest.fail "unexpected terminal frame"
          | Error e -> Alcotest.failf "long run lost: %s" e);
          Alcotest.(check bool) "victim ejected" true
            (rstat router "ejections" >= 1);
          Alcotest.(check bool) "adoption counted" true
            (rstat router "adoptions" >= 1);
          Alcotest.(check int) "victim marked down" 0
            (rstat router "shard0_live");
          (* The adopter really warm-started from the store rather than
             recomputing the victim's work. *)
          Alcotest.(check bool) "survivor warm-started" true
            (stat survivor "warm_starts" >= 1);
          Alcotest.(check int) "router lost nothing" 0
            (rstat router "errors" + rstat router "no_live")))

let suite =
  [
    Alcotest.test_case "abandoned job stops within one chunk" `Slow
      test_orphaned_job_stops;
    Alcotest.test_case "sliced run completes byte-identical" `Slow
      test_sliced_run_byte_identical;
    Alcotest.test_case "progress streams across slice requeues" `Slow
      test_stream_progress_across_slices;
    Alcotest.test_case "slice budget exhausts into a timeout" `Slow
      test_slice_budget_exhausted;
  ]

let chaos_suite =
  [
    Alcotest.test_case "shard SIGKILLed mid-slice, adopted, zero lost" `Slow
      test_shard_kill_mid_slice_adoption;
  ]
