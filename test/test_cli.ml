(* End-to-end tests of the ptguard_cli binary: golden output for the
   stats experiment, artifact determinism across job counts, and the
   error paths. Tests execute from _build/default/test, so the CLI lives
   one directory up. *)

let cli =
  Filename.concat Filename.parent_dir_name
    (Filename.concat "bin" "ptguard_cli.exe")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let exec ?(out = Filename.null) args =
  Sys.command (Printf.sprintf "%s %s > %s 2> %s" cli args out Filename.null)

let tmp suffix = Filename.temp_file "ptg_cli_" suffix

let find s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find s sub <> None

let test_stats_golden () =
  let out = tmp "stats.csv" in
  Alcotest.(check int) "exit code" 0 (exec ~out "stats");
  Alcotest.(check string) "stdout matches the pinned golden file"
    (read_file "golden/stats_default.csv")
    (read_file out)

let test_stats_json_and_trace () =
  let out = tmp "stats.jsonl" in
  let trace = tmp "trace.jsonl" in
  Alcotest.(check int) "exit code" 0
    (exec ~out
       (Printf.sprintf "stats --instrs 4000 --pages 128 --json --trace %s"
          trace));
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) "json output" true
    (starts_with "{\"metric\":" (read_file out));
  Alcotest.(check bool) "jsonl trace" true
    (starts_with "{\"seq\":0," (read_file trace))

let test_fig6_artifacts_job_invariant () =
  let run jobs =
    let out = tmp "fig6.txt" in
    let trace = tmp "fig6_trace.csv" in
    let metrics = tmp "fig6_metrics.csv" in
    let code =
      exec ~out
        (Printf.sprintf
           "fig6 --workloads mcf,bc --instrs 6000 --warmup 2000 -j %d \
            --trace %s --metrics %s"
           jobs trace metrics)
    in
    Alcotest.(check int) "exit code" 0 code;
    (read_file out, read_file trace, read_file metrics)
  in
  let out1, trace1, metrics1 = run 1 in
  let out4, trace4, metrics4 = run 4 in
  Alcotest.(check string) "stdout identical across -j" out1 out4;
  Alcotest.(check string) "trace identical across -j" trace1 trace4;
  Alcotest.(check string) "metrics identical across -j" metrics1 metrics4;
  Alcotest.(check bool) "metrics non-trivial" true
    (String.length metrics1 > String.length "metric,value\n")

(* The stdout (and, where the artifact has one, the CSV) of the
   analytical and attack artifacts, pinned by MD5 at seed 42 and small
   sizes: a refactor of how they run must not move a byte. *)
let test_artifact_digests () =
  let md5 path = Digest.to_hex (Digest.string (read_file path)) in
  List.iter
    (fun (args, stdout_md5, csv_md5) ->
      let out = tmp "artifact.txt" in
      let csv = tmp "artifact.csv" in
      let args = if csv_md5 = None then args else args ^ " --csv " ^ csv in
      Alcotest.(check int) (args ^ " exit code") 0 (exec ~out args);
      Alcotest.(check string) (args ^ " stdout") stdout_md5 (md5 out);
      Option.iter
        (fun digest -> Alcotest.(check string) (args ^ " csv") digest (md5 csv))
        csv_md5)
    [
      ("security", "d299951ad8458df75feb2482bfcc38f9", None);
      ("tables", "cea31841027c55cc24be824c7126e298", None);
      ( "attacks --iterations 60000",
        "90d5ee38907dbf814bb8c09c3674a8d2",
        Some "1632506e42e79b533f6ac8876fabc892" );
      ( "baselines --trials 50",
        "2caf6740c33b0621b95ee6f7f8b7f82a",
        Some "73144022677058ae4ab7564ab56520e4" );
      ("ablations -j 1", "a940cebff14edc3d12e999f46c6cf1ae", None);
    ]

let test_error_paths () =
  Alcotest.(check int) "unknown flag" 124 (exec "stats --no-such-flag");
  Alcotest.(check int) "bad workload name" 124
    (exec "fig6 --workloads not_a_workload --instrs 1000 --warmup 100")

(* serve's --help gives the high-water default Server.default_high_water
   computes, max 4 (2 * workers); help text is reflowed, so whitespace
   runs are collapsed before matching. *)
let test_serve_help_high_water () =
  let out = tmp "help.txt" in
  Alcotest.(check int) "exit code" 0 (exec ~out "serve --help=plain");
  let text =
    String.split_on_char ' '
      (String.map (function '\n' | '\t' -> ' ' | c -> c) (read_file out))
    |> List.filter (( <> ) "")
    |> String.concat " "
  in
  Alcotest.(check bool) "states the formula" true
    (contains text "(default: twice the workers, at least 4)");
  Alcotest.(check bool) "no stale 2x" false (contains text "2x workers")

(* CLI-level validation (as opposed to cmdliner parse errors, which exit
   124) exits 2 with a message naming the offending flag. *)
let test_validation_exit_codes () =
  let err_of args =
    let err = tmp "validation.err" in
    let code =
      Sys.command
        (Printf.sprintf "%s %s > %s 2> %s" cli args Filename.null err)
    in
    (code, read_file err)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let check_exit2 args needle =
    let code, err = err_of args in
    Alcotest.(check int) (args ^ " exits 2") 2 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr names the problem (got %S)" args err)
      true (contains err needle)
  in
  (* Fault specs that parse as floats but can never fire or drain. *)
  check_exit2 "serve --inject-fault delay:inf" "finite";
  check_exit2 "serve --inject-fault wedge:nan" "finite";
  check_exit2 "serve --inject-fault bogus" "--inject-fault";
  (* Swarm and friends must be at least 1. *)
  check_exit2 "loadgen --port 1 --swarm 0" "--swarm";
  check_exit2 "loadgen --port 1 --clients 0" "--clients";
  (* The router needs at least one shard. *)
  check_exit2 "serve-router" "shard";
  (* A full-system machine needs a mapped page. *)
  check_exit2 "stats --pages 0" "--pages";
  check_exit2 "stats --pages=-1" "--pages";
  (* Sizes outside the scenario layer are named the same way: none
     records nothing. *)
  check_exit2 "stats --instrs=-1" "--instrs";
  check_exit2 "trace record --instrs=-4 -o /dev/null" "--instrs";
  check_exit2 "trace walk --instrs=-4" "--instrs";
  (* A checkpoint store that cannot be created is the caller's mistake,
     named before any machine runs. *)
  let parent = tmp ".missing" in
  Sys.remove parent;
  let dir = Filename.concat parent "store" in
  check_exit2
    (Printf.sprintf "fullsys --instrs 1000 --checkpoint-dir %s" dir)
    dir

(* A scenario size below 1 is the caller's mistake on every
   scenario-shaped subcommand: exit 2 naming the size, never an
   internal error. *)
let test_scenario_size_exit_codes () =
  let check args needle =
    let err = tmp "size.err" in
    let code =
      Sys.command (Printf.sprintf "%s %s > %s 2> %s" cli args Filename.null err)
    in
    let msg = read_file err in
    Alcotest.(check int) (args ^ " exits 2") 2 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr names the size (got %S)" args msg)
      true (contains msg needle)
  in
  check "fig6 --instrs 0" "instrs must be >= 1";
  check "fig6 --seeds 0" "seeds must be >= 1";
  check "fig7 --instrs 0" "instrs must be >= 1";
  check "fig8 --processes 0" "processes must be >= 1";
  check "fig9 --lines 0" "lines must be >= 1";
  check "fig9 --seeds 0" "seeds must be >= 1";
  check "multicore --mixes 0" "mixes must be >= 1";
  check "multicore --instrs 0" "instrs must be >= 1";
  check "fullsys --instrs 0" "instrs must be >= 1";
  check "attacks --iterations 0" "iterations must be >= 1";
  check "baselines --trials 0" "trials must be >= 1"

(* The CLI's fullsys store is keyed like the server's: the store
   `fullsys --checkpoint-dir` leaves is adopted at full depth by the
   served path on the default (guarded, attacked) scenario, and renders
   the CLI's block for that machine byte for byte. *)
let test_fullsys_store_shared () =
  let module Scenario = Ptg_sim.Scenario in
  let module Checkpoint = Ptg_sim.Checkpoint in
  let dir = tmp ".store" in
  Sys.remove dir;
  let out = tmp "fullsys.out" in
  Alcotest.(check int) "exit code" 0
    (exec ~out (Printf.sprintf "fullsys --checkpoint-dir %s" dir));
  let scenario = Scenario.make Scenario.Fullsys in
  let stored = Sys.readdir dir in
  let budget = ref 0 in
  let served =
    Checkpoint.run_scenario ~dir
      ~progress:(fun ~done_count:_ ~total -> budget := total)
      scenario
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Alcotest.(check bool) "stored under the served prefix hash" true
    (Array.exists
       (String.starts_with ~prefix:(Scenario.prefix_hash scenario ^ "."))
       stored);
  Alcotest.(check (option int)) "adopted at full depth" (Some !budget)
    served.Checkpoint.resumed_from;
  let text = Option.get served.Checkpoint.text in
  Alcotest.(check bool) "the CLI printed the served text" true
    (contains (read_file out) ("=== PT-Guard under attack ===\n" ^ text ^ "\n"))

(* A TCP port held by a listening socket for the duration of [f]. *)
let with_held_port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd 1;
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> f port
      | _ -> Alcotest.fail "expected an inet address")

(* Bind failures are the caller's mistake: exit 2 naming the address,
   never an internal error, and a path naming anything but a socket is
   left untouched. *)
let test_bind_failure_exit_codes () =
  let run args =
    let err = tmp "bind.err" in
    let code =
      Sys.command (Printf.sprintf "%s %s > %s 2> %s" cli args Filename.null err)
    in
    (code, read_file err)
  in
  let check_exit2 args needle =
    let code, err = run args in
    Alcotest.(check int) (args ^ " exits 2") 2 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr names %s (got %S)" args needle err)
      true (contains err needle)
  in
  let victim = tmp "victim.txt" in
  Out_channel.with_open_bin victim (fun oc -> output_string oc "precious");
  check_exit2 ("serve --socket " ^ victim) victim;
  check_exit2 (Printf.sprintf "serve-router --socket %s --shard 1" victim) victim;
  Alcotest.(check string) "regular file untouched" "precious" (read_file victim);
  let dir = tmp ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  check_exit2 ("serve --socket " ^ dir) dir;
  Sys.rmdir dir;
  let orphan = Filename.concat dir "ptg.sock" in
  check_exit2 ("serve --socket " ^ orphan) orphan;
  with_held_port (fun port ->
      check_exit2
        (Printf.sprintf "serve --port %d" port)
        (Printf.sprintf "127.0.0.1:%d" port))

(* Read [fd] until EOF, or until [stop] holds of everything read so
   far; [None] when [secs] pass first. *)
let read_until ?(stop = fun _ -> false) fd secs =
  let deadline = Unix.gettimeofday () +. secs in
  let buf = Bytes.create 4096 in
  let rec go acc =
    let left = deadline -. Unix.gettimeofday () in
    if stop acc then Some acc
    else if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Some acc
          | n -> go (acc ^ Bytes.sub_string buf 0 n))
  in
  go ""

(* A router that cannot bind shuts its spawned shards down: it exits 2,
   and its stderr (which the shards inherit) reaches EOF promptly. *)
let test_router_bind_failure_reaps_shards () =
  with_held_port (fun port ->
      let r, w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process cli
          [| cli; "serve-router"; "--port"; string_of_int port; "--spawn"; "1" |]
          Unix.stdin Unix.stdout w
      in
      Unix.close w;
      let err = read_until r 10. in
      Unix.close r;
      if err = None then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      let code =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED c -> c
        | _ -> -1
      in
      match err with
      | None -> Alcotest.fail "stderr still open after 10 s: spawned shards outlived the router"
      | Some err ->
          Alcotest.(check int) "exit code" 2 code;
          Alcotest.(check bool)
            (Printf.sprintf "stderr names the port (got %S)" err)
            true
            (contains err (Printf.sprintf "127.0.0.1:%d" port)))

(* A spawned shard's output after its banner reaches the router's
   stdout: on shutdown the shard's final stats are printed, before the
   router's own. *)
let test_router_forwards_shard_output () =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve-router"; "--port"; "0"; "--spawn"; "1" |]
      Unix.stdin w null
  in
  Unix.close w;
  Unix.close null;
  let finish () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close r
  in
  let banner = read_until ~stop:(fun s -> contains s " across ") r 20. in
  let rest =
    Option.bind banner (fun banner ->
        let at = Option.get (find banner "routing on ") in
        let port =
          Scanf.sscanf
            (String.sub banner at (String.length banner - at))
            "routing on 127.0.0.1:%d" Fun.id
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let frame = "{\"v\":1,\"op\":\"shutdown\",\"id\":\"x\"}\n" in
            ignore (Unix.write_substring fd frame 0 (String.length frame));
            ignore (read_until ~stop:(fun s -> contains s "\n") fd 10.));
        Option.map (fun rest -> banner ^ rest) (read_until r 30.))
  in
  finish ();
  match rest with
  | None -> Alcotest.fail "router did not announce and exit within the deadline"
  | Some out ->
      let shard = "server stopped; final stats:" in
      let router = "router stopped; final stats:" in
      Alcotest.(check bool)
        (Printf.sprintf "stdout carries the shard's final stats (got %S)" out)
        true (contains out shard);
      Alcotest.(check bool) "shard's stats print before the router's" true
        (match (find out shard, find out router) with
        | Some a, Some b -> a < b
        | _ -> false)

(* The trace pipeline end to end through the binary: record a trace,
   convert text -> binary -> text losslessly, and replay it under a
   registry mitigation with byte-identical output across runs. *)
let test_trace_pipeline () =
  let txt = tmp ".txt" in
  let bin = tmp ".ptgm" in
  let txt2 = tmp ".txt" in
  Alcotest.(check int) "record" 0
    (exec (Printf.sprintf "trace record --workload mcf --instrs 8000 -o %s" txt));
  Alcotest.(check int) "convert to binary" 0
    (exec (Printf.sprintf "trace convert %s %s" txt bin));
  Alcotest.(check int) "convert back to text" 0
    (exec (Printf.sprintf "trace convert %s %s" bin txt2));
  Alcotest.(check string) "text -> binary -> text byte-identical"
    (read_file txt) (read_file txt2);
  Alcotest.(check bool) "binary is smaller" true
    (String.length (read_file bin) < String.length (read_file txt));
  let replay source =
    let out = tmp ".out" in
    Alcotest.(check int) "replay" 0
      (exec ~out
         (Printf.sprintf "trace replay %s --mitigation graphene:threshold=50"
            source));
    read_file out
  in
  let report = replay txt in
  Alcotest.(check bool) "report is the replay rendering" true
    (String.length report > 0
    && String.sub report 0 (String.length "Trace replay") = "Trace replay");
  Alcotest.(check string) "replay deterministic across runs" report (replay txt);
  Alcotest.(check string) "replay identical from the binary form" report
    (replay bin)

(* trace subcommand validation: CLI-level errors exit 2 with a message
   naming the problem (124 stays reserved for cmdliner parse errors). *)
let test_trace_validation_exit_codes () =
  let err_of args =
    let err = tmp "trace.err" in
    let code =
      Sys.command
        (Printf.sprintf "%s %s > %s 2> %s" cli args Filename.null err)
    in
    (code, read_file err)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let check_exit2 args needle =
    let code, err = err_of args in
    Alcotest.(check int) (args ^ " exits 2") 2 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr names the problem (got %S)" args err)
      true (contains err needle)
  in
  check_exit2 "trace record --workload not_a_workload -o /dev/null" "workload";
  check_exit2 "trace replay /nonexistent/trace.txt" "trace.txt";
  (* A reachable malformed-input error: located file + line, instead of
     the old assert-style crash. *)
  let bad = tmp ".txt" in
  Out_channel.with_open_bin bad (fun oc ->
      Out_channel.output_string oc "# demo\n0x1000 Q 0\n");
  check_exit2 (Printf.sprintf "trace replay %s" bad) "line 2";
  let good = tmp ".txt" in
  Out_channel.with_open_bin good (fun oc ->
      Out_channel.output_string oc "# demo\n0x1000 R 0\n");
  check_exit2
    (Printf.sprintf "trace replay %s --mitigation bogus" good)
    "registered";
  check_exit2
    (Printf.sprintf "trace replay %s --mitigation para:p=abc" good)
    "abc";
  check_exit2
    (Printf.sprintf "trace replay %s --mitigation trr:zap=1" good)
    "zap";
  check_exit2
    (Printf.sprintf "trace convert %s /nonexistent/dir/out.ptgm" good)
    "out.ptgm";
  check_exit2
    "trace walk --workload mcf --instrs 20000 --save /nonexistent/d/w.txt"
    "/nonexistent/d/w.txt"

(* A page-walk trace saved by [trace walk] is an ordinary memory trace:
   [trace replay] loads it and counts one read per walk. *)
let test_trace_walk_replays () =
  let walks = tmp ".txt" in
  let out = tmp ".out" in
  Alcotest.(check int) "walk --save" 0
    (exec ~out
       (Printf.sprintf "trace walk --workload mcf --instrs 20000 --save %s" walks));
  let recorded = read_file out in
  let n = Scanf.sscanf recorded "recorded %d page-table walks" Fun.id in
  Alcotest.(check int) "replay --mitigation trr" 0
    (exec ~out (Printf.sprintf "trace replay %s --mitigation trr" walks));
  Alcotest.(check bool)
    "one read per walk" true
    (contains (read_file out)
       (Printf.sprintf "Trace replay (trr): %d events (%d reads, 0 writes)" n n))

(* An unknown subcommand prints the full command list to stderr and
   exits 2 (cmdliner's generic error is 124, kept for flag errors). *)
let test_unknown_subcommand () =
  let err = tmp "unknown.err" in
  let code =
    Sys.command
      (Printf.sprintf "%s frobnicate > %s 2> %s" cli Filename.null err)
  in
  Alcotest.(check int) "exit code" 2 code;
  let listing = read_file err in
  List.iter
    (fun needle ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "stderr names %s" needle)
        true (contains listing needle))
    [ "frobnicate"; "fig6"; "serve"; "loadgen"; "tables" ]

(* The bench harness rejects an unknown PTG_BENCH_ONLY section with exit
   2 and the list of valid sections on stderr — before running anything,
   so the test is fast. *)
let test_bench_unknown_section () =
  let bench =
    Filename.concat Filename.parent_dir_name
      (Filename.concat "bench" "main.exe")
  in
  let err = tmp "bench_unknown.err" in
  let code =
    Sys.command
      (Printf.sprintf "PTG_BENCH_ONLY=nonsense %s > %s 2> %s" bench
         Filename.null err)
  in
  Alcotest.(check int) "exit code" 2 code;
  let listing = read_file err in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "stderr names %s" needle)
        true (contains listing needle))
    [
      "unknown PTG_BENCH_ONLY section: nonsense";
      "valid sections:";
      "micro"; "fig6"; "batch"; "fullsys"; "serve_sharded";
    ]

(* bench/gate.exe on synthetic BASE/FRESH pairs: each recording is an
   ordered (key, raw JSON value) list written one key per line, the way
   bench/main.exe writes it. No bench runs, so these are fast. *)
let gate =
  Filename.concat Filename.parent_dir_name (Filename.concat "bench" "gate.exe")

let gate_fixtures =
  List.map (fun (section, fields) -> (section, ("mode", {|"reduced"|}) :: fields))
  @@ [
    ( "fig6",
      [ ("jobs", "1"); ("instrs", "600000"); ("warmup", "200000");
        ("workloads", "25"); ("wall_time_s", "2.500"); ("wall_time_obs_s", "2.700");
        ("instrs_per_sec", "16000000"); ("amean_slowdown_pct", "1.3212");
        ("obs_results_identical", "true"); ("pre_pr_wall_time_s", "7.84");
        ("speedup_vs_pre_pr", "3.14") ] );
    ( "fullsys",
      [ ("instrs", "30000"); ("wall_time_s", "0.640"); ("fullsys_wall_s", "0.580");
        ("fullsys_walks", "3388"); ("fullsys_flips_landed", "2657");
        ("fullsys_wrong_translations", "0"); ("mc_wall_s", "0.060");
        ("mc_instrs_per_core", "50000"); ("mc_macs_verified", "1341");
        ("mc_verify_failures", "0"); ("mc_macs_per_sec", "22350") ] );
    ( "snapshot",
      [ ("instrs", "20000"); ("every", "2000"); ("wall_time_s", "0.400");
        ("cold_wall_s", "0.340"); ("warm_wall_s", "0.060"); ("speedup", "5.67");
        ("warm_resumed_from", "20000"); ("identical", "true"); ("checkpoints", "2");
        ("store_bytes", "150000") ] );
    ( "slices",
      [ ("instrs", "1000000"); ("deadline_s", "6.400"); ("wall_time_s", "33.000");
        ("plain_wall_s", "16.000"); ("sliced_wall_s", "16.100"); ("slices", "2");
        ("overhead_pct", "0.63"); ("identical", "true"); ("resume_instrs", "40000");
        ("victim_stopped_at", "32000"); ("cold_wall_s", "0.900");
        ("resume_wall_s", "0.250"); ("resume_adopted_from", "32000");
        ("resume_identical", "true"); ("resume_speedup", "3.60") ] );
    ( "serve",
      [ ("cold_s", "0.750"); ("hot_rps", "4500.00"); ("ratio", "3375");
        ("clients", "4"); ("ok", "800"); ("hits", "800"); ("misses", "0");
        ("shed", "0"); ("errors", "0"); ("hit_codec_us", "6.05") ] );
    ( "serve_sharded",
      [ ("distinct_scenarios", "64"); ("shard_cache_capacity", "56");
        ("router_cache_capacity", "8"); ("clients", "4");
        ("requests_per_client", "150"); ("rps_1_shard", "16.66");
        ("rps_2_shards", "7676.43"); ("rps_4_shards", "3932.51");
        ("speedup_2_shards", "460.77"); ("speedup_4_shards", "236.04");
        ("ok_1_shard", "600"); ("ok_2_shards", "600"); ("ok_4_shards", "600");
        ("lost_1_shard", "0"); ("lost_2_shards", "0"); ("lost_4_shards", "0");
        ("cold_routed_p50_ms", "6.34") ] );
  ]

let gate_record section fields =
  let fields = ("benchmark", Printf.sprintf "%S" section) :: fields in
  let path = tmp (section ^ ".json") in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields)));
  path

(* Exit code and stdout followed by stderr of gate.exe BASE FRESH. *)
let run_gate base fresh =
  let out = tmp "gate.out" and err = tmp "gate.err" in
  let code = Sys.command (Printf.sprintf "%s %s %s > %s 2> %s" gate base fresh out err) in
  (code, read_file out ^ read_file err)

let test_gate_passes_clean_pairs () =
  List.iter
    (fun (section, fields) ->
      let code, out =
        run_gate (gate_record section fields) (gate_record section fields)
      in
      Alcotest.(check int) (section ^ " exit code") 0 code;
      Alcotest.(check bool) (section ^ " reports its rows") true
        (contains out (Printf.sprintf "OK: %s gate" section)))
    gate_fixtures

(* One failing FRESH per rule kind, against a clean BASE. *)
let test_gate_fails_each_rule_kind () =
  let set k v = List.map (fun (k', v') -> (k', if k' = k then v else v')) in
  List.iter
    (fun (kind, section, field, edit) ->
      let fields = List.assoc section gate_fixtures in
      let code, out =
        run_gate (gate_record section fields) (gate_record section (edit fields))
      in
      Alcotest.(check int) (kind ^ " exit code") 1 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: a FAIL line names %s %s" kind section field)
        true
        (List.exists
           (fun line ->
             String.starts_with ~prefix:("FAIL " ^ section ^ " ") line
             && contains line (" " ^ field ^ " "))
           (String.split_on_char '\n' out)))
    [
      ("missing field", "fig6", "warmup", List.filter (fun (k, _) -> k <> "warmup"));
      ("mode", "fig6", "mode", set "mode" {|"full"|});
      ("bool false", "fig6", "obs_results_identical", set "obs_results_identical" "false");
      ("constant", "serve_sharded", "lost_2_shards", set "lost_2_shards" "1");
      ("floor", "snapshot", "speedup", set "speedup" "4.90");
      ("ceiling", "slices", "overhead_pct", set "overhead_pct" "10.50");
      ("latency ceiling", "serve_sharded", "cold_routed_p50_ms", set "cold_routed_p50_ms" "44.05");
      ("codec ceiling", "serve", "hit_codec_us", set "hit_codec_us" "16.59");
      ("field vs field", "serve_sharded", "rps_2_shards", set "rps_2_shards" "26.00");
      ("1.25 x baseline", "fullsys", "wall_time_s", set "wall_time_s" "0.832");
      ("exact pin", "fullsys", "fullsys_walks", set "fullsys_walks" "3389");
      ("checkpoint bytes pin", "snapshot", "store_bytes", set "store_bytes" "150001");
    ]

let test_gate_bad_files () =
  let good = gate_record "fig6" (List.assoc "fig6" gate_fixtures) in
  let write text =
    let path = tmp "bad.json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "ptg_no_such_base.json" in
  let malformed = write {|{"benchmark": "fig6", "jobs": |} in
  let unknown = write {|{"benchmark": "fig99", "mode": "reduced"}|} in
  List.iter
    (fun (what, base, fresh, named) ->
      let code, out = run_gate base fresh in
      Alcotest.(check bool) (what ^ " exits non-zero") true (code <> 0);
      Alcotest.(check bool) (what ^ " names the file") true (contains out named);
      Alcotest.(check bool) (what ^ " without an exception trace") false
        (contains out "Fatal error" || contains out "exception"))
    [
      ("missing BASE", missing, good, missing);
      ("malformed FRESH", good, malformed, malformed);
      ("unknown benchmark", unknown, unknown, unknown);
    ]

let suite =
  [
    Alcotest.test_case "stats golden output" `Slow test_stats_golden;
    Alcotest.test_case "stats json and trace" `Slow test_stats_json_and_trace;
    Alcotest.test_case "fig6 artifacts job-invariant" `Slow
      test_fig6_artifacts_job_invariant;
    Alcotest.test_case "paper artifact digests" `Slow test_artifact_digests;
    Alcotest.test_case "error exit codes" `Quick test_error_paths;
    Alcotest.test_case "serve help states high-water default" `Quick
      test_serve_help_high_water;
    Alcotest.test_case "scenario size exit codes" `Quick
      test_scenario_size_exit_codes;
    Alcotest.test_case "validation exit codes" `Quick
      test_validation_exit_codes;
    Alcotest.test_case "fullsys store shared with the server" `Slow
      test_fullsys_store_shared;
    Alcotest.test_case "serve bind failures exit 2" `Quick
      test_bind_failure_exit_codes;
    Alcotest.test_case "router forwards spawned shard output" `Quick
      test_router_forwards_shard_output;
    Alcotest.test_case "router bind failure reaps spawned shards" `Quick
      test_router_bind_failure_reaps_shards;
    Alcotest.test_case "trace pipeline record/convert/replay" `Slow
      test_trace_pipeline;
    Alcotest.test_case "trace validation exit codes" `Quick
      test_trace_validation_exit_codes;
    Alcotest.test_case "trace walk file replays" `Quick test_trace_walk_replays;
    Alcotest.test_case "unknown subcommand lists commands" `Quick
      test_unknown_subcommand;
    Alcotest.test_case "bench rejects unknown section" `Quick
      test_bench_unknown_section;
    Alcotest.test_case "bench gate passes clean pairs" `Quick
      test_gate_passes_clean_pairs;
    Alcotest.test_case "bench gate fails each rule kind" `Quick
      test_gate_fails_each_rule_kind;
    Alcotest.test_case "bench gate rejects bad files" `Quick test_gate_bad_files;
  ]
