(* Command-line driver: one subcommand per paper artifact.
   `ptguard_cli all` regenerates everything EXPERIMENTS.md records. *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  let positive_int =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 1 -> Ok n
      | Ok n -> Error (`Msg (Printf.sprintf "%d is not a positive job count" n))
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(
    value
    & opt positive_int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the experiment sweeps (default: the \
           recommended domain count of this machine). Results are \
           bit-identical for any job count; only wall-clock time changes.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the result as CSV to $(docv).")

(* A scenario size: absent unless given, because the scenario's normal
   form owns every default (the server and the bench read the same). *)
let size_arg name ~doc =
  Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)

let instrs_arg = size_arg "instrs" ~doc:"Timed instructions per workload."

(* A size outside the scenario layer, checked the way Scenario.validate
   checks a scenario's: below 1 exits 2 naming the flag. *)
let require_positive ~cmd flag n =
  if n < 1 then begin
    Printf.eprintf "%s: --%s must be >= 1\n" cmd flag;
    exit 2
  end

let design_arg =
  let designs =
    [ ("baseline", Ptguard.Config.Baseline); ("optimized", Ptguard.Config.Optimized) ]
  in
  Arg.(
    value
    & opt (enum designs) Ptguard.Config.Baseline
    & info [ "design" ] ~docv:"DESIGN" ~doc:"PT-Guard design: baseline or optimized.")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ]
        ~docv:"N"
        ~doc:"Repeat over N seeds and report mean/stderr (N > 1).")

(* Observability plumbing: --metrics/--trace pick their format from the
   file extension (.json/.jsonl -> line-JSON, anything else -> CSV). *)
let jsonl_path path =
  Filename.check_suffix path ".jsonl" || Filename.check_suffix path ".json"

let save_metrics sink path =
  let snap = Ptg_obs.Sink.metrics sink in
  if jsonl_path path then Ptg_obs.Registry.save_jsonl snap ~path
  else Ptg_obs.Registry.save_csv snap ~path

let save_trace sink path =
  let trace = Ptg_obs.Sink.trace sink in
  if jsonl_path path then Ptg_obs.Trace.save_jsonl trace ~path
  else Ptg_obs.Trace.save_csv trace ~path

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Collect observability metrics and write them to $(docv) \
           (.json/.jsonl for line-JSON, otherwise CSV).")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Collect the structured event trace and write it to $(docv) \
           (.json/.jsonl for line-JSON, otherwise CSV).")

let sink_of ~trace ~metrics =
  if trace <> None || metrics <> None then Some (Ptg_obs.Sink.create ()) else None

let export_sink sink ~trace ~metrics =
  match sink with
  | None -> ()
  | Some s ->
      Option.iter (save_metrics s) metrics;
      Option.iter (save_trace s) trace

let warmup_arg = size_arg "warmup" ~doc:"Warmup instructions per workload."

let workloads_arg =
  let workloads_conv =
    let parse s =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            match Ptg_workloads.Workload.by_name name with
            | Some spec -> go (spec :: acc) rest
            | None ->
                Error
                  (`Msg
                    (Printf.sprintf "unknown workload %s (try: %s)" name
                       (String.concat ", " Ptg_workloads.Workload.names))))
      in
      go [] (String.split_on_char ',' s)
    in
    let print fmt specs =
      Format.pp_print_string fmt
        (String.concat ","
           (List.map (fun s -> s.Ptg_workloads.Workload.name) specs))
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some workloads_conv) None
    & info [ "workloads" ] ~docv:"W1,W2,.."
        ~doc:"Comma-separated workload subset (default: all 25).")

(* Every artifact subcommand and `all` funnel through Ptg_sim.Scenario —
   the same record the server decodes from wire frames — so CLI output
   and served output cannot drift. *)
let check_scenario scenario =
  match Ptg_sim.Scenario.validate scenario with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s: %s\n"
        (Ptg_sim.Scenario.kind_name scenario.Ptg_sim.Scenario.kind)
        msg;
      exit 2

let run_scenario ?obs ?csv scenario =
  check_scenario scenario;
  let out = Ptg_sim.Scenario.run ?obs scenario in
  print_string (Ptg_sim.Scenario.render out);
  Option.iter (fun path -> Ptg_sim.Scenario.save_csv out ~path) csv

let fig6_cmd =
  let run seed instrs warmup design workloads seeds jobs csv trace metrics =
    let obs = sink_of ~trace ~metrics in
    let workloads =
      Option.map (List.map (fun s -> s.Ptg_workloads.Workload.name)) workloads
    in
    run_scenario ?obs ?csv
      (Ptg_sim.Scenario.make ~seed ~seeds ~design ?workloads ?instrs ?warmup
         ~jobs Ptg_sim.Scenario.Fig6);
    export_sink obs ~trace ~metrics
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Figure 6: per-workload normalized IPC and LLC MPKI.")
    Term.(
      const run $ seed_arg $ instrs_arg $ warmup_arg $ design_arg
      $ workloads_arg $ seeds_arg $ jobs_arg $ csv_arg $ trace_file_arg
      $ metrics_arg)

let fig7_cmd =
  let run seed instrs jobs csv =
    run_scenario ?csv
      (Ptg_sim.Scenario.make ~seed ?instrs ~jobs Ptg_sim.Scenario.Fig7)
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Figure 7: slowdown vs MAC latency for both designs.")
    Term.(const run $ seed_arg $ instrs_arg $ jobs_arg $ csv_arg)

let fig8_cmd =
  let processes = size_arg "processes" ~doc:"Processes to profile (paper: 623)." in
  let run seed processes jobs csv =
    run_scenario ?csv
      (Ptg_sim.Scenario.make ~seed ?processes ~jobs Ptg_sim.Scenario.Fig8)
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Figure 8: PTE value locality across processes.")
    Term.(const run $ seed_arg $ processes $ jobs_arg $ csv_arg)

let fig9_cmd =
  let lines = size_arg "lines" ~doc:"Faulty lines per (workload, p_flip) point." in
  let run seed lines seeds jobs csv =
    run_scenario ?csv
      (Ptg_sim.Scenario.make ~seed ~seeds ?lines ~jobs Ptg_sim.Scenario.Fig9)
  in
  Cmd.v
    (Cmd.info "fig9" ~doc:"Figure 9: best-effort correction coverage vs p_flip.")
    Term.(const run $ seed_arg $ lines $ seeds_arg $ jobs_arg $ csv_arg)

(* An artifact that draws nothing: no seed, no size. *)
let fixed_cmd name ~doc kind =
  let run () = run_scenario (Ptg_sim.Scenario.make kind) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ const ())

let security_cmd =
  fixed_cmd "security" ~doc:"Sections IV-G/VI-E: analytical MAC security."
    Ptg_sim.Scenario.Security

let multicore_cmd =
  let instrs = size_arg "instrs" ~doc:"Instructions per core." in
  let mixes = size_arg "mixes" ~doc:"Random MIX configs." in
  let run seed instrs mixes jobs csv =
    run_scenario ?csv
      (Ptg_sim.Scenario.make ~seed ?instrs ?mixes ~jobs
         Ptg_sim.Scenario.Multicore)
  in
  Cmd.v
    (Cmd.info "multicore" ~doc:"Section VII-C: 4-core SAME/MIX slowdowns.")
    Term.(const run $ seed_arg $ instrs $ mixes $ jobs_arg $ csv_arg)

let tables_cmd =
  fixed_cmd "tables" ~doc:"Tables I-IV and the Section V-E cost summary."
    Ptg_sim.Scenario.Tables

let attacks_cmd =
  let iterations = size_arg "iterations" ~doc:"Hammer rotations per scenario." in
  let run seed iterations csv =
    run_scenario ?csv
      (Ptg_sim.Scenario.make ~seed ?iterations Ptg_sim.Scenario.Attacks)
  in
  Cmd.v
    (Cmd.info "attacks" ~doc:"Attack-vs-mitigation matrix with PT-Guard backstop.")
    Term.(const run $ seed_arg $ iterations $ csv_arg)

let baselines_cmd =
  let trials = size_arg "trials" ~doc:"Trials per cell." in
  let run seed trials csv =
    run_scenario ?csv
      (Ptg_sim.Scenario.make ~seed ?trials Ptg_sim.Scenario.Baselines)
  in
  Cmd.v
    (Cmd.info "baselines"
       ~doc:"Sections II-E/VIII-C: Monotonic Pointers and SecWalk vs PT-Guard.")
    Term.(const run $ seed_arg $ trials $ csv_arg)

let ablations_cmd =
  let run seed jobs =
    run_scenario (Ptg_sim.Scenario.make ~seed ~jobs Ptg_sim.Scenario.Ablations)
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Correction-strategy, write-pattern, CTB/re-keying and page-size ablations.")
    Term.(const run $ seed_arg $ jobs_arg)

(* ---------------------------------------------------------------- *)
(* Traces                                                            *)
(* ---------------------------------------------------------------- *)

let trace_instrs_arg =
  Arg.(
    value & opt int 500_000
    & info [ "instrs" ] ~docv:"N" ~doc:"Instructions of the workload to trace.")

let workload_name_arg =
  Arg.(
    value & opt string "mcf"
    & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to trace.")

let require_workload ~cmd name =
  match Ptg_workloads.Workload.by_name name with
  | Some spec -> spec
  | None ->
      Printf.eprintf "%s: unknown workload %s (try: %s)\n" cmd name
        (String.concat ", " Ptg_workloads.Workload.names);
      exit 2

let trace_format_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("text", Ptg_sim.Mem_trace.Text); ("binary", Ptg_sim.Mem_trace.Binary) ]))
        None
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Trace file format: text or binary.")

let mitigation_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mitigation" ] ~docv:"SPEC"
        ~doc:
          "Registered mitigation to attach, as NAME or \
           NAME:key=value,key=value (e.g. para:p=0.002). Names and \
           parameter schemas come from the plugin registry.")

let parse_mitigation ~cmd = function
  | None -> (None, [])
  | Some spec -> (
      match Ptg_mitigations.Registry.parse_spec spec with
      | Ok (name, params) -> (Some name, params)
      | Error msg ->
          Printf.eprintf "%s: --mitigation: %s\nregistered mitigations:\n%s\n"
            cmd msg
            (Ptg_mitigations.Registry.spec_help ());
          exit 2)

let load_mem_trace ~cmd path =
  try Ptg_sim.Mem_trace.load ~path
  with Invalid_argument msg | Sys_error msg ->
    Printf.eprintf "%s: %s\n" cmd msg;
    exit 2

let save_mem_trace ~cmd t ~format ~path =
  try Ptg_sim.Mem_trace.save t ~format ~path
  with Invalid_argument msg | Sys_error msg ->
    Printf.eprintf "%s: %s\n" cmd msg;
    exit 2

let trace_record_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Write the trace to $(docv).")
  in
  let run seed instrs workload format out =
    require_positive ~cmd:"trace record" "instrs" instrs;
    let spec = require_workload ~cmd:"trace record" workload in
    let t = Ptg_sim.Mem_trace.record ~seed ~instrs spec in
    let format = Option.value format ~default:Ptg_sim.Mem_trace.Text in
    save_mem_trace ~cmd:"trace record" t ~format ~path:out;
    Printf.printf "recorded %d memory events for %s -> %s (%s)\n"
      (Ptg_sim.Mem_trace.length t)
      t.Ptg_sim.Mem_trace.workload out
      (match format with Ptg_sim.Mem_trace.Text -> "text" | Binary -> "binary")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Record a workload's memory-access stream as a trace file (one \
          event per load/store, cycle = instruction index).")
    Term.(
      const run $ seed_arg $ trace_instrs_arg $ workload_name_arg
      $ trace_format_arg $ out)

let trace_replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Trace file (text or binary, sniffed).")
  in
  let run seed file mitigation =
    let t = load_mem_trace ~cmd:"trace replay" file in
    let name, params = parse_mitigation ~cmd:"trace replay" mitigation in
    match Ptg_sim.Mem_trace.replay ?mitigation:name ~params ~seed t with
    | Ok r -> print_string (Ptg_sim.Mem_trace.render_result ?mitigation:name r)
    | Error msg ->
        Printf.eprintf "trace replay: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a trace through the memory controller, optionally with \
          a registry mitigation attached; report activations and \
          refreshes. Deterministic for a given seed.")
    Term.(const run $ seed_arg $ file $ mitigation_spec_arg)

let trace_convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IN" ~doc:"Input trace (text or binary, sniffed).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output trace path.")
  in
  let run input output format =
    let t = load_mem_trace ~cmd:"trace convert" input in
    let format =
      match format with
      | Some f -> f
      | None ->
          (* Default: flip whatever the input was. *)
          let is_binary =
            In_channel.with_open_bin input (fun ic ->
                match really_input_string ic 4 with
                | s -> s = "PTGM"
                | exception End_of_file -> false)
          in
          if is_binary then Ptg_sim.Mem_trace.Text else Ptg_sim.Mem_trace.Binary
    in
    save_mem_trace ~cmd:"trace convert" t ~format ~path:output;
    Printf.printf "converted %s -> %s (%d events, %s)\n" input output
      (Ptg_sim.Mem_trace.length t)
      (match format with Ptg_sim.Mem_trace.Text -> "text" | Binary -> "binary")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace between the text and binary formats (default: \
          the opposite of the input's format). Lossless both ways.")
    Term.(const run $ input $ output $ trace_format_arg)

let trace_walk_cmd =
  let workload = workload_name_arg in
  let save =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"PATH"
          ~doc:
            "Persist the walks to $(docv) as a text memory trace (one \
             read of the leaf-PTE line per walk), which $(b,trace \
             replay) and $(b,trace convert) accept.")
  in
  let run seed instrs workload save =
    require_positive ~cmd:"trace walk" "instrs" instrs;
    let spec = require_workload ~cmd:"trace walk" workload in
    let t = Ptg_sim.Mem_trace.record_walks ~seed ~instrs spec in
    let lines = Hashtbl.create 1024 in
    Array.iter
      (fun e -> Hashtbl.replace lines e.Ptg_sim.Mem_trace.addr ())
      t.Ptg_sim.Mem_trace.events;
    Printf.printf "recorded %d page-table walks for %s (%d distinct PTE lines)\n"
      (Ptg_sim.Mem_trace.length t)
      t.Ptg_sim.Mem_trace.workload (Hashtbl.length lines);
    Option.iter
      (fun path ->
        save_mem_trace ~cmd:"trace walk" t ~format:Ptg_sim.Mem_trace.Text ~path;
        Printf.printf "saved to %s\n" path)
      save;
    Ptg_sim.Fig9.print_comparison spec (Ptg_sim.Fig9.compare_samplers ~seed spec)
  in
  Cmd.v
    (Cmd.info "walk"
       ~doc:"Record a page-walk trace (Section VI-F methodology) and validate \
             the Fig. 9 sampler against trace-frequency replay.")
    Term.(const run $ seed_arg $ trace_instrs_arg $ workload $ save)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Memory-trace frontend: record a workload's access stream, \
          replay it against any registered mitigation, convert between \
          the text and binary formats, or record a page-walk trace \
          (walk).")
    [ trace_record_cmd; trace_replay_cmd; trace_convert_cmd; trace_walk_cmd ]

let fullsys_cmd =
  let instrs = size_arg "instrs" ~doc:"Instructions." in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Warm-start store: snapshot each machine's complete state \
             into $(docv) every $(b,--checkpoint-every) instructions \
             (atomic temp-file-and-rename writes; the directory is \
             created if missing). Results are byte-identical to an \
             uncheckpointed run.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Instructions between checkpoints (default: one checkpoint \
             at completion only).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Adopt the deepest stored checkpoint at or below the \
             instruction budget instead of starting cold; damaged or \
             mismatched files are skipped. Requires \
             $(b,--checkpoint-dir).")
  in
  let run seed instrs trace metrics checkpoint_dir checkpoint_every resume =
    (match checkpoint_every with
    | Some n when n < 1 ->
        Printf.eprintf "fullsys: --checkpoint-every must be >= 1\n";
        exit 2
    | _ -> ());
    if checkpoint_dir = None && (checkpoint_every <> None || resume) then begin
      Printf.eprintf
        "fullsys: --checkpoint-every and --resume need --checkpoint-dir\n";
      exit 2
    end;
    let machines =
      List.map
        (fun (label, guarded, attack) ->
          ( label,
            Ptg_sim.Scenario.make ~seed ?instrs ~guarded ~attack
              Ptg_sim.Scenario.Fullsys ))
        Ptg_sim.Fullsys.comparison
    in
    List.iter (fun (_, scenario) -> check_scenario scenario) machines;
    let obs = sink_of ~trace ~metrics in
    Option.iter
      (fun dir ->
        (* Checkpointing excludes observability (the sink is not part of
           the snapshot, so a resumed run could not reproduce it). *)
        if obs <> None then begin
          Printf.eprintf
            "fullsys: --checkpoint-dir excludes --trace/--metrics \
             (observer state is not checkpointed)\n";
          exit 2
        end;
        try Ptg_sim.Sweep.ensure_dir dir
        with Sys_error msg ->
          Printf.eprintf "fullsys: --checkpoint-dir %s: cannot create directory (%s)\n"
            dir msg;
          exit 2)
      checkpoint_dir;
    (* Without --checkpoint-every, one chunk: a checkpoint at completion
       only. *)
    let every = Option.value checkpoint_every ~default:max_int in
    let run_machine label scenario =
      match checkpoint_dir with
      | None -> Ptg_sim.Scenario.run_to_string ?obs scenario
      | Some dir ->
          (* The resolved budget: the driver reports it with every
             depth, the adopted one first. *)
          let budget = ref 0 in
          let o =
            Ptg_sim.Checkpoint.run_scenario ~dir ~every ~adopt:resume
              ~progress:(fun ~done_count:_ ~total -> budget := total)
              scenario
          in
          Option.iter
            (fun n ->
              Printf.eprintf "fullsys: %s: resumed from %d/%d instructions\n%!"
                label n !budget)
            o.Ptg_sim.Checkpoint.resumed_from;
          Option.get o.Ptg_sim.Checkpoint.text
    in
    print_endline
      "Full-system co-simulation: real page tables in DRAM, functional\n\
       PT-Guard on every walk, Rowhammer attacker running concurrently.\n";
    List.iter
      (fun (label, scenario) ->
        Printf.printf "=== %s ===\n%s\n" label (run_machine label scenario))
      machines;
    print_endline
      "The number that matters: WRONG TRANSLATIONS is nonzero only on the\n\
       unprotected machine — the invariant of Section IV-G holds.";
    export_sink obs ~trace ~metrics
  in
  Cmd.v
    (Cmd.info "fullsys"
       ~doc:"Full-system co-simulation: execution + live Rowhammer + functional \
             PT-Guard on real in-DRAM page tables. With --checkpoint-dir, \
             periodically snapshot state and (with --resume) warm-start a \
             killed run byte-identically.")
    Term.(
      const run $ seed_arg $ instrs $ trace_file_arg $ metrics_arg
      $ checkpoint_dir $ checkpoint_every $ resume)

let stats_cmd =
  let instrs =
    Arg.(value & opt int 20_000 & info [ "instrs" ] ~docv:"N" ~doc:"Instructions.")
  in
  let pages =
    Arg.(value & opt int 512 & info [ "pages" ] ~docv:"N" ~doc:"Mapped pages.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the registry as line-JSON instead of CSV.")
  in
  let run seed instrs pages json trace =
    require_positive ~cmd:"stats" "instrs" instrs;
    require_positive ~cmd:"stats" "pages" pages;
    let r = Ptg_sim.Stats_exp.run ~seed ~pages ~instrs () in
    let snap = Ptg_obs.Sink.metrics r.Ptg_sim.Stats_exp.sink in
    print_string
      (if json then Ptg_obs.Registry.to_jsonl snap
       else Ptg_obs.Registry.to_csv snap);
    Option.iter (save_trace r.Ptg_sim.Stats_exp.sink) trace
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"One fully-observed full-system run; dump every metric the stack \
             reports (engine, memory controller, DRAM, TLB, OS journal).")
    Term.(const run $ seed_arg $ instrs $ pages $ json $ trace_file_arg)

(* ---------------------------------------------------------------- *)
(* Serving                                                           *)
(* ---------------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket at $(docv).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP on 127.0.0.1:$(docv) (0 picks an ephemeral port).")

let addr_of ~cmd ~required socket port =
  match (socket, port) with
  | Some _, Some _ ->
      Printf.eprintf "%s: --socket and --port are mutually exclusive\n" cmd;
      exit 2
  | Some path, None -> Ptg_server.Server.Unix_socket path
  | None, Some port -> Ptg_server.Server.Tcp port
  | None, None ->
      if required then begin
        Printf.eprintf "%s: need --socket PATH or --port PORT\n" cmd;
        exit 2
      end
      else Ptg_server.Server.Tcp 0

(* Flags [serve] and [serve-router] share. Defaults come from the tier's
   [default_config], so their literals live in lib/server only. *)
let cache_args ~default ~doc ~what =
  Term.(
    const (fun cache cache_bytes -> (cache, cache_bytes))
    $ Arg.(value & opt int default & info [ "cache" ] ~docv:"N" ~doc)
    $ Arg.(
        value
        & opt (some int) None
        & info [ "cache-bytes" ] ~docv:"BYTES"
            ~doc:
              ("Byte budget for the " ^ what
             ^ " (key + value weights), enforced alongside the entry cap; \
                unset means entries-only.")))

let conn_args ~idle_timeout ~max_conns ~drain_deadline ~idle_doc =
  Term.(
    const (fun idle max drain -> (idle, max, drain))
    $ Arg.(
        value & opt float idle_timeout
        & info [ "idle-timeout" ] ~docv:"SECS" ~doc:idle_doc)
    $ Arg.(
        value & opt int max_conns
        & info [ "max-conns" ] ~docv:"N"
            ~doc:
              "Concurrent-connection cap; accepts beyond it are shed with \
               a best-effort overloaded frame.")
    $ Arg.(
        value & opt float drain_deadline
        & info [ "drain-deadline" ] ~docv:"SECS"
            ~doc:"On shutdown, force-close connections still open after $(docv)."))

let announce verb addr detail =
  match addr with
  | Ptg_server.Server.Unix_socket path -> Printf.printf "%s on %s %s\n%!" verb path detail
  | Ptg_server.Server.Tcp port -> Printf.printf "%s on 127.0.0.1:%d %s\n%!" verb port detail

let print_final_stats who stats =
  print_endline (who ^ " stopped; final stats:");
  List.iter (fun (k, v) -> Printf.printf "  %-16s %.0f\n" k v) stats

let serve_cmd =
  let defaults = Ptg_server.Server.default_config (Ptg_server.Server.Tcp 0) in
  let high_water =
    Arg.(
      value
      & opt (some int) None
      & info [ "high-water" ] ~docv:"N"
          ~doc:
            "In-flight computations beyond which new requests are shed \
             with an immediate overloaded response (default: twice the workers, at least 4).")
  in
  let cache =
    cache_args ~default:defaults.cache_capacity
      ~doc:"Result-cache capacity (LRU entries)." ~what:"result cache"
  in
  let deadline =
    Arg.(
      value & opt float 30.
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Per-request compute budget: a request whose scenario has \
             not finished after $(docv) gets a timeout frame (the \
             computation keeps its worker until it really finishes).")
  in
  let slices =
    Arg.(
      value & opt int 0
      & info [ "slices" ] ~docv:"N"
          ~doc:
            "Deadline-slice budget: instead of a timeout frame, a \
             sliceable scenario that exhausts --deadline checkpoints, \
             is requeued, and gets another compute window — up to \
             $(docv) times per request (0 disables). Pair with \
             --snapshot-dir: each slice resumes from the previous \
             one's persisted checkpoint, so the window extension \
             actually buys forward progress.")
  in
  let conns =
    conn_args ~idle_timeout:defaults.idle_timeout_s ~max_conns:defaults.max_conns
      ~drain_deadline:defaults.drain_deadline_s
      ~idle_doc:
        "Close a connection whose socket stays idle (or unwritable) for \
         $(docv); 0 disables."
  in
  let inject_fault =
    (* Testing hook; see Ptg_server.Faults.of_spec for the grammar. *)
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-fault" ] ~docv:"SPEC"
          ~doc:
            "(testing) Arm a chaos fault: delay:SECS, wedge:SECS, torn \
             or drop, optionally :TIMES (e.g. wedge:2:3).")
  in
  let snapshot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR"
          ~doc:
            "Warm-start store: checkpoint fullsys and single-seed fig6 \
             computations into $(docv) and adopt stored prefixes on \
             later requests — including retries of runs a client \
             cancelled or a drain interrupted.")
  in
  let snapshot_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Checkpoint cadence in instructions (fullsys) or rows \
             (fig6); also the granularity at which cancelled or drained \
             computations stop. Default: checkpoint at completion only.")
  in
  let run socket port jobs high_water (cache, cache_bytes) snapshot_dir
      snapshot_every deadline slices (idle_timeout, max_conns, drain_deadline)
      inject_fault trace metrics =
    let addr = addr_of ~cmd:"serve" ~required:false socket port in
    let obs = sink_of ~trace ~metrics in
    let faults = Ptg_server.Faults.create () in
    (match inject_fault with
    | None -> ()
    | Some spec -> (
        match Ptg_server.Faults.of_spec spec with
        | Ok (kind, times) -> Ptg_server.Faults.arm ~times faults kind
        | Error msg ->
            Printf.eprintf "serve: --inject-fault: %s\n" msg;
            exit 2));
    let config =
      {
        defaults with
        Ptg_server.Server.addr;
        workers = jobs;
        high_water =
          Option.value high_water ~default:(Ptg_server.Server.default_high_water jobs);
        cache_capacity = cache;
        cache_bytes;
        snapshot_dir;
        snapshot_every;
        deadline_s = deadline;
        slices;
        idle_timeout_s = idle_timeout;
        max_conns;
        drain_deadline_s = drain_deadline;
        obs;
        faults;
      }
    in
    let server =
      try Ptg_server.Server.start config
      with Invalid_argument msg | Ptg_server.Listener.Bind_error msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit 2
    in
    announce "serving" (Ptg_server.Server.listen_addr server)
      (Printf.sprintf "(workers %d, high-water %d, cache %d)" config.workers
         config.high_water cache);
    Ptg_server.Server.wait server;
    print_final_stats "server" (Ptg_server.Server.stats server);
    export_sink obs ~trace ~metrics
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scenario server: line-JSON requests over a socket, \
          results computed on a domain pool behind an LRU cache with \
          load shedding, per-request deadlines, idle timeouts and a \
          connection cap. Stops on a shutdown frame.")
    Term.(
      const run $ socket_arg $ port_arg $ jobs_arg $ high_water $ cache
      $ snapshot_dir $ snapshot_every $ deadline $ slices $ conns
      $ inject_fault $ trace_file_arg $ metrics_arg)

let loadgen_cmd =
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let requests =
    Arg.(
      value & opt int 20
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let kind =
    (* Trace scenarios need a server-local trace file the loadgen cannot
       synthesize; exercise them via `serve` + a run frame instead. *)
    let kinds =
      List.filter_map
        (fun k ->
          if k = Ptg_sim.Scenario.Trace then None
          else Some (Ptg_sim.Scenario.kind_name k, k))
        Ptg_sim.Scenario.kinds
    in
    Arg.(
      value
      & opt (enum kinds) Ptg_sim.Scenario.Fig6
      & info [ "kind" ] ~docv:"KIND" ~doc:"Scenario kind to request.")
  in
  let reduced =
    Arg.(
      value & flag
      & info [ "reduced" ] ~doc:"Use the bench-reduced scenario sizes.")
  in
  let distinct =
    Arg.(
      value & opt int 1
      & info [ "distinct" ] ~docv:"N"
          ~doc:
            "Cycle through N scenarios differing only in seed (1 keeps \
             the server cache-hot after the first response).")
  in
  let retries =
    Arg.(
      value & opt int Ptg_server.Client.default_retry.Ptg_server.Client.attempts
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Attempts per request (>= 1): transport failures reconnect \
             and retry with jittered exponential backoff. Retries are \
             lossless — scenarios are deterministic and cache-keyed.")
  in
  let backoff =
    Arg.(
      value
      & opt float
          Ptg_server.Client.default_retry.Ptg_server.Client.base_backoff_s
      & info [ "backoff" ] ~docv:"SECS"
          ~doc:"Base retry backoff (doubles per attempt, jittered).")
  in
  let connect_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "connect-timeout" ] ~docv:"SECS"
          ~doc:"Fail a connect attempt after $(docv).")
  in
  let request_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "request-timeout" ] ~docv:"SECS"
          ~doc:"Fail (and retry) a request with no reply after $(docv).")
  in
  let swarm =
    Arg.(
      value & opt int 1
      & info [ "swarm" ] ~docv:"N"
          ~doc:
            "Independent sessions per client thread, dealt requests \
             round-robin: N x --clients connections without N x the \
             threads — the mode that soaks a sharded router.")
  in
  let run socket port seed kind reduced distinct clients requests retries
      backoff connect_timeout request_timeout swarm =
    let addr = addr_of ~cmd:"loadgen" ~required:true socket port in
    if clients < 1 || requests < 1 || distinct < 1 || swarm < 1 then begin
      Printf.eprintf
        "loadgen: --clients/--requests/--distinct/--swarm must be >= 1\n";
      exit 2
    end;
    if retries < 1 || backoff < 0. then begin
      Printf.eprintf "loadgen: --retries must be >= 1, --backoff >= 0\n";
      exit 2
    end;
    let scenarios =
      List.init distinct (fun i ->
          Ptg_sim.Scenario.make
            ~seed:(Int64.add seed (Int64.of_int i))
            ~reduced kind)
    in
    let policy =
      {
        Ptg_server.Client.default_retry with
        Ptg_server.Client.attempts = retries;
        base_backoff_s = backoff;
      }
    in
    let report =
      Ptg_server.Client.loadgen ~policy ?connect_timeout_s:connect_timeout
        ?request_timeout_s:request_timeout ~swarm ~addr ~clients
        ~requests_per_client:requests ~scenarios ()
    in
    print_string (Ptg_server.Client.report_to_string report);
    (* A run where nothing succeeded is a failure, and scripts must see
       it as one — the percentile lines already read n/a. *)
    if report.Ptg_server.Client.ok = 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Closed-loop load generator against a running serve instance: \
          N concurrent clients, throughput and p50/p95/p99 latency, \
          with lossless transport-failure retries.")
    Term.(
      const run $ socket_arg $ port_arg $ seed_arg $ kind $ reduced $ distinct
      $ clients $ requests $ retries $ backoff $ connect_timeout
      $ request_timeout $ swarm)

let serve_router_cmd =
  let defaults = Ptg_server.Router.default_config (Ptg_server.Server.Tcp 0) ~shards:[] in
  let shard_args =
    Arg.(
      value & opt_all string []
      & info [ "shard" ] ~docv:"ADDR"
          ~doc:
            "Backend shard address: a TCP port number (on 127.0.0.1) or \
             a unix socket path. Repeatable; shard ids follow the order \
             given.")
  in
  let spawn =
    Arg.(
      value & opt int 0
      & info [ "spawn" ] ~docv:"N"
          ~doc:
            "Fork N shard processes (each a $(b,serve --port 0) child of \
             this binary) and route across them in addition to any \
             --shard addresses; they are shut down when the router \
             stops.")
  in
  let cache =
    cache_args ~default:defaults.cache_capacity
      ~doc:"Router hot-set cache capacity (LRU entries)." ~what:"hot-set cache"
  in
  let vnodes =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Consistent-hash ring points per shard.")
  in
  let health_interval =
    Arg.(
      value & opt float 0.5
      & info [ "health-interval" ] ~docv:"SECS"
          ~doc:
            "Delay between health-ping sweeps over the shards; failures \
             accumulate strikes until ejection, a successful ping \
             re-admits the shard.")
  in
  let strikes =
    Arg.(
      value & opt int 3
      & info [ "strikes" ] ~docv:"N"
          ~doc:"Consecutive health failures before a shard is ejected.")
  in
  let request_timeout =
    Arg.(
      value & opt float 30.
      & info [ "request-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-forward socket deadline; an expiry counts as a \
             transport failure (retried, then the shard is ejected and \
             the request re-routed).")
  in
  let conns =
    conn_args ~idle_timeout:defaults.idle_timeout_s ~max_conns:defaults.max_conns
      ~drain_deadline:defaults.drain_deadline_s
      ~idle_doc:"Close a client connection whose socket stays idle for $(docv); 0 disables."
  in
  let shard_snapshot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR"
          ~doc:
            "Pass $(b,--snapshot-dir) $(docv) to every spawned shard: \
             one shared warm-start store, so when a shard dies \
             mid-slice the ring successor that adopts the re-routed \
             request resumes from the victim's deepest checkpoint \
             instead of recomputing. Content-hash keys and write-once \
             atomic saves make the sharing race-free.")
  in
  let shard_snapshot_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Pass $(b,--snapshot-every) $(docv) to every spawned shard.")
  in
  let shard_slices =
    Arg.(
      value & opt int 0
      & info [ "slices" ] ~docv:"N"
          ~doc:
            "Pass $(b,--slices) $(docv) to every spawned shard: \
             deadline expiries checkpoint and requeue (the shard keeps \
             the router alive with progress frames) instead of \
             returning timeout frames.")
  in
  let shard_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Pass $(b,--deadline) $(docv) to every spawned shard (the \
             per-slice compute window when --slices is set).")
  in
  (* A spawned shard announces its kernel-chosen port on its first
     stdout line. A forwarder thread then copies the rest of the pipe to
     our stdout until the shard exits, so its final stats are printed
     and a chatty shard never blocks on a full pipe. *)
  let forward ic =
    let buf = Bytes.create 4096 in
    let rec loop () =
      match input ic buf 0 (Bytes.length buf) with
      | 0 | (exception Sys_error _) -> close_in_noerr ic
      | n ->
          (* Keep draining when our stdout is gone: the shard must not block. *)
          (try
             output stdout buf 0 n;
             flush stdout
           with Sys_error _ -> ());
          loop ()
    in
    loop ()
  in
  let spawn_shard extra i =
    let r, w = Unix.pipe () in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.append [| Sys.executable_name; "serve"; "--port"; "0" |] extra)
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let fail msg =
      Printf.eprintf "serve-router: spawned shard %d %s\n" i msg;
      exit 1
    in
    match input_line ic with
    | exception End_of_file -> fail "exited before announcing its address"
    | line -> (
        match Scanf.sscanf_opt line "serving on 127.0.0.1:%d" (fun p -> p) with
        | Some port -> (pid, Thread.create forward ic, Ptg_server.Server.Tcp port)
        | None -> fail (Printf.sprintf "announced %S, expected a port" line))
  in
  let shutdown_shard (pid, forwarder, addr) =
    (try
       let c = Ptg_server.Client.connect ~timeout_s:1.0 addr in
       ignore (Ptg_server.Client.request ~timeout_s:5.0 c Ptg_server.Protocol.Shutdown);
       Ptg_server.Client.close c
     with _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    Thread.join forwarder
  in
  let run socket port shard_addrs spawn snapshot_dir snapshot_every slices
      deadline (cache, cache_bytes) vnodes health_interval strikes
      request_timeout (idle_timeout, max_conns, drain_deadline) trace metrics =
    let addr = addr_of ~cmd:"serve-router" ~required:false socket port in
    if spawn < 0 then begin
      Printf.eprintf "serve-router: --spawn must be >= 0\n";
      exit 2
    end;
    if shard_addrs = [] && spawn = 0 then begin
      Printf.eprintf
        "serve-router: need at least one shard (--shard ADDR or --spawn N)\n";
      exit 2
    end;
    let named =
      List.map
        (fun s ->
          match int_of_string_opt s with
          | Some p when p >= 0 -> Ptg_server.Server.Tcp p
          | _ -> Ptg_server.Server.Unix_socket s)
        shard_addrs
    in
    let shard_extra =
      Array.of_list
        (List.concat
           [
             (match snapshot_dir with
             | Some d -> [ "--snapshot-dir"; d ]
             | None -> []);
             (match snapshot_every with
             | Some n -> [ "--snapshot-every"; string_of_int n ]
             | None -> []);
             (if slices > 0 then [ "--slices"; string_of_int slices ] else []);
             (match deadline with
             | Some s -> [ "--deadline"; Printf.sprintf "%g" s ]
             | None -> []);
           ])
    in
    let children = List.init spawn (spawn_shard shard_extra) in
    let shards = named @ List.map (fun (_, _, a) -> a) children in
    let obs = sink_of ~trace ~metrics in
    let config =
      {
        defaults with
        Ptg_server.Router.addr;
        shards;
        cache_capacity = cache;
        cache_bytes;
        vnodes;
        health_interval_s = health_interval;
        strike_limit = strikes;
        request_timeout_s = request_timeout;
        idle_timeout_s = idle_timeout;
        max_conns;
        drain_deadline_s = drain_deadline;
        obs;
      }
    in
    (* Spawned shards must not outlive a router that failed to start:
       they would keep running and hold the caller's stderr open. *)
    let router =
      try Ptg_server.Router.start config
      with e -> (
        List.iter shutdown_shard children;
        match e with
        | Invalid_argument msg | Ptg_server.Listener.Bind_error msg ->
            Printf.eprintf "serve-router: %s\n" msg;
            exit 2
        | e -> raise e)
    in
    announce "routing" (Ptg_server.Router.listen_addr router)
      (Printf.sprintf "across %d shards (cache %d, vnodes %d)" (List.length shards) cache
         vnodes);
    Ptg_server.Router.wait router;
    List.iter shutdown_shard children;
    print_final_stats "router" (Ptg_server.Router.stats router);
    export_sink obs ~trace ~metrics
  in
  Cmd.v
    (Cmd.info "serve-router"
       ~doc:
         "Run the sharding front tier: consistent-hash route each \
          request's canonical scenario hash across backend shards, with \
          a router-local hot-set cache, health-check ejection and \
          re-admission, and transport-crash re-routing. Stops on a \
          shutdown frame.")
    Term.(
      const run $ socket_arg $ port_arg $ shard_args $ spawn
      $ shard_snapshot_dir $ shard_snapshot_every $ shard_slices
      $ shard_deadline $ cache $ vnodes $ health_interval
      $ strikes $ request_timeout $ conns $ trace_file_arg $ metrics_arg)

let all_cmd =
  let run seed jobs =
    List.iter
      (fun (title, scenario) ->
        Printf.printf "=== %s ===\n" title;
        run_scenario scenario;
        print_newline ())
      (Ptg_sim.Scenario.paper ~reduced:false ~seed ~jobs)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure in sequence.")
    Term.(const run $ seed_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "ptguard_cli" ~version:"1.0.0"
      ~doc:"PT-Guard (DSN 2023) reproduction: experiments and demos."
  in
  let cmds =
    [
      fig6_cmd; fig7_cmd; fig8_cmd; fig9_cmd; security_cmd; multicore_cmd;
      tables_cmd; attacks_cmd; baselines_cmd; ablations_cmd; trace_cmd;
      fullsys_cmd; stats_cmd; serve_cmd; serve_router_cmd; loadgen_cmd; all_cmd;
    ]
  in
  let names = List.sort compare (List.map Cmd.name cmds) in
  (* An unknown subcommand gets a one-screen answer — the full command
     list — instead of cmdliner's generic error. Unique-prefix
     invocations (e.g. "tab" for tables) still go through cmdliner. *)
  (if Array.length Sys.argv > 1 then
     let first = Sys.argv.(1) in
     let is_prefix name =
       String.length first <= String.length name
       && String.sub name 0 (String.length first) = first
     in
     if String.length first > 0 && first.[0] <> '-'
        && not (List.exists is_prefix names)
     then begin
       Printf.eprintf "ptguard_cli: unknown subcommand \"%s\"\n" first;
       Printf.eprintf "usage: ptguard_cli COMMAND [OPTION]...\n";
       Printf.eprintf "commands: %s\n" (String.concat ", " names);
       exit 2
     end);
  exit (Cmd.eval (Cmd.group info cmds))
