(* The benchmark program: runs one workload for a seed and a duration,
   checks its outputs, and prints a human-readable report followed by
   one JSON result line. Metric names and units come from BENCHMARK.json
   in the working directory: with --trace 0 every end_to_end metric,
   with --trace 1 every per_layer metric (0 for a layer the workload
   never calls). Exits 1 when an output check failed, 2 on bad usage or
   an error that left no result. *)

module Json = Ptg_server.Json

type spec = {
  workloads : string list;
  end_to_end : (string * string) list;  (** name, unit *)
  per_layer : (string * string) list;
}

let load_spec path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let json =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail e
  in
  let list key =
    match Json.member key json with Some (Json.List l) -> l | _ -> fail ("no list " ^ key)
  in
  let str key o =
    match Json.member key o with Some (Json.String s) -> s | _ -> fail ("no string " ^ key)
  in
  let metrics key = List.map (fun m -> (str "name" m, str "unit" m)) (list key) in
  {
    workloads = List.map (str "name") (list "workloads");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let usage =
  "bench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH [--record]\n\
   With --record, print the reference records of the workload for the seed."

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref "" and seconds = ref 0. and trace = ref (-1) in
  let cli = ref "" and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_string seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--cli", Arg.Set_string cli, "PATH ptguard_cli executable (serve-mix)");
      ("--record", Arg.Set record, " print reference records instead of measuring");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  let seed = match Int64.of_string_opt !seed with Some s -> s | None -> die "--seed needs an integer" in
  let spec = try load_spec "BENCHMARK.json" with Failure m | Sys_error m -> die m in
  if not (List.mem !workload spec.workloads) then
    die (Printf.sprintf "unknown workload %S (known: %s)" !workload (String.concat ", " spec.workloads));
  if !record then begin
    (match !workload with
    | "fig6-sweep" -> List.iter print_endline (Fig6_sweep.reference_lines seed)
    | "fullsys-attack" -> List.iter print_endline (Fullsys_attack.reference_lines seed)
    | w -> die (w ^ " has no reference records: its checks recompute in-process"));
    exit 0
  end;
  if not (!seconds > 0.) then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let seconds = !seconds in
  let report =
    try
      match (!workload, traced) with
      | "fig6-sweep", false -> Fig6_sweep.run ~seed ~seconds
      | "fig6-sweep", true -> Fig6_sweep.traced ~seed
      | "fullsys-attack", false -> Fullsys_attack.run ~seed ~seconds
      | "fullsys-attack", true -> Fullsys_attack.traced ~seed
      | "serve-mix", _ when not (Sys.file_exists !cli) -> die "serve-mix needs --cli PATH"
      | "serve-mix", false -> Serve_mix.run ~cli:!cli ~seed ~seconds
      | "serve-mix", true -> Serve_mix.traced ~cli:!cli ~seed ~seconds
      | w, _ -> die ("no implementation for workload " ^ w)
    with
    | Failure m | Sys_error m | Invalid_argument m -> die m
    | Unix.Unix_error (e, f, a) -> die (Printf.sprintf "%s(%s): %s" f a (Unix.error_message e))
  in
  let tally = report.Measure.tally in
  let measured =
    if traced then ("failed_frac", Measure.failed_frac tally) :: report.metrics else report.metrics
  in
  let wanted = if traced then spec.per_layer else spec.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name wanted) then die ("metric not declared in BENCHMARK.json: " ^ name))
    measured;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name measured with
        | Some value -> { Measure.name; value; unit_ }
        | None when traced -> { Measure.name; value = 0.; unit_ }
        | None -> die ("end-to-end metric not measured: " ^ name))
      wanted
  in
  List.iter print_endline report.notes;
  List.iter
    (fun m ->
      if m.Measure.name <> "failed_frac" then
      let absent = traced && not (List.mem_assoc m.Measure.name measured) in
      Printf.printf "  %-28s %16.6g %s%s\n" m.Measure.name m.value m.unit_
        (if absent then "  (not exercised)" else ""))
    metrics;
  Printf.printf "  %-28s %16.6g (%d of %d operations failed)\n" "failed_frac"
    (Measure.failed_frac tally) (Measure.failed tally) (Measure.attempted tally);
  List.iter (fun r -> print_endline ("  failure: " ^ r)) (Measure.reasons tally);
  let correct = Measure.failed tally = 0 in
  print_endline
    (Measure.result_line ~correct ~attempted:(Measure.attempted tally) ~failed:(Measure.failed tally)
       metrics);
  exit (if correct then 0 else 1)
