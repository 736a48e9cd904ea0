(* Canonicalization properties: the cache key (Scenario.hash) must not
   depend on how a request spells the scenario — field order, whitespace,
   explicit-vs-default values — and must separate semantically distinct
   scenarios. *)

module Json = Ptg_util.Json
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Trace scenarios need an on-disk trace file, so the generators draw
   from the synthetic kinds only; trace canonicalization/caching has its
   own tests (test_mem_trace.ml, test_server_e2e.ml). *)
let synthetic_kinds =
  List.filter (fun k -> k <> Scenario.Trace) Scenario.kinds

let gen_scenario =
  let open QCheck2.Gen in
  oneofl synthetic_kinds >>= fun kind ->
  map3
    (fun (seed, seeds, reduced, jobs) (design, mac_latency, workloads, size)
         (guarded, attack) ->
      let multi_ok = kind = Scenario.Fig6 || kind = Scenario.Fig9 in
      let fullsys = kind = Scenario.Fullsys in
      Scenario.make
        ~seed:(Int64.of_int seed)
        ~seeds:(if multi_ok then seeds else 1)
        ~reduced ~design ?mac_latency
        ?workloads:(if kind = Scenario.Fig6 then workloads else None)
        ?instrs:(if kind = Scenario.Fig7 then Some (1000 + size) else None)
        ?lines:(if kind = Scenario.Fig9 then Some (10 + size) else None)
        ?iterations:(if kind = Scenario.Attacks then Some (1 + size) else None)
        ?trials:(if kind = Scenario.Baselines then Some (1 + size) else None)
        ~guarded:(guarded || not fullsys) ~attack:(attack || not fullsys)
        ~jobs kind)
    (quad (int_bound 999) (int_range 1 3) bool (int_range 1 4))
    (quad
       (oneofl [ Ptguard.Config.Baseline; Ptguard.Config.Optimized ])
       (opt (int_range 0 40))
       (opt (oneofl [ [ "mcf" ]; [ "mcf"; "bc" ]; [ "xz"; "leela"; "lbm" ] ]))
       (int_bound 5000))
    (pair bool bool)

(* Re-render a wire scenario object with shuffled field order and random
   whitespace — the spellings a real client might produce. *)
let rec render_sloppy st json =
  let sp () = String.make (Random.State.int st 3) ' ' in
  match json with
  | Json.Obj fields ->
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun f -> (Random.State.bits st, f)) fields))
      in
      "{" ^ sp ()
      ^ String.concat
          ("," ^ sp ())
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\"%s:%s%s" k (sp ()) (sp ())
                 (render_sloppy st v))
             shuffled)
      ^ sp () ^ "}"
  | Json.List items ->
      "[" ^ sp ()
      ^ String.concat ("," ^ sp ()) (List.map (render_sloppy st) items)
      ^ sp () ^ "]"
  | other -> Json.to_string other

let prop_hash_spelling_invariant =
  QCheck2.Test.make
    ~name:"hash is invariant under wire field order and whitespace" ~count:200
    QCheck2.Gen.(pair gen_scenario (int_bound 0x3FFFFFF))
    (fun (scenario, shuffle_seed) ->
      let st = Random.State.make [| shuffle_seed |] in
      let sloppy = render_sloppy st (Scenario.to_json scenario) in
      match Json.parse sloppy with
      | Error e -> QCheck2.Test.fail_reportf "sloppy form unparseable: %s" e
      | Ok j -> (
          match Scenario.of_json j with
          | Error e -> QCheck2.Test.fail_reportf "sloppy form rejected: %s" e
          | Ok back ->
              Scenario.hash back = Scenario.hash scenario
              && Scenario.canonical back = Scenario.canonical scenario))

let prop_jobs_excluded =
  QCheck2.Test.make ~name:"jobs hint never changes the hash" ~count:100
    QCheck2.Gen.(pair gen_scenario (int_range 1 16))
    (fun (scenario, jobs) ->
      Scenario.hash { scenario with Scenario.jobs } = Scenario.hash scenario)

let prop_defaults_resolved =
  QCheck2.Test.make
    ~name:"explicit default values hash like omitted ones" ~count:100
    QCheck2.Gen.(oneofl synthetic_kinds)
    (fun kind ->
      let omitted = Scenario.make kind in
      let explicit =
        match kind with
        | Scenario.Fig6 ->
            Scenario.make ~seed:42L ~seeds:1 ~instrs:2_000_000 ~warmup:500_000
              ~design:Ptguard.Config.Baseline
              ~workloads:Ptg_workloads.Workload.names kind
        | Scenario.Fig7 -> Scenario.make ~instrs:1_000_000 ~warmup:300_000 kind
        | Scenario.Fig8 -> Scenario.make ~processes:623 kind
        | Scenario.Fig9 -> Scenario.make ~lines:300 kind
        | Scenario.Multicore -> Scenario.make ~instrs:400_000 ~mixes:16 kind
        | Scenario.Fullsys -> Scenario.make ~seed:42L ~instrs:60_000 kind
        | Scenario.Attacks -> Scenario.make ~iterations:400_000 kind
        | Scenario.Baselines -> Scenario.make ~trials:500 kind
        | Scenario.Ablations -> Scenario.make ~lines:400 ~instrs:400_000 kind
        | Scenario.Security | Scenario.Tables -> Scenario.make ~seed:7L kind
        | Scenario.Trace -> assert false (* not in synthetic_kinds *)
      in
      Scenario.hash explicit = Scenario.hash omitted)

(* A golden set of semantically distinct scenarios: every pair must get
   its own cache entry. The security analysis and the tables have no
   size, so their reduced form is the same computation. *)
let test_golden_distinct () =
  let unsized kind = kind = Scenario.Security || kind = Scenario.Tables in
  let scenarios =
    List.concat_map
      (fun kind ->
        Scenario.make kind
        :: (if unsized kind then [] else [ Scenario.make ~reduced:true kind ]))
      synthetic_kinds
    @ List.init 20 (fun i ->
          Scenario.make ~seed:(Int64.of_int i) Scenario.Fig6)
    @ [
        Scenario.make ~design:Ptguard.Config.Optimized Scenario.Fig6;
        Scenario.make ~mac_latency:0 Scenario.Fig6;
        Scenario.make ~mac_latency:25 Scenario.Fig6;
        Scenario.make ~workloads:[ "mcf" ] Scenario.Fig6;
        Scenario.make ~workloads:[ "mcf"; "bc" ] Scenario.Fig6;
        Scenario.make ~workloads:[ "bc"; "mcf" ] Scenario.Fig6;
        Scenario.make ~seeds:2 Scenario.Fig6;
        Scenario.make ~seeds:3 Scenario.Fig6;
        Scenario.make ~seeds:2 Scenario.Fig9;
        Scenario.make ~instrs:999_999 Scenario.Fig7;
        Scenario.make ~processes:622 Scenario.Fig8;
        Scenario.make ~lines:299 Scenario.Fig9;
        Scenario.make ~mixes:15 Scenario.Multicore;
        Scenario.make ~guarded:false Scenario.Fullsys;
        Scenario.make ~attack:false Scenario.Fullsys;
        Scenario.make ~guarded:false ~attack:false Scenario.Fullsys;
        Scenario.make ~iterations:399_999 Scenario.Attacks;
        Scenario.make ~seed:7L Scenario.Attacks;
        Scenario.make ~trials:499 Scenario.Baselines;
        Scenario.make ~lines:399 Scenario.Ablations;
        Scenario.make ~instrs:399_999 Scenario.Ablations;
      ]
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let h = Scenario.hash s in
      (match Hashtbl.find_opt tbl h with
      | Some other ->
          Alcotest.failf "hash collision: %s vs %s" other (Scenario.canonical s)
      | None -> ());
      Hashtbl.replace tbl h (Scenario.canonical s))
    scenarios;
  Alcotest.(check int) "all distinct" (List.length scenarios)
    (Hashtbl.length tbl)

let test_validate_rejects () =
  List.iter
    (fun (label, s) ->
      match Scenario.validate s with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validate accepted %s" label)
    [
      ("zero seeds", Scenario.make ~seeds:0 Scenario.Fig6);
      ("multi-seed fig7", Scenario.make ~seeds:2 Scenario.Fig7);
      ("zero jobs", Scenario.make ~jobs:0 Scenario.Fig8);
      ("negative instrs", Scenario.make ~instrs:(-1) Scenario.Fig7);
      ("unknown workload", Scenario.make ~workloads:[ "zzz" ] Scenario.Fig6);
      ("empty workloads", Scenario.make ~workloads:[] Scenario.Fig6);
      ("negative mac latency", Scenario.make ~mac_latency:(-1) Scenario.Fig6);
      ("unprotected fig6", Scenario.make ~guarded:false Scenario.Fig6);
      ("unattacked multicore", Scenario.make ~attack:false Scenario.Multicore);
      ("zero iterations", Scenario.make ~iterations:0 Scenario.Attacks);
      ("zero trials", Scenario.make ~trials:0 Scenario.Baselines);
      ("iterations on baselines", Scenario.make ~iterations:5 Scenario.Baselines);
      ("trials on fig8", Scenario.make ~trials:5 Scenario.Fig8);
      ("multi-seed security", Scenario.make ~seeds:2 Scenario.Security);
    ]

(* The fullsys machine choice survives the wire: each configuration of
   the Section IV-G comparison decodes to the record it was encoded
   from, and only a false value is written. *)
let test_machine_choice_round_trip () =
  List.iter
    (fun (label, guarded, attack) ->
      let s = Scenario.make ~instrs:5000 ~guarded ~attack Scenario.Fullsys in
      let text = Json.to_string (Scenario.to_json s) in
      Alcotest.(check bool) (label ^ ": guarded written when false") (not guarded)
        (contains text {|"guarded"|});
      Alcotest.(check bool) (label ^ ": attack written when false") (not attack)
        (contains text {|"attack"|});
      match Result.bind (Json.parse text) Scenario.of_json with
      | Ok back -> Alcotest.(check bool) (label ^ ": " ^ text) true (back = s)
      | Error e -> Alcotest.failf "%s rejected: %s" text e)
    Ptg_sim.Fullsys.comparison

(* The machine choice belongs to fullsys: spelled out for any other
   kind, even at its default, the decoder names the mistake. *)
let test_machine_choice_other_kind () =
  List.iter
    (fun text ->
      match Result.bind (Json.parse text) Scenario.of_json with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" text e) true
            (contains e "only valid for kind fullsys"))
    [
      {|{"kind":"fig6","guarded":true}|};
      {|{"kind":"fig8","attack":false}|};
      {|{"kind":"multicore","guarded":false,"attack":false}|};
    ]

(* iterations and trials belong to attacks and baselines: on any other
   kind the decoder names the owner. *)
let test_sizes_other_kind () =
  List.iter
    (fun (text, needle) ->
      match Result.bind (Json.parse text) Scenario.of_json with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" text e) true (contains e needle))
    [
      ({|{"kind":"fig6","iterations":5}|}, "iterations is only valid for kind attacks");
      ({|{"kind":"attacks","trials":5}|}, "trials is only valid for kind baselines");
      ({|{"kind":"attacks","iterations":0}|}, "iterations must be >= 1");
      ({|{"kind":"baselines","trials":"5"}|}, "trials must be an integer");
    ]

(* Decoder fuzzing. Two kinds of input: random objects over the
   scenario's wire keys (plus unknown ones) with values of every JSON
   type, and byte mutations of valid run frames. Each must decode to a
   scenario or an error without raising, and every accepted scenario
   must survive canonicalization and a wire round trip with its hash
   unchanged. *)
let fuzz_trace_file =
  lazy
    (let path = Filename.temp_file "ptg_fuzz_" ".trace" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Out_channel.with_open_bin path (fun oc ->
         Out_channel.output_string oc "# fuzz\n0x48000000 R 0\n0x48010040 W 3\n");
     path)

let gen_fuzz_value key =
  let open QCheck2.Gen in
  let int_in lo hi = map (fun i -> Json.Int (Int64.of_int i)) (int_range lo hi) in
  let str l = map (fun s -> Json.String s) (oneofl l) in
  let number =
    oneof
      [
        int_in (-3) 40;
        map (fun i -> Json.Int i) (oneofl [ Int64.max_int; Int64.min_int; 0x1_0000_0000L ]);
        map (fun f -> Json.Float f) (oneofl [ 0.1; 1.0; 0.001; 2.5; -1.0; 1e300 ]);
      ]
  in
  let any =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        number;
        str (Scenario.kind_names @ [ "baseline"; "mcf"; ""; "para"; "a\"b\\c\n" ]);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 8));
        return (Json.List [ Json.String "mcf"; Json.Int 1L ]);
        return (Json.Obj [ ("p", Json.Null) ]);
      ]
  in
  let param = oneofl [ "p"; "threshold"; "counters"; "sampler_size"; "zap" ] in
  let valid =
    match key with
    | "kind" -> str Scenario.kind_names
    | "seed" -> number
    | "seeds" -> int_in 1 3
    | "reduced" | "guarded" | "attack" -> map (fun b -> Json.Bool b) bool
    | "design" -> str [ "baseline"; "optimized"; "Baseline" ]
    | "workloads" ->
        map (fun ws -> Json.List ws) (list_size (int_bound 3) (str [ "mcf"; "bc"; "xz"; "zzz" ]))
    | "trace" ->
        frequency
          [
            (6, map (fun () -> Json.String (Lazy.force fuzz_trace_file)) unit);
            (1, str [ "/dev/zero"; "/"; "/nonexistent"; "" ]);
          ]
    | "mitigation" -> str [ "trr"; "para"; "soft-trr"; "graphene"; "bogus" ]
    | "params" ->
        map (fun kvs -> Json.Obj kvs)
          (list_size (int_bound 2) (pair param (oneof [ number; map (fun b -> Json.Bool b) bool ])))
    | "jobs" -> oneof [ int_in 1 4; return (Json.Int 1_000_000L) ]
    | _ -> int_in 0 50
  in
  frequency [ (5, valid); (1, any) ]

let wire_keys =
  [
    "kind"; "seed"; "seeds"; "reduced"; "design"; "mac_latency"; "workloads";
    "instrs"; "warmup"; "processes"; "lines"; "mixes"; "iterations"; "trials";
    "guarded"; "attack"; "trace"; "mitigation"; "params"; "jobs";
  ]

(* Integral floats print with a fraction ("1.0"), as a client in
   another language sends them: on the wire that is a float, not the
   integer [Json.to_string] would print. *)
let rec render_fuzz = function
  | Json.Float f when Float.is_integer f -> Printf.sprintf "%.1f" f
  | Json.Obj fields ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Json.to_string (Json.String k) ^ ":" ^ render_fuzz v) fields)
      ^ "}"
  | Json.List items -> "[" ^ String.concat "," (List.map render_fuzz items) ^ "]"
  | v -> Json.to_string v

(* A kind (usually), then a few fields. Trace objects usually name the
   trace file, so the mitigation and parameter paths are reached. *)
let gen_fuzz_object =
  let open QCheck2.Gen in
  let field k = map (fun v -> (k, v)) (gen_fuzz_value k) in
  let kind = frequency [ (9, gen_fuzz_value "kind" >|= Option.some); (1, return None) ] in
  kind >>= fun kind ->
  (* Parameters drawn from the mitigation's own schema, each value of
     the declared type or of a neighbouring one (integral floats
     included), so the override paths are reached. *)
  let schema_params name =
    let declared =
      Option.value ~default:[] (Ptg_mitigations.Registry.resolved_params name [])
    in
    let value = function
      | Ptg_mitigations.Registry.Float _ ->
          oneofl [ Json.Float 0.1; Json.Float 1.0; Json.Float 0.0; Json.Int 1L ]
      | Ptg_mitigations.Registry.Int _ ->
          oneof [ map (fun i -> Json.Int (Int64.of_int i)) (int_range 1 3000); return (Json.Float 2.0) ]
      | Ptg_mitigations.Registry.Bool _ -> map (fun b -> Json.Bool b) bool
    in
    map (fun kvs -> Json.Obj kvs)
      (list_size (int_bound 2) (oneofl declared >>= fun (k, d) -> map (fun v -> (k, v)) (value d)))
  in
  let trace_fields =
    if kind = Some (Json.String "trace") then
      oneofl (Ptg_mitigations.Registry.names ()) >>= fun name ->
      flatten_l
        [
          field "trace" >|= Option.some;
          opt (return ("mitigation", Json.String name));
          opt (schema_params name >|= fun p -> ("params", p));
        ]
      >|= List.filter_map Fun.id
    else return []
  in
  map2
    (fun extra fields ->
      render_fuzz
        (Json.Obj (Option.to_list (Option.map (fun k -> ("kind", k)) kind) @ extra @ fields)))
    trace_fields
    (list_size (int_bound 4) (oneofl (wire_keys @ [ "zz"; "Kind" ]) >>= field))

(* One edit of [frame] at [pos]: replace, delete or insert a byte, or
   truncate there. *)
let mutate frame (pos, ch, op) =
  let n = String.length frame in
  if n = 0 then frame
  else
    let i = pos mod n in
    match op with
    | 0 -> String.mapi (fun j c -> if j = i then ch else c) frame
    | 1 -> String.sub frame 0 i ^ String.sub frame (i + 1) (n - i - 1)
    | 2 -> String.sub frame 0 i ^ String.make 1 ch ^ String.sub frame i (n - i)
    | _ -> String.sub frame 0 i

let gen_fuzz_mutant =
  let open QCheck2.Gen in
  let base =
    oneof
      [
        gen_scenario;
        map
          (fun m -> Scenario.make ~trace:(Lazy.force fuzz_trace_file) ?mitigation:m Scenario.Trace)
          (opt (oneofl [ "trr"; "para"; "graphene" ]));
      ]
  in
  map2
    (fun s edits -> List.fold_left mutate (Protocol.encode_request (Protocol.Run s)) edits)
    base
    (list_size (int_range 1 4)
       (triple nat
          (oneofl [ '"'; '{'; '}'; ','; ':'; '0'; '9'; '-'; '.'; 'e'; '\\'; ' '; 'x'; '\000' ])
          (int_bound 3)))

let accepted_round_trips s =
  let h = Scenario.hash s in
  ignore (Scenario.prefix_canonical s);
  match Json.parse (Json.to_string (Scenario.to_json s)) with
  | Error e -> QCheck2.Test.fail_reportf "to_json unparseable: %s" e
  | Ok j -> (
      match Scenario.of_json j with
      | Error e -> QCheck2.Test.fail_reportf "round trip rejected: %s" e
      | Ok back -> Scenario.hash back = h || QCheck2.Test.fail_reportf "hash moved: %s" h)

let prop_decoder_fuzz =
  QCheck2.Test.make ~name:"decoder fuzz: value or error, accepted round-trips"
    ~count:1000 ~print:(fun s -> s)
    QCheck2.Gen.(
      oneof
        [
          gen_fuzz_object;
          map (fun o -> {|{"v":1,"op":"run","scenario":|} ^ o ^ "}") gen_fuzz_object;
          gen_fuzz_mutant;
        ])
    (fun text ->
      (match Json.parse text with
      | Ok j -> (
          match Scenario.of_json j with
          | Ok s -> ignore (accepted_round_trips s)
          | Error _ -> ())
      | Error _ -> ());
      match Protocol.decode_request text with
      | Ok (_, (Protocol.Run s | Protocol.Run_stream s)) -> accepted_round_trips s
      | Ok _ | Error _ -> true)

(* The decoder against the reference one ({!Scenario_oracle}) on the
   fuzz corpus: the same parse, and for every object parsed (a run
   frame's scenario too) the same scenario or the same error text. *)
let prop_decoder_matches_oracle =
  QCheck2.Test.make ~name:"decoder matches the reference on the fuzz corpus"
    ~count:1000 ~print:(fun s -> s)
    QCheck2.Gen.(
      oneof
        [
          gen_fuzz_object;
          map (fun o -> {|{"v":1,"op":"run","scenario":|} ^ o ^ "}") gen_fuzz_object;
          gen_fuzz_mutant;
        ])
    (fun text ->
      let parsed = Json.parse text in
      if parsed <> Json_oracle.parse text then QCheck2.Test.fail_reportf "parse differs"
      else
        match parsed with
        | Error _ -> true
        | Ok j ->
            List.for_all
              (fun obj ->
                let got = Scenario.of_json obj and want = Scenario_oracle.of_json obj in
                got = want
                || QCheck2.Test.fail_reportf "of_json %s: got %s, want %s"
                     (Json.to_string obj)
                     (match got with Ok s -> Scenario.canonical s | Error e -> e)
                     (match want with Ok s -> Scenario.canonical s | Error e -> e))
              (j :: Option.to_list (Json.member "scenario" j)))

(* An integral float parameter prints as an integer ("p":1); the
   decoder reads it back as the float the mitigation declares. *)
let test_integral_float_param () =
  let trace = Lazy.force fuzz_trace_file in
  let s =
    Scenario.make ~trace ~mitigation:"para"
      ~mit_params:[ ("p", Ptg_mitigations.Registry.Float 1.0) ]
      Scenario.Trace
  in
  let text = Json.to_string (Scenario.to_json s) in
  match Result.bind (Json.parse text) Scenario.of_json with
  | Ok back -> Alcotest.(check string) text (Scenario.hash s) (Scenario.hash back)
  | Error e -> Alcotest.failf "%s rejected: %s" text e

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hash_spelling_invariant; prop_jobs_excluded; prop_defaults_resolved;
      prop_decoder_fuzz;
      prop_decoder_matches_oracle;
    ]
  @ [
      Alcotest.test_case "golden set hashes are distinct" `Quick
        test_golden_distinct;
      Alcotest.test_case "validate rejects bad scenarios" `Quick
        test_validate_rejects;
      Alcotest.test_case "fullsys machine choice survives the wire" `Quick
        test_machine_choice_round_trip;
      Alcotest.test_case "machine choice rejected on other kinds" `Quick
        test_machine_choice_other_kind;
      Alcotest.test_case "iterations and trials rejected on other kinds" `Quick
        test_sizes_other_kind;
      Alcotest.test_case "integral float parameter survives the wire" `Quick
        test_integral_float_param;
    ]
