(* Registry conformance: each built-in plugin must reproduce the
   refresh and flip counts of the hard-wired constructors it replaced
   (pinned below, recorded from those constructors on the same attack),
   the attack experiments routed through it must keep every number of
   the paper's matrix, and the schema layer must reject every malformed
   spec with an error naming the valid alternatives. *)

open Ptg_dram
open Ptg_rowhammer
open Ptg_mitigations
module Registry = Ptg_mitigations.Registry

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let setup () =
  let rng = Ptg_util.Rng.create 31L in
  let dram = Dram.create () in
  let fault = Fault_model.attach ~config:Fault_model.ddr4 ~rng dram in
  let g = Dram.geometry dram in
  let c = Geometry.decode g 0L in
  let victim = 800 in
  Dram.write_line dram
    (Geometry.encode g { c with Geometry.row = victim })
    (Ptg_pte.Line.of_words (Array.make 8 (-1L)));
  (dram, fault, victim)

let attack dram victim iterations =
  ignore
    (Attack.run dram ~channel:0 ~bank:0
       (Attack.Double_sided { victim })
       ~iterations ~start_time:0)

(* Drive a fresh DRAM device with a 30K-rotation double-sided attack
   under one mitigation and require the pinned refresh and flip counts. *)
let pinned name ~refreshes ~flips build =
  let dram, fault, victim = setup () in
  let m = build dram victim in
  attack dram victim 30_000;
  Alcotest.(check int)
    (name ^ ": refreshes") refreshes (Registry.refreshes_issued m);
  Alcotest.(check int) (name ^ ": flips") flips (Fault_model.flip_count fault)

let instantiate_exn ?params name ctx =
  match Registry.instantiate ?params name ctx with
  | Ok m -> m
  | Error e -> Alcotest.failf "instantiate %s: %s" name e

let of_spec_exn spec ctx =
  match Registry.of_spec spec ctx with
  | Ok m -> m
  | Error e -> Alcotest.failf "of_spec %s: %s" spec e

let test_names () =
  Alcotest.(check (list string))
    "built-ins in registration order"
    [ "trr"; "para"; "soft-trr"; "graphene" ]
    (Registry.names ())

let test_trr_differential () =
  pinned "trr" ~refreshes:722 ~flips:0 (fun dram _ ->
      instantiate_exn "trr" (Registry.ctx dram));
  pinned "trr sampler_size=2" ~refreshes:722 ~flips:0 (fun dram _ ->
      instantiate_exn
        ~params:[ ("sampler_size", Registry.Int 2) ]
        "trr" (Registry.ctx dram))

let test_para_differential () =
  pinned "para" ~refreshes:234 ~flips:0 (fun dram _ ->
      instantiate_exn
        ~params:[ ("p", Registry.Float 0.002) ]
        "para"
        (Registry.ctx ~rng:(Ptg_util.Rng.create 8L) dram))

let test_graphene_differential () =
  pinned "graphene" ~refreshes:48 ~flips:0 (fun dram _ ->
      instantiate_exn
        ~params:[ ("threshold", Registry.Int 2500) ]
        "graphene" (Registry.ctx dram))

let test_soft_trr_differential () =
  pinned "soft-trr" ~refreshes:24 ~flips:0 (fun dram victim ->
      instantiate_exn "soft-trr"
        (Registry.ctx ~pt_row:(fun ~channel:_ ~bank:_ ~row -> row = victim) dram))

let test_of_spec_differential () =
  (* The CLI's spec string is a second construction path. *)
  pinned "para via spec string" ~refreshes:234 ~flips:0 (fun dram _ ->
      of_spec_exn "para:p=0.002" (Registry.ctx ~rng:(Ptg_util.Rng.create 8L) dram))

(* The attack-vs-mitigation matrix (one row per scenario: attack,
   mitigation, refreshes, flips, detected, corrected), pinned at 60K
   iterations. *)
let test_attack_matrix_pinned () =
  let expected =
    [
      ("double-sided", "none", 0, 1163, 89, 38);
      ("double-sided", "TRR", 1444, 0, 0, 0);
      ("double-sided", "PARA", 264, 0, 0, 0);
      ("double-sided", "Graphene(T=2500)", 96, 0, 0, 0);
      ("sync many-sided (TRRespass)", "TRR", 1444, 1073, 86, 41);
      ("sync many-sided (TRRespass)", "Graphene(T=2500)", 88, 0, 0, 0);
      ("half-double", "none", 0, 0, 0, 0);
      ("half-double", "TRR", 1444, 0, 0, 0);
      ("double-sided", "SoftTRR", 48, 0, 0, 0);
      ("half-double", "SoftTRR+TRR", 0, 0, 0, 0);
      ("double-sided @ RTH 4.8K", "Graphene(T=2500)", 96, 10287, 128, 0);
      ("double-sided @ RTH 4.8K", "Graphene(T=1200)", 200, 0, 0, 0);
    ]
  in
  let r = Ptg_sim.Attacks_exp.run ~iterations:60_000 () in
  let got =
    List.map
      (fun (row : Ptg_sim.Attacks_exp.row) ->
        ( row.attack,
          row.mitigation,
          row.mitigation_refreshes,
          row.bit_flips,
          row.detected,
          row.corrected ))
      r.rows
  in
  let pp (a, m, r, f, d, c) = Printf.sprintf "%s/%s %d %d %d %d" a m r f d c in
  Alcotest.(check (list string))
    "matrix rows" (List.map pp expected) (List.map pp got)

let test_blacksmith_pinned () =
  let r =
    Blacksmith_campaign.campaign ~tries:3 ~rng:(Ptg_util.Rng.create 7L)
      ~victim:900 ()
  in
  Alcotest.(check (list int))
    "tries, effective, total flips, best flips" [ 3; 1; 23; 23 ]
    [ r.tries; r.effective_patterns; r.total_flips; r.best_flips ];
  Alcotest.(check string)
    "report"
    "fuzzed 3 patterns against TRR: 1 effective, 23 total flips, best 23\n\
     best pattern: period=128: (row=899 f=128 ph=77 amp=4) (row=901 f=32 \
     ph=117 amp=2) (row=1100 f=16 ph=63 amp=1) (row=1102 f=128 ph=30 \
     amp=1) (row=1104 f=64 ph=81 amp=4) (row=1106 f=64 ph=120 amp=6)"
    (Format.asprintf "%a" Blacksmith_campaign.pp r)

let expect_error what result check =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: message is descriptive (got %S)" what msg)
        true (check msg)

let test_unknown_plugin () =
  expect_error "unknown name"
    (Registry.instantiate "bogus" (Registry.ctx (Dram.create ())))
    (fun m -> contains "bogus" m && contains "trr" m && contains "graphene" m)

let test_unknown_param () =
  expect_error "unknown key"
    (Registry.check_params "trr" [ ("zap", Registry.Int 1) ])
    (fun m -> contains "zap" m && contains "sampler_size" m)

let test_type_mismatch () =
  expect_error "float where int expected"
    (Registry.check_params "trr" [ ("sampler_size", Registry.Float 2.0) ])
    (fun m -> contains "sampler_size" m);
  expect_error "int where float expected"
    (Registry.check_params "para" [ ("p", Registry.Int 1) ])
    (fun m -> contains "p" m)

let test_out_of_range () =
  expect_error "sampler_size 0"
    (Registry.instantiate
       ~params:[ ("sampler_size", Registry.Int 0) ]
       "trr"
       (Registry.ctx (Dram.create ())))
    (contains "sampler_size");
  expect_error "para p out of (0,1]"
    (Registry.instantiate
       ~params:[ ("p", Registry.Float 1.5) ]
       "para"
       (Registry.ctx ~rng:(Ptg_util.Rng.create 1L) (Dram.create ())))
    (contains "p")

let test_missing_capabilities () =
  expect_error "para without rng"
    (Registry.instantiate "para" (Registry.ctx (Dram.create ())))
    (contains "random stream");
  expect_error "soft-trr without pt_row"
    (Registry.instantiate "soft-trr" (Registry.ctx (Dram.create ())))
    (contains "oracle")

let test_parse_spec () =
  (match Registry.parse_spec "para:p=0.002" with
  | Ok ("para", [ ("p", Registry.Float p) ]) ->
      Alcotest.(check (float 0.)) "p parsed" 0.002 p
  | Ok _ -> Alcotest.fail "unexpected parse shape"
  | Error e -> Alcotest.fail e);
  (match Registry.parse_spec "trr" with
  | Ok ("trr", []) -> ()
  | _ -> Alcotest.fail "bare name parses to no overrides");
  expect_error "malformed binding" (Registry.parse_spec "trr:sampler_size")
    (contains "sampler_size");
  expect_error "non-finite float" (Registry.parse_spec "para:p=inf")
    (contains "finite");
  expect_error "bad int" (Registry.parse_spec "trr:sampler_size=two")
    (contains "two")

let test_resolved_params () =
  (match Registry.resolved_params "graphene" [] with
  | Some [ ("counters", Registry.Int 128); ("threshold", Registry.Int 2500) ] ->
      ()
  | Some other ->
      Alcotest.failf "defaults wrong: %s"
        (String.concat ","
           (List.map
              (fun (k, v) -> k ^ "=" ^ Registry.value_to_string v)
              other))
  | None -> Alcotest.fail "graphene unknown");
  (match Registry.resolved_params "graphene" [ ("threshold", Registry.Int 9) ] with
  | Some [ ("counters", Registry.Int 128); ("threshold", Registry.Int 9) ] -> ()
  | _ -> Alcotest.fail "override not applied (or keys unsorted)");
  Alcotest.(check bool) "unknown plugin is None" true
    (Registry.resolved_params "bogus" [] = None)

let test_spec_help () =
  let help = Registry.spec_help () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "spec_help mentions %s" name)
        true (contains name help))
    (Registry.names ())

let suite =
  [
    Alcotest.test_case "built-in names" `Quick test_names;
    Alcotest.test_case "trr differential vs attach_trr" `Quick
      test_trr_differential;
    Alcotest.test_case "para differential vs attach_para" `Quick
      test_para_differential;
    Alcotest.test_case "graphene differential vs attach_graphene" `Quick
      test_graphene_differential;
    Alcotest.test_case "soft-trr differential vs attach_soft_trr" `Quick
      test_soft_trr_differential;
    Alcotest.test_case "spec-string differential" `Quick
      test_of_spec_differential;
    Alcotest.test_case "attack matrix pinned" `Slow test_attack_matrix_pinned;
    Alcotest.test_case "blacksmith campaign pinned" `Slow
      test_blacksmith_pinned;
    Alcotest.test_case "unknown plugin rejected" `Quick test_unknown_plugin;
    Alcotest.test_case "unknown param rejected" `Quick test_unknown_param;
    Alcotest.test_case "type mismatch rejected" `Quick test_type_mismatch;
    Alcotest.test_case "out-of-range values rejected" `Quick test_out_of_range;
    Alcotest.test_case "missing capabilities rejected" `Quick
      test_missing_capabilities;
    Alcotest.test_case "spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "resolved params" `Quick test_resolved_params;
    Alcotest.test_case "spec help covers every plugin" `Quick test_spec_help;
  ]
