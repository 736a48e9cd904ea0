module Json = Ptg_util.Json

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let parse_err s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "parse %S: expected an error" s
  | Error e -> e

let test_scalars () =
  Alcotest.(check bool) "null" true (parse_ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse_ok " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (parse_ok "42" = Json.Int 42L);
  Alcotest.(check bool) "negative int" true (parse_ok "-7" = Json.Int (-7L));
  Alcotest.(check bool) "int64 exact" true
    (parse_ok "9223372036854775807" = Json.Int Int64.max_int);
  Alcotest.(check bool) "float" true (parse_ok "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent" true (parse_ok "2e3" = Json.Float 2000.);
  Alcotest.(check bool) "string" true (parse_ok "\"hi\"" = Json.String "hi")

let test_escapes () =
  Alcotest.(check bool) "standard escapes" true
    (parse_ok {|"a\"b\\c\nd\te"|} = Json.String "a\"b\\c\nd\te");
  Alcotest.(check bool) "unicode escape (ascii)" true
    (parse_ok "\"\\u0041\"" = Json.String "A");
  Alcotest.(check bool) "unicode escape (two-byte utf8)" true
    (parse_ok "\"\\u00e9\"" = Json.String "\xc3\xa9")

let test_containers () =
  Alcotest.(check bool) "list" true
    (parse_ok "[1, 2, 3]" = Json.List [ Json.Int 1L; Json.Int 2L; Json.Int 3L ]);
  Alcotest.(check bool) "empty containers" true
    (parse_ok {|{"a":[],"b":{}}|}
    = Json.Obj [ ("a", Json.List []); ("b", Json.Obj []) ]);
  let j = parse_ok {| { "kind" : "fig6" , "seed" : 42 } |} in
  Alcotest.(check bool) "member" true
    (Json.member "kind" j = Some (Json.String "fig6"));
  Alcotest.(check bool) "missing member" true (Json.member "nope" j = None);
  Alcotest.(check (list string)) "keys keep order" [ "kind"; "seed" ] (Json.keys j)

let test_errors () =
  List.iter
    (fun s -> ignore (parse_err s))
    [
      ""; "{"; "[1,"; "{\"a\":}"; "{\"a\" 1}"; "nul"; "\"unterminated";
      "01"; "1.2.3"; "{\"a\":1} trailing"; "{'a':1}"; "\"bad \\x escape\"";
    ]

let test_roundtrip () =
  let j =
    Json.Obj
      [
        ("v", Json.Int 1L);
        ("op", Json.String "run");
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Float 0.5; Json.String "a\"b\n" ]);
      ]
  in
  let s = Json.to_string j in
  Alcotest.(check bool) "compact form survives reparse" true (parse_ok s = j);
  Alcotest.(check string) "compact form is stable"
    s
    (Json.to_string (parse_ok s))

(* Regression for the non-finite hole: [to_string (Float nan)] used to
   print the bare token "nan" (invalid JSON the parser itself rejects),
   and "1e999" used to parse to [Float infinity], which could then never
   re-serialize. Both directions must reject. *)
let test_non_finite_rejected () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | s -> Alcotest.failf "emitted %S for non-finite %h" s f
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ];
  (* Non-finite inside a container must not slip through either. *)
  (match Json.to_string (Json.Obj [ ("x", Json.Float nan) ]) with
  | s -> Alcotest.failf "emitted %S for nested nan" s
  | exception Invalid_argument _ -> ());
  List.iter
    (fun s ->
      let e = parse_err s in
      Alcotest.(check bool)
        (Printf.sprintf "parse %S names finiteness (got %S)" s e)
        true
        (let sub = "finite" in
         let n = String.length sub in
         let rec go i =
           i + n <= String.length e && (String.sub e i n = sub || go (i + 1))
         in
         go 0))
    [ "1e999"; "-1e999"; "2e308"; String.make 400 '9' ]

(* Any finite float round-trips exactly through %.17g; any non-finite
   one is refused at the emit boundary. The generator forces the
   non-finite corner cases in, so this property fails before the fix. *)
let prop_float_roundtrip =
  QCheck.Test.make ~count:500 ~name:"floats: finite round-trip, non-finite rejected"
    (QCheck.make
       ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         frequency
           [ (1, oneofl [ nan; infinity; neg_infinity ]); (5, float) ]))
    (fun f ->
      if Float.is_finite f then
        match Json.parse (Json.to_string (Json.Float f)) with
        | Ok (Json.Float g) -> g = f
        | Ok (Json.Int i) ->
            (* %.17g prints integral floats without a point ("3"). *)
            Int64.to_float i = f
        | _ -> false
      else
        match Json.to_string (Json.Float f) with
        | _ -> false
        | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the run-copying codec against the reference   *)
(* character-at-a-time one ({!Json_oracle})                            *)
(* ------------------------------------------------------------------ *)

module Oracle = Json_oracle
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario

(* Strings over every byte, built mostly from the pieces an escaper and
   an unescaper treat specially. *)
let gen_wire_string =
  let open QCheck2.Gen in
  let piece =
    frequency
      [
        (3, map (String.make 1) char);
        ( 4,
          oneofl
            [ "\""; "\\"; "\\u"; "\\u00e9"; "\\\""; "\n"; "\r"; "\t"; "\b"; "\012";
              "\000"; "\x1f"; "\x7f"; "\xc3\xa9"; "/"; "a"; "plain text "; "|  1.32% |" ] );
        (1, string_size ~gen:char (int_bound 12));
      ]
  in
  map (String.concat "") (list_size (int_bound 10) piece)

let gen_json =
  let open QCheck2.Gen in
  let scalar =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        ( 3,
          map (fun i -> Json.Int i)
            (oneof
               [
                 map Int64.of_int (int_range (-1000) 1000);
                 ui64;
                 oneofl
                   [ Int64.max_int; Int64.min_int; 0L; -1L; 4611686018427387903L;
                     -4611686018427387904L; 4611686018427387904L; 999999999999999999L;
                     1000000000000000000L; -999999999999999999L ];
               ]) );
        ( 2,
          map (fun f -> Json.Float f)
            (frequency [ (8, float); (1, oneofl [ nan; infinity; neg_infinity; -0.0 ]) ]) );
        (4, map (fun s -> Json.String s) gen_wire_string);
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair gen_wire_string (self (depth - 1)))) );
             ])

let printed f v =
  match f v with s -> Ok s | exception Invalid_argument m -> Error m

let prop_writer_matches_oracle =
  QCheck2.Test.make ~count:2000 ~name:"writer matches the reference byte for byte"
    ~print:Oracle.(fun v -> match printed to_string v with Ok s -> s | Error m -> m)
    gen_json
    (fun v -> printed Json.to_string v = printed Oracle.to_string v)

let prop_escape_matches_oracle =
  QCheck2.Test.make ~count:2000 ~name:"escape matches the reference"
    ~print:String.escaped gen_wire_string
    (fun s -> Json.escape s = Oracle.escape s)

(* Real frames: serve-mix-shaped requests, and replies carrying a real
   rendered result (a one-workload Figure 6 row). *)
let real_result =
  lazy
    (Scenario.run_to_string
       (Scenario.make ~seed:42_000L ~reduced:true ~workloads:[ "mcf" ] ~instrs:2000
          ~warmup:500 Scenario.Fig6))

let real_frames =
  lazy
    (let sc i =
       Scenario.make ~seed:(Int64.of_int (42_000 + i)) ~reduced:true
         ~workloads:[ List.nth Ptg_workloads.Workload.names (i mod 3) ]
         ~instrs:2000 ~warmup:500 Scenario.Fig6
     in
     let result = Lazy.force real_result in
     [
       Protocol.encode_request ~id:"r" (Protocol.Run (sc 0));
       Protocol.encode_request ~id:"r\"1" ~v:2 (Protocol.Run_stream (sc 1));
       Protocol.encode_request ~v:2 (Protocol.Hello 2);
       Protocol.encode_request ~v:2 (Protocol.Cancel "r\\0");
       Protocol.encode_response ~id:"r"
         (Protocol.Result { cache = Protocol.Hit; hash = Scenario.hash (sc 0); result });
       Protocol.encode_response ~v:2 (Protocol.Progress { done_count = 3; total = 7 });
       Protocol.encode_response (Protocol.Stats_reply [ ("served", 3.); ("p50_us", 61.25) ]);
       Protocol.encode_response (Protocol.Error_reply "unknown workload \"zzz\"\n\t\001");
       {| { "v" : 1 , "op" : "run" , "scenario" : { "kind" : "fig6" , "seed" : -0 , "x" : [ 1.5e3 , true , null , "é\ud800\/" ] } } |};
     ])

let gen_parse_input =
  let open QCheck2.Gen in
  let frame = map (fun i -> List.nth (Lazy.force real_frames) i) (int_bound 8) in
  let soup = "{}[]\",:\\ u0123456789abcdefABCDEF.-+eEntrlsx\n\t\r/\000\x1f\xc3" in
  frequency
    [
      (2, string_size ~gen:char (int_bound 48));
      (2, string_size ~gen:(map (String.get soup) (int_bound (String.length soup - 1))) (int_bound 48));
      (3, map2 (fun f k -> String.sub f 0 (k mod (String.length f + 1))) frame nat);
      ( 3,
        map2
          (List.fold_left Test_server_scenario.mutate)
          frame
          (list_size (int_range 1 4) (triple nat char (int_bound 3))) );
      (2, map (fun v -> match printed Oracle.to_string v with Ok s -> s | Error m -> m) gen_json);
    ]

let prop_parser_matches_oracle =
  QCheck2.Test.make ~count:3000
    ~name:"parser matches the reference: same value or same error and offset"
    ~print:String.escaped gen_parse_input
    (fun s -> Json.parse s = Oracle.parse s)

let prop_member_matches_oracle =
  QCheck2.Test.make ~count:500 ~name:"member and keys match the reference"
    QCheck2.Gen.(pair gen_json (oneof [ gen_wire_string; oneofl [ "v"; "id"; "op"; "" ] ]))
    (fun (v, key) ->
      (* Physical equality: both return the field's own value, and a nan
         inside it would fail a structural comparison. *)
      (match (Json.member key v, Oracle.member key v) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false)
      && Json.keys v = Oracle.keys v)

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "string escapes" `Quick test_escapes;
    Alcotest.test_case "containers and member access" `Quick test_containers;
    Alcotest.test_case "malformed inputs rejected" `Quick test_errors;
    Alcotest.test_case "print/parse round trip" `Quick test_roundtrip;
    Alcotest.test_case "non-finite floats rejected both ways" `Quick
      test_non_finite_rejected;
    QCheck_alcotest.to_alcotest prop_float_roundtrip;
    QCheck_alcotest.to_alcotest prop_writer_matches_oracle;
    QCheck_alcotest.to_alcotest prop_escape_matches_oracle;
    QCheck_alcotest.to_alcotest prop_parser_matches_oracle;
    QCheck_alcotest.to_alcotest prop_member_matches_oracle;
  ]
