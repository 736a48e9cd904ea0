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
  ]
