(* Container envelope: magic | version | sections | FNV-1a trailer.
   [load (save x) = x] for any section list, and any single-byte damage
   anywhere in the file is rejected — the trailer hash covers the whole
   section region, the magic and version bytes are checked first. *)

module Snapshot = Ptg_snapshot.Snapshot

let with_tmp f =
  let path = Filename.temp_file "ptgs" ".ptgs" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let sections_gen =
  let open QCheck2.Gen in
  let bin = string_size ~gen:(char_range '\000' '\255') (int_bound 40) in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  list_size (int_bound 6)
    (map2 (fun name payload -> Snapshot.section ~name payload) name bin)

let print_sections sections =
  String.concat "; "
    (List.map
       (fun s ->
         Printf.sprintf "%s:%S" s.Snapshot.name s.Snapshot.payload)
       sections)

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string x) = x" ~count:300
    ~print:print_sections sections_gen
    (fun sections ->
      Snapshot.of_string ~what:"<memory>" (Snapshot.to_string sections)
      = sections)

let prop_file_roundtrip =
  QCheck2.Test.make ~name:"load (save x) = x" ~count:50 ~print:print_sections
    sections_gen
    (fun sections ->
      with_tmp (fun path ->
          Snapshot.save ~path sections;
          Snapshot.load ~path = sections))

(* Flip one byte anywhere: the load must fail. Byte 0-3 damage the
   magic, byte 4 the version, anything later either the section region
   (hash mismatch) or the trailer itself. *)
let prop_any_corruption_rejected =
  QCheck2.Test.make ~name:"any single flipped byte is rejected" ~count:100
    ~print:(fun (s, i) -> Printf.sprintf "(%s, byte %d)" (print_sections s) i)
    QCheck2.Gen.(pair sections_gen (int_bound 10_000))
    (fun (sections, i) ->
      let encoded = Bytes.of_string (Snapshot.to_string sections) in
      let i = i mod Bytes.length encoded in
      Bytes.set encoded i (Char.chr (Char.code (Bytes.get encoded i) lxor 0x01));
      match Snapshot.of_string ~what:"<memory>" (Bytes.to_string encoded) with
      | _ -> false
      | exception Invalid_argument _ -> true)

let prop_truncation_rejected =
  QCheck2.Test.make ~name:"every truncation is rejected" ~count:100
    ~print:print_sections sections_gen
    (fun sections ->
      let encoded = Snapshot.to_string sections in
      List.for_all
        (fun cut ->
          match
            Snapshot.of_string ~what:"<memory>" (String.sub encoded 0 cut)
          with
          | _ -> false
          | exception Invalid_argument _ -> true)
        (List.init (String.length encoded) Fun.id))

let test_trailing_bytes () =
  let encoded = Snapshot.to_string [ Snapshot.section ~name:"a" "xy" ] in
  Alcotest.(check bool)
    "appended byte rejected" true
    (match Snapshot.of_string ~what:"<memory>" (encoded ^ "z") with
    | _ -> false
    | exception Invalid_argument _ -> true)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_error_messages_name_input () =
  List.iter
    (fun (label, s) ->
      match Snapshot.of_string ~what:"victim.ptgs" s with
      | _ -> Alcotest.failf "%s accepted" label
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (label ^ " names the input")
            true
            (contains ~sub:"victim" msg))
    [
      ("bad magic", "XXXX\x01rest");
      ("empty input", "");
      ( "bad version",
        let good = Snapshot.to_string [] in
        "PTGS\xff" ^ String.sub good 5 (String.length good - 5) );
    ]

let prop_content_hash_tracks_bytes =
  QCheck2.Test.make ~name:"content hashes agree iff the bytes agree" ~count:200
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s | %s)" (print_sections a) (print_sections b))
    QCheck2.Gen.(pair sections_gen sections_gen)
    (fun (a, b) ->
      let same_hash = Snapshot.content_hash a = Snapshot.content_hash b in
      if a = b then same_hash
      else
        (* Distinct section lists: hashes may collide in principle, but
           the encodings must differ. *)
        Snapshot.to_string a <> Snapshot.to_string b)

let test_save_is_atomic_overwrite () =
  (* Saving over an existing snapshot replaces it completely — no
     leftover temp files, and the old content is unrecoverable. *)
  with_tmp (fun path ->
      let dir = Filename.dirname path in
      let census () =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun n ->
               String.length n >= 9 && String.sub n 0 9 = ".ptgs-tmp")
        |> List.length
      in
      let before = census () in
      Snapshot.save ~path [ Snapshot.section ~name:"gen" "one" ];
      Snapshot.save ~path [ Snapshot.section ~name:"gen" "two" ];
      Alcotest.(check bool)
        "second save wins" true
        (Snapshot.load ~path = [ Snapshot.section ~name:"gen" "two" ]);
      Alcotest.(check int) "no temp files leak" before (census ()))

(* Content hashes (checkpoint keys, scenario hashes) are printed with
   [Bits.to_hex]: always 16 lowercase hex digits, zero-padded. *)
let test_hash_hex () =
  Alcotest.(check string)
    "16 lowercase hex digits" "00000000000000ff"
    (Ptg_util.Bits.to_hex 255L)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_any_corruption_rejected;
    QCheck_alcotest.to_alcotest prop_truncation_rejected;
    QCheck_alcotest.to_alcotest prop_content_hash_tracks_bytes;
    Alcotest.test_case "trailing bytes rejected" `Quick test_trailing_bytes;
    Alcotest.test_case "errors name the input" `Quick
      test_error_messages_name_input;
    Alcotest.test_case "save overwrites atomically" `Quick
      test_save_is_atomic_overwrite;
    Alcotest.test_case "hash_hex format" `Quick test_hash_hex;
  ]
