(* Codec primitives: every value that goes through a writer must come
   back through a reader, and every malformed input must be rejected
   with [Invalid_argument] — never a crash, never a silent wrong
   value. *)

module Codec = Ptg_snapshot.Codec

(* A heterogeneous value stream: encoding then decoding the same typed
   sequence must reproduce it exactly. *)
type value =
  | Varint of int
  | Int of int
  | Bool of bool
  | I64 of int64
  | Float of float
  | Str of string
  | List64 of int64 list
  | OptStr of string option

let put b = function
  | Varint n -> Codec.put_varint b n
  | Int n -> Codec.put_int b n
  | Bool v -> Codec.put_bool b v
  | I64 v -> Codec.put_i64 b v
  | Float v -> Codec.put_float b v
  | Str s -> Codec.put_string b s
  | List64 l -> Codec.put_list b Codec.put_i64 l
  | OptStr o -> Codec.put_option b Codec.put_string o

let get r = function
  | Varint _ -> Varint (Codec.get_varint r)
  | Int _ -> Int (Codec.get_int r)
  | Bool _ -> Bool (Codec.get_bool r)
  | I64 _ -> I64 (Codec.get_i64 r)
  | Float _ -> Float (Codec.get_float r)
  | Str _ -> Str (Codec.get_string r)
  | List64 _ -> List64 (Codec.get_list r Codec.get_i64)
  | OptStr _ -> OptStr (Codec.get_option r Codec.get_string)

let print_value = function
  | Varint n -> Printf.sprintf "Varint %d" n
  | Int n -> Printf.sprintf "Int %d" n
  | Bool v -> Printf.sprintf "Bool %b" v
  | I64 v -> Printf.sprintf "I64 %Ld" v
  | Float v -> Printf.sprintf "Float %h" v
  | Str s -> Printf.sprintf "Str %S" s
  | List64 l ->
      Printf.sprintf "List64 [%s]" (String.concat ";" (List.map Int64.to_string l))
  | OptStr o -> (
      match o with None -> "OptStr None" | Some s -> Printf.sprintf "OptStr %S" s)

let value_gen =
  let open QCheck2.Gen in
  let str = string_size ~gen:(char_range '\000' '\255') (int_bound 12) in
  oneof
    [
      map (fun n -> Varint n) (oneof [ int_bound 127; int_bound max_int ]);
      (* Zigzag doubles the magnitude, so the encodable domain is
         |n| < 2^61. *)
      map (fun n -> Int n)
        (oneof [ int_range (-1000) 1000; int_range (-(1 lsl 60)) (1 lsl 60) ]);
      map (fun v -> Bool v) bool;
      map (fun v -> I64 v) (map Int64.of_int int);
      (* Any finite float: the codec ships the IEEE bits verbatim. *)
      map (fun v -> Float v) (float_bound_inclusive 1e300);
      map (fun s -> Str s) str;
      map (fun l -> List64 l) (list_size (int_bound 6) (map Int64.of_int int));
      map (fun o -> OptStr o) (opt str);
    ]

let encode values =
  let b = Codec.writer () in
  List.iter (put b) values;
  Codec.contents b

let prop_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips any typed value stream" ~count:500
    ~print:(fun vs -> String.concat "; " (List.map print_value vs))
    QCheck2.Gen.(list_size (int_range 0 20) value_gen)
    (fun values ->
      let r = Codec.reader ~what:"<memory>" (encode values) in
      let back = List.map (get r) values in
      Codec.expect_end r;
      back = values)

(* Decoding consumes exactly the encoded bytes, so every strict prefix
   must fail — there is no short input a full decode quietly accepts. *)
let prop_truncation_rejected =
  QCheck2.Test.make ~name:"every strict prefix is rejected" ~count:200
    ~print:(fun vs -> String.concat "; " (List.map print_value vs))
    QCheck2.Gen.(list_size (int_range 1 10) value_gen)
    (fun values ->
      let full = encode values in
      List.for_all
        (fun cut ->
          let r =
            Codec.reader ~what:"<memory>" (String.sub full 0 cut)
          in
          match
            List.iter (fun v -> ignore (get r v)) values;
            Codec.expect_end r
          with
          | () -> false
          | exception Invalid_argument _ -> true)
        (List.init (String.length full) Fun.id))

let test_varint_overflow () =
  (* Ten continuation bytes would shift past 62 bits: must be rejected
     before any shift overflows. *)
  let r = Codec.reader ~what:"<memory>" (String.make 10 '\xff') in
  Alcotest.(check bool)
    "overlong varint rejected" true
    (match Codec.get_varint r with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "negative varint rejected at encode" true
    (match Codec.put_varint (Codec.writer ()) (-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_trailing_bytes () =
  let b = Codec.writer () in
  Codec.put_varint b 7;
  let r = Codec.reader ~what:"<memory>" (Codec.contents b ^ "x") in
  ignore (Codec.get_varint r);
  Alcotest.(check bool)
    "expect_end rejects trailing bytes" true
    (match Codec.expect_end r with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_zigzag_boundaries () =
  List.iter
    (fun n ->
      let b = Codec.writer () in
      Codec.put_int b n;
      let r = Codec.reader ~what:"<memory>" (Codec.contents b) in
      Alcotest.(check int) (Printf.sprintf "int %d" n) n (Codec.get_int r);
      Codec.expect_end r)
    [ 0; -1; 1; 1 lsl 30; -(1 lsl 30); max_int / 2; -(max_int / 2) ]

let test_fnv1a64_vectors () =
  (* Published FNV-1a 64 test vectors pin the hash the trailer stores. *)
  Alcotest.(check int64)
    "empty" 0xcbf29ce484222325L (Codec.fnv1a64 "");
  Alcotest.(check int64) "\"a\"" 0xaf63dc4c8601ec8cL (Codec.fnv1a64 "a");
  Alcotest.(check int64)
    "\"foobar\"" 0x85944171f73967e8L
    (Codec.fnv1a64 "foobar")

(* A range hashes exactly like the copy of it, and the loop keeps its
   accumulator unboxed: hashing 64 KiB allocates only the result. *)
let test_fnv1a64_range () =
  let s = String.init 65536 (fun i -> Char.chr ((i * 131) land 0xff)) in
  List.iter
    (fun (pos, len) ->
      Alcotest.(check int64)
        (Printf.sprintf "pos %d len %d" pos len)
        (Codec.fnv1a64 (String.sub s pos len))
        (Codec.fnv1a64 ~pos ~len s))
    [ (0, 0); (0, 65536); (5, 100); (65535, 1); (65536, 0) ];
  Alcotest.(check int64) "pos alone runs to the end"
    (Codec.fnv1a64 (String.sub s 7 (65536 - 7)))
    (Codec.fnv1a64 ~pos:7 s);
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "pos %d len %d rejected" pos len)
        true
        (match Codec.fnv1a64 ~pos ~len s with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (-1, 1); (0, -1); (65536, 1); (1, 65536) ];
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Codec.fnv1a64 s));
  let words = Gc.minor_words () -. before in
  if words > 16.0 then Alcotest.failf "fnv1a64 of 64 KiB allocated %.0f words" words

(* A crafted DRAM section with a negative activation count is corrupt
   input, rejected when decoded rather than restored into the device. *)
let test_negative_activation_count () =
  let s = Ptg_dram.Dram.state (Ptg_dram.Dram.create ()) in
  let banks = Array.map Array.copy s.Ptg_dram.Dram.s_banks in
  banks.(0).(2) <- { (banks.(0).(2)) with Ptg_dram.Dram.bs_activations = [ (5, -4) ] };
  let b = Codec.writer () in
  Ptg_snapshot.Sections.put_dram b { s with Ptg_dram.Dram.s_banks = banks };
  let r = Codec.reader ~what:"crafted" (Codec.contents b) in
  match Ptg_snapshot.Sections.get_dram r with
  | _ -> Alcotest.fail "negative count decoded"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the count" msg)
        true
        (String.length msg > 0
        && List.exists
             (fun w -> w = "-4")
             (String.split_on_char ' ' msg))

(* A damaged element count larger than the bytes left is corrupt input,
   rejected before it can size an allocation. Each decode runs on a
   domain of its own, so the allocation counted is that decode's alone:
   no test-runner thread and no other domain allocates on it. *)
let test_oversized_count () =
  let b = Codec.writer () in
  Codec.put_varint b (1 lsl 40);
  Codec.put_i64 b 0L;
  let input = Codec.contents b in
  let rejected get =
    let r = Codec.reader ~what:"crafted" input in
    Domain.join
      (Domain.spawn (fun () ->
           let before = Gc.allocated_bytes () in
           let rejected =
             match get r with _ -> false | exception Invalid_argument _ -> true
           in
           (rejected, Gc.allocated_bytes () -. before)))
  in
  let array_rejected, array_bytes = rejected (fun r -> Codec.get_array r Codec.get_i64) in
  let list_rejected, list_bytes = rejected (fun r -> Codec.get_list r Codec.get_i64) in
  Alcotest.(check bool) "array count rejected" true array_rejected;
  Alcotest.(check bool) "list count rejected" true list_rejected;
  let allocated = array_bytes +. list_bytes in
  if allocated > 1e6 then Alcotest.failf "rejecting allocated %.0f bytes" allocated

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation_rejected;
    Alcotest.test_case "varint overflow rejected" `Quick test_varint_overflow;
    Alcotest.test_case "trailing bytes rejected" `Quick test_trailing_bytes;
    Alcotest.test_case "zigzag boundaries" `Quick test_zigzag_boundaries;
    Alcotest.test_case "fnv1a64 test vectors" `Quick test_fnv1a64_vectors;
    Alcotest.test_case "fnv1a64 over a range" `Quick test_fnv1a64_range;
    Alcotest.test_case "negative activation count rejected" `Quick
      test_negative_activation_count;
    Alcotest.test_case "oversized count rejected" `Quick test_oversized_count;
  ]
