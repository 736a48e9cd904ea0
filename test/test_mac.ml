open Ptg_crypto

let key = Qarma.expand_key ~w0:(Block128.of_int64 0x1111L) (Block128.of_int64 0x2222L)
let line_a = Ptg_pte.Line.init (fun i -> Int64.of_int ((i * 7) + 1))
let mac_testable = Alcotest.testable Mac.pp Mac.equal

let test_well_formed () =
  let m = Mac.compute key ~addr:0x1000L line_a in
  Alcotest.(check bool) "hi32 fits 32 bits" true (Mac.is_well_formed m)

let test_deterministic () =
  Alcotest.check mac_testable "same inputs same MAC"
    (Mac.compute key ~addr:0x1000L line_a)
    (Mac.compute key ~addr:0x1000L line_a)

let test_addr_binding () =
  Alcotest.(check bool) "different address different MAC" false
    (Mac.equal (Mac.compute key ~addr:0x1000L line_a) (Mac.compute key ~addr:0x1040L line_a))

let test_data_binding () =
  let line_b = Ptg_pte.Line.copy line_a in
  Ptg_pte.Line.set line_b 3 (Int64.logxor (Ptg_pte.Line.get line_b 3) 4L);
  Alcotest.(check bool) "different data different MAC" false
    (Mac.equal (Mac.compute key ~addr:0x1000L line_a) (Mac.compute key ~addr:0x1000L line_b))

let test_chunk_position_binding () =
  (* Swapping the contents of two chunks must change the MAC — A_i binds
     the chunk index. *)
  let l1 = Ptg_pte.Line.of_words [| 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L |] in
  let l2 = Ptg_pte.Line.of_words [| 3L; 4L; 1L; 2L; 5L; 6L; 7L; 8L |] in
  Alcotest.(check bool) "chunk swap detected" false
    (Mac.equal (Mac.compute key ~addr:0x40L l1) (Mac.compute key ~addr:0x40L l2))

let test_line_validation () =
  Alcotest.check_raises "line must be 8 words"
    (Invalid_argument "Mac.compute: line must be 8 words") (fun () ->
      ignore (Mac.compute key ~addr:0L (Bytes.make 56 '\000')))

let test_compute_zero () =
  Alcotest.check mac_testable "mac-zero = MAC(0-line, addr 0)"
    (Mac.compute key ~addr:0L (Ptg_pte.Line.create ()))
    (Mac.compute_zero key)

let test_hamming_soft_match () =
  let m = Mac.compute key ~addr:0L line_a in
  Alcotest.(check int) "hamming self" 0 (Mac.hamming m m);
  let m1 = Mac.flip_bit m 10 in
  Alcotest.(check int) "hamming 1" 1 (Mac.hamming m m1);
  Alcotest.(check bool) "soft k=0 exact" false (Mac.soft_match ~k:0 m m1);
  Alcotest.(check bool) "soft k=1 tolerates" true (Mac.soft_match ~k:1 m m1);
  let m5 = List.fold_left Mac.flip_bit m [ 0; 20; 40; 70; 95 ] in
  Alcotest.(check bool) "soft k=4 rejects 5 flips" false (Mac.soft_match ~k:4 m m5);
  Alcotest.(check bool) "soft k=5 accepts 5 flips" true (Mac.soft_match ~k:5 m m5);
  Alcotest.check_raises "negative k" (Invalid_argument "Mac.soft_match: negative k")
    (fun () -> ignore (Mac.soft_match ~k:(-1) m m))

let test_truncate () =
  let m = Mac.compute key ~addr:0L line_a in
  let t64 = Mac.truncate ~width:64 m in
  Alcotest.(check int64) "hi32 zeroed at width 64" 0L t64.Mac.hi32;
  Alcotest.(check int64) "lo preserved" m.Mac.lo t64.Mac.lo;
  let t96 = Mac.truncate ~width:96 m in
  Alcotest.check mac_testable "width 96 is identity" m t96;
  let t12 = Mac.truncate ~width:12 m in
  Alcotest.(check int64) "low 12 bits only" (Int64.logand m.Mac.lo 0xFFFL) t12.Mac.lo;
  Alcotest.check_raises "width 0" (Invalid_argument "Mac.truncate: width") (fun () ->
      ignore (Mac.truncate ~width:0 m))

let test_flip_bit_ranges () =
  let m = Mac.zero in
  let m' = Mac.flip_bit m 95 in
  Alcotest.(check int64) "bit 95 lives in hi32" 0x8000_0000L m'.Mac.hi32;
  Alcotest.check_raises "bit 96 invalid" (Invalid_argument "Mac.flip_bit: bit index")
    (fun () -> ignore (Mac.flip_bit m 96))

let test_split12_layout () =
  (* slice 0 carries MAC bits 0..11 *)
  let m = { Mac.hi32 = 0L; lo = 0xABCL } in
  let s = Mac.split12 m in
  Alcotest.(check int) "slice 0" 0xABC s.(0);
  Alcotest.(check int) "slice 1 empty" 0 s.(1);
  (* slice 5 straddles the 64-bit boundary (bits 60..71) *)
  let m2 = { Mac.hi32 = 0xFFL; lo = Int64.shift_left 0xFL 60 } in
  let s2 = Mac.split12 m2 in
  Alcotest.(check int) "straddling slice" 0xFFF s2.(5)

let gen_mac =
  QCheck2.Gen.map
    (fun (hi, lo) -> { Mac.hi32 = Int64.logand hi 0xFFFFFFFFL; lo })
    QCheck2.Gen.(pair int64 int64)

let prop_split_join =
  QCheck2.Test.make ~name:"join12 inverts split12" ~count:500 gen_mac (fun m ->
      Mac.equal (Mac.join12 (Mac.split12 m)) m)

let prop_split_pieces_width =
  QCheck2.Test.make ~name:"split12 pieces fit 12 bits" ~count:300 gen_mac (fun m ->
      Array.for_all (fun p -> p >= 0 && p < 4096) (Mac.split12 m))

(* One ctx shared across all samples: stale state would break agreement. *)
let shared_ctx = Mac.ctx ()

let gen_line =
  QCheck2.Gen.(map Ptg_pte.Line.of_words (array_size (return 8) int64))

let prop_compute_with_agrees =
  QCheck2.Test.make ~name:"compute_with agrees with compute" ~count:300
    QCheck2.Gen.(pair int64 gen_line)
    (fun (addr, line) ->
      Mac.equal (Mac.compute_with shared_ctx key ~addr line) (Mac.compute key ~addr line)
      && Mac.equal (Mac.compute key ~addr line)
           (Qarma_ref.mac key ~addr (Ptg_pte.Line.to_words line)))

let prop_compute_with_agrees_fresh_keys =
  QCheck2.Test.make ~name:"compute_with agrees under random keys" ~count:50
    QCheck2.Gen.(triple int64 int64 gen_line)
    (fun (seed, addr, line) ->
      let rng = Ptg_util.Rng.create seed in
      let k = Qarma.key_of_rng rng in
      Mac.equal (Mac.compute_with shared_ctx k ~addr line) (Mac.compute k ~addr line))

let prop_hamming_symmetric =
  QCheck2.Test.make ~name:"hamming symmetric" ~count:300
    QCheck2.Gen.(pair gen_mac gen_mac)
    (fun (a, b) -> Mac.hamming a b = Mac.hamming b a)

let suite =
  [
    Alcotest.test_case "well formed" `Quick test_well_formed;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "address binding" `Quick test_addr_binding;
    Alcotest.test_case "data binding" `Quick test_data_binding;
    Alcotest.test_case "chunk position binding" `Quick test_chunk_position_binding;
    Alcotest.test_case "line validation" `Quick test_line_validation;
    Alcotest.test_case "compute_zero" `Quick test_compute_zero;
    Alcotest.test_case "hamming & soft match" `Quick test_hamming_soft_match;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "flip_bit ranges" `Quick test_flip_bit_ranges;
    Alcotest.test_case "split12 layout" `Quick test_split12_layout;
    QCheck_alcotest.to_alcotest prop_split_join;
    QCheck_alcotest.to_alcotest prop_split_pieces_width;
    QCheck_alcotest.to_alcotest prop_hamming_symmetric;
    QCheck_alcotest.to_alcotest prop_compute_with_agrees;
    QCheck_alcotest.to_alcotest prop_compute_with_agrees_fresh_keys;
  ]
