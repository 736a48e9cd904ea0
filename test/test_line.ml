open Ptg_pte

let test_create () =
  let l = Line.create () in
  Alcotest.(check int) "8 words" 8 (Bytes.length l / 8);
  Alcotest.(check bool) "zero" true (Line.is_zero l)

let test_equal_copy () =
  let a = Line.init Int64.of_int in
  let b = Line.copy a in
  Alcotest.(check bool) "copy equal" true (Line.equal a b);
  Line.set b 0 99L;
  Alcotest.(check bool) "copy independent" false (Line.equal a b);
  Alcotest.(check int64) "original untouched" 0L (Line.get a 0)

let test_of_words () =
  Alcotest.check_raises "wrong length" (Invalid_argument "Line.of_words: need 8 words")
    (fun () -> ignore (Line.of_words (Array.make 9 0L)))

let test_bits () =
  let l = Line.create () in
  let l = Line.set_bit l 100 true in
  Alcotest.(check bool) "get set bit" true (Line.get_bit l 100);
  Alcotest.(check int64) "bit 100 in word 1" (Ptg_util.Bits.bit 36) (Line.get l 1);
  let l = Line.flip_bit l 100 in
  Alcotest.(check bool) "flip clears" false (Line.get_bit l 100);
  Alcotest.check_raises "bit 512 invalid" (Invalid_argument "Line.flip_bit: bit index")
    (fun () -> ignore (Line.flip_bit l 512))

let test_hamming () =
  let a = Line.create () in
  let b = Line.flip_bit (Line.flip_bit a 0) 511 in
  Alcotest.(check int) "hamming 2" 2 (Line.hamming a b);
  Alcotest.(check int) "hamming self" 0 (Line.hamming b b)

let test_line_addr () =
  Alcotest.(check int64) "aligns down" 0x1000L (Line.line_addr 0x103FL);
  Alcotest.(check int64) "already aligned" 0x1040L (Line.line_addr 0x1040L)

let gen_line = QCheck2.Gen.(map Line.of_words (array_size (return 8) int64))

let prop_flip_involution =
  QCheck2.Test.make ~name:"line flip_bit involution" ~count:300
    QCheck2.Gen.(pair gen_line (int_bound 511))
    (fun (l, i) -> Line.equal (Line.flip_bit (Line.flip_bit l i) i) l)

let prop_hamming_counts_flips =
  QCheck2.Test.make ~name:"hamming equals number of distinct flips" ~count:200
    QCheck2.Gen.(pair gen_line (list_size (int_range 0 20) (int_bound 511)))
    (fun (l, bits) ->
      let distinct = List.sort_uniq compare bits in
      let flipped = List.fold_left Line.flip_bit l distinct in
      Line.hamming l flipped = List.length distinct)

(* The line as the eight-word array it stands for: every operation
   agrees with the same operation written over [int64 array]. *)
module Model = struct
  let keep mask a = Array.map (Int64.logand mask) a
  let zero_under mask a = Array.for_all (fun w -> Int64.equal (Int64.logand w mask) 0L) a

  let hamming a b =
    Array.fold_left ( + ) 0 (Array.map2 Ptg_util.Bits.hamming a b)

  let update a i f =
    let b = Array.copy a in
    b.(i / 64) <- f b.(i / 64) (i mod 64);
    b

  let flip_bit a i = update a i Ptg_util.Bits.flip
  let set_bit a i v = update a i (fun w b -> Ptg_util.Bits.assign w b v)

  (* The printer of the array representation, verbatim. *)
  let pp fmt line =
    Format.fprintf fmt "@[<v>";
    Array.iteri (fun i w -> Format.fprintf fmt "[%d] %a@," i Ptg_util.Bits.pp_hex w) line;
    Format.fprintf fmt "@]"
end

let gen_words = QCheck2.Gen.(array_size (return 8) int64)

(* Words with long zero runs, so that masks and equality hit both ways. *)
let gen_sparse_words =
  QCheck2.Gen.(
    array_size (return 8)
      (oneof [ return 0L; map (Int64.shift_left 1L) (int_bound 63); int64 ]))

let prop_words_roundtrip =
  QCheck2.Test.make ~name:"line of_words/to_words/get agree with the array" ~count:300
    gen_words (fun a ->
      let l = Line.of_words a in
      Line.to_words l = a
      && Bytes.length l = Line.size_bytes
      && List.for_all (fun i -> Int64.equal (Line.get l i) a.(i)) (List.init 8 Fun.id)
      && List.for_all
           (fun i -> Int64.equal (Bytes.get_int64_le l (8 * i)) a.(i))
           (List.init 8 Fun.id))

let prop_set =
  QCheck2.Test.make ~name:"line set writes one word in place" ~count:300
    QCheck2.Gen.(triple gen_words (int_bound 7) int64)
    (fun (a, i, w) ->
      let l = Line.of_words a in
      Line.set l i w;
      let b = Array.copy a in
      b.(i) <- w;
      Line.to_words l = b)

let prop_keep_zero_under =
  QCheck2.Test.make ~name:"line keep/zero_under/is_zero agree with the array" ~count:300
    QCheck2.Gen.(pair gen_sparse_words int64)
    (fun (a, mask) ->
      let l = Line.of_words a in
      Line.to_words (Line.keep mask l) = Model.keep mask a
      && Line.zero_under mask l = Model.zero_under mask a
      && Line.is_zero l = Model.zero_under (-1L) a
      && Line.to_words l = a)

let prop_bits =
  QCheck2.Test.make ~name:"line hamming/flip_bit/set_bit/get_bit agree with the array"
    ~count:300
    QCheck2.Gen.(quad gen_words gen_sparse_words (int_bound 511) bool)
    (fun (a, b, i, v) ->
      let la = Line.of_words a and lb = Line.of_words b in
      Line.hamming la lb = Model.hamming a b
      && Line.to_words (Line.flip_bit la i) = Model.flip_bit a i
      && Line.to_words (Line.set_bit la i v) = Model.set_bit a i v
      && Line.get_bit la i = Ptg_util.Bits.get a.(i / 64) (i mod 64)
      && Line.to_words la = a)

let prop_equal =
  QCheck2.Test.make ~name:"line equal agrees with the array" ~count:300
    QCheck2.Gen.(pair gen_sparse_words gen_sparse_words)
    (fun (a, b) ->
      let la = Line.of_words a in
      Line.equal la (Line.of_words b) = (a = b)
      && Line.equal la (Line.of_words (Array.copy a))
      && not (Line.equal la (Bytes.sub la 0 56)))

let prop_pp =
  QCheck2.Test.make ~name:"line pp prints what the array printer did" ~count:100 gen_words
    (fun a ->
      Format.asprintf "%a" Line.pp (Line.of_words a) = Format.asprintf "%a" Model.pp a)

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "equal/copy" `Quick test_equal_copy;
    Alcotest.test_case "of_words" `Quick test_of_words;
    Alcotest.test_case "bit ops" `Quick test_bits;
    Alcotest.test_case "hamming" `Quick test_hamming;
    Alcotest.test_case "line_addr" `Quick test_line_addr;
    QCheck_alcotest.to_alcotest prop_flip_involution;
    QCheck_alcotest.to_alcotest prop_hamming_counts_flips;
    QCheck_alcotest.to_alcotest prop_words_roundtrip;
    QCheck_alcotest.to_alcotest prop_set;
    QCheck_alcotest.to_alcotest prop_keep_zero_under;
    QCheck_alcotest.to_alcotest prop_bits;
    QCheck_alcotest.to_alcotest prop_equal;
    QCheck_alcotest.to_alcotest prop_pp;
  ]
