open Ptg_util

let test_determinism () =
  let a = Rng.create 123L and b = Rng.create 123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 123L and b = Rng.create 124L in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.next a) (Rng.next b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy () =
  let a = Rng.create 5L in
  ignore (Rng.next a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next a) (Rng.next b)

let test_split_independence () =
  let a = Rng.create 5L in
  let b = Rng.split a in
  (* The split stream must not equal the parent's continuation. *)
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.next a) (Rng.next b)) then differs := true
  done;
  Alcotest.(check bool) "split differs from parent" true !differs

let test_int_bounds () =
  let rng = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  Alcotest.check_raises "int 0 invalid" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int rng 0))

let test_int64_bounds () =
  let rng = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.int64_bounded rng 1000L in
    if Int64.compare v 0L < 0 || Int64.compare v 1000L >= 0 then
      Alcotest.fail "int64_bounded out of bounds"
  done

let test_int64_small_bound_uniform () =
  (* Unbiased rejection sampling: each residue of a small bound must get
     ~1/bound of the mass. With n = 70K draws over bound 7, each bucket
     has sd ~92, so +-500 is a > 5-sigma tolerance. *)
  let rng = Rng.create 13L in
  let bound = 7 in
  let counts = Array.make bound 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let v = Int64.to_int (Rng.int64_bounded rng (Int64.of_int bound)) in
    counts.(v) <- counts.(v) + 1
  done;
  let expect = n / bound in
  Array.iteri
    (fun i c ->
      if abs (c - expect) > 500 then
        Alcotest.failf "residue %d: %d draws, expected ~%d" i c expect)
    counts

let test_int64_large_bounds () =
  (* Bounds near 2^63 reject close to half (or, at max_int, almost none)
     of the raw draws; the fixed accept condition must terminate and stay
     in range rather than discarding full valid blocks. *)
  let rng = Rng.create 17L in
  let check bound =
    for _ = 1 to 1000 do
      let v = Rng.int64_bounded rng bound in
      if Int64.compare v 0L < 0 || Int64.compare v bound >= 0 then
        Alcotest.failf "int64_bounded %Ld out of range: %Ld" bound v
    done
  in
  check (Int64.add (Int64.shift_left 1L 62) 3L);
  check Int64.max_int

let test_float_range () =
  let rng = Rng.create 11L in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_bernoulli_edges () =
  let rng = Rng.create 1L in
  for _ = 1 to 100 do
    if Rng.bernoulli rng 0.0 then Alcotest.fail "bernoulli 0 fired";
    if not (Rng.bernoulli rng 1.0) then Alcotest.fail "bernoulli 1 missed"
  done

let test_bernoulli_rate () =
  let rng = Rng.create 2L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if rate < 0.27 || rate > 0.33 then
    Alcotest.failf "bernoulli(0.3) rate %.3f out of tolerance" rate

let test_shuffle_permutation () =
  let rng = Rng.create 3L in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Array.sort compare b;
  Alcotest.(check (array int)) "shuffle is a permutation" a b

let test_choose () =
  let rng = Rng.create 4L in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choose rng a in
    if not (Array.exists (( = ) v) a) then Alcotest.fail "choose outside array"
  done;
  Alcotest.check_raises "choose empty" (Invalid_argument "Rng.choose") (fun () ->
      ignore (Rng.choose rng [||]))

let test_geometric_mean () =
  let rng = Rng.create 5L in
  let p = 0.2 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng p
  done;
  (* E[failures before first success] = (1-p)/p = 4 *)
  let mean = float_of_int !sum /. float_of_int n in
  if mean < 3.6 || mean > 4.4 then
    Alcotest.failf "geometric(0.2) mean %.2f, expected ~4" mean

let test_geometric_edge () =
  let rng = Rng.create 6L in
  Alcotest.(check int) "geometric p=1 is 0" 0 (Rng.geometric rng 1.0);
  Alcotest.check_raises "geometric p=0 invalid" (Invalid_argument "Rng.geometric")
    (fun () -> ignore (Rng.geometric rng 0.0))

(* Known answers: the first draws of each generator for three seeds,
   pinned so a change to how the draws compile (inlining, unboxing) or
   are written cannot move the streams every experiment is seeded
   from. Floats are compared bit for bit. *)
let known_answers =
  [
    ( 0L,
      [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L ],
      [ 0x1.aa9653c498b4ap-2; 0x1.774b5a943f085p-1; 0x1.ffdf06ebb3d79p-1 ],
      [ false; false; false; false; true; true; true; false ],
      [ 981783L; 334611L; 190579L ] );
    ( 42L,
      [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L ],
      [ 0x1.d9715a8e0766cp-1; 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1 ],
      [ false; false; false; false; false; true; false; false ],
      [ 297542L; 744561L; 426256L ] );
    ( 7919L,
      [ 0x74a41decdb6184abL; 0xf9b2ba7286d85582L; 0x01968d9fb77b48f2L ],
      [ 0x1.5cf30e40e4ap-3; 0x1.2b259c22e9e9p-2; 0x1.0d1add703b5cp-6 ],
      [ false; false; false; false; false; true; false; false ],
      [ 538012L; 259015L; 973116L ] );
  ]

let test_known_answers () =
  let bits = Alcotest.testable (fun fmt f -> Format.fprintf fmt "%h" f) (fun a b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  List.iter
    (fun (seed, next, float, bernoulli, bounded) ->
      let r = Rng.create seed in
      let draw n f = List.init n (fun _ -> f r) in
      let what = Printf.sprintf "seed %Ld: %s" seed in
      (* One stream, drawn in this order: next, float, bernoulli 0.3,
         int64_bounded 1000003. *)
      Alcotest.(check (list int64)) (what "next") next (draw 3 Rng.next);
      Alcotest.(check (list bits)) (what "float") float (draw 3 Rng.float);
      Alcotest.(check (list bool)) (what "bernoulli") bernoulli
        (draw 8 (fun r -> Rng.bernoulli r 0.3));
      Alcotest.(check (list int64)) (what "int64_bounded") bounded
        (draw 3 (fun r -> Rng.int64_bounded r 1000003L)))
    known_answers

let suite =
  [
    Alcotest.test_case "known answers" `Quick test_known_answers;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int64 bounds" `Quick test_int64_bounds;
    Alcotest.test_case "int64 small-bound uniformity" `Quick
      test_int64_small_bound_uniform;
    Alcotest.test_case "int64 large bounds" `Quick test_int64_large_bounds;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bernoulli edges" `Quick test_bernoulli_edges;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "geometric edges" `Quick test_geometric_edge;
  ]
