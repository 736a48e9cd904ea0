open Ptg_crypto

let gen_block =
  QCheck2.Gen.map (fun (hi, lo) -> Block128.make ~hi ~lo) QCheck2.Gen.(pair int64 int64)

let fixed_key =
  Qarma.expand_key
    ~w0:(Block128.make ~hi:0x0123456789ABCDEFL ~lo:0xFEDCBA9876543210L)
    (Block128.make ~hi:0xDEADBEEFDEADBEEFL ~lo:0xCAFEBABECAFEBABEL)

(* The production cipher under test; the pure cell-array cipher it is
   checked against is [Qarma_ref]. *)
let sc = Qarma.scratch ()
let encrypt key ~tweak p = Qarma.encrypt_with sc key ~tweak p
let decrypt key ~tweak c = Qarma.decrypt_with sc key ~tweak c

let test_internal_sbox_bijective () =
  let seen = Array.make 256 false in
  Array.iter
    (fun y ->
      if seen.(y) then Alcotest.fail "sbox not injective";
      seen.(y) <- true)
    Qarma_ref.sbox;
  for x = 0 to 255 do
    Alcotest.(check int) "sbox_inv inverts" x Qarma_ref.sbox_inv.(Qarma_ref.sbox.(x))
  done

let test_internal_tau_inverse () =
  for i = 0 to 15 do
    Alcotest.(check int) "tau_inv of tau" i Qarma_ref.tau_inv.(Qarma_ref.tau.(i));
    (* tau is a permutation of 0..15 *)
    if Qarma_ref.tau.(i) < 0 || Qarma_ref.tau.(i) > 15 then
      Alcotest.fail "tau out of range"
  done

let test_internal_mix_involution () =
  let rng = Ptg_util.Rng.create 1L in
  for _ = 1 to 100 do
    let cells = Array.init 16 (fun _ -> Ptg_util.Rng.int rng 256) in
    let twice = Qarma_ref.mix (Qarma_ref.mix cells) in
    Alcotest.(check (array int)) "M(M(x)) = x" cells twice
  done

let test_internal_tweak_inverse () =
  let rng = Ptg_util.Rng.create 2L in
  for _ = 1 to 100 do
    let cells = Array.init 16 (fun _ -> Ptg_util.Rng.int rng 256) in
    let back = Qarma_ref.tweak_update_inv (Qarma_ref.tweak_update cells) in
    Alcotest.(check (array int)) "omega inverse" cells back
  done

let test_tweak_update_period () =
  (* The tweak schedule must not short-cycle: 64 updates of a nonzero
     tweak should visit 64 distinct states. *)
  let start = Array.init 16 (fun i -> i + 1) in
  let seen = Hashtbl.create 64 in
  let cur = ref start in
  for _ = 1 to 64 do
    let key = String.concat "," (Array.to_list (Array.map string_of_int !cur)) in
    if Hashtbl.mem seen key then Alcotest.fail "tweak schedule cycled early";
    Hashtbl.replace seen key ();
    cur := Qarma_ref.tweak_update !cur
  done

let test_rounds_validation () =
  Alcotest.check_raises "rounds too high"
    (Invalid_argument "Qarma.expand_key: rounds") (fun () ->
      ignore
        (Qarma.expand_key ~rounds:17 ~w0:Block128.zero Block128.zero));
  Alcotest.(check int) "default rounds recorded" Qarma.default_rounds
    (Qarma.rounds fixed_key)

let test_determinism () =
  let p = Block128.make ~hi:1L ~lo:2L and t = Block128.make ~hi:3L ~lo:4L in
  Alcotest.(check bool) "same inputs same output" true
    (Block128.equal (encrypt fixed_key ~tweak:t p) (encrypt fixed_key ~tweak:t p))

let test_key_sensitivity () =
  let key2 =
    Qarma.expand_key
      ~w0:(Block128.make ~hi:0x0123456789ABCDEFL ~lo:0xFEDCBA9876543210L)
      (Block128.make ~hi:0xDEADBEEFDEADBEEFL ~lo:0xCAFEBABECAFEBABFL)
  in
  let p = Block128.zero and t = Block128.zero in
  Alcotest.(check bool) "1-bit key change changes ciphertext" false
    (Block128.equal (encrypt fixed_key ~tweak:t p) (encrypt key2 ~tweak:t p))

let test_tweak_sensitivity () =
  let p = Block128.zero in
  let c1 = encrypt fixed_key ~tweak:Block128.zero p in
  let c2 = encrypt fixed_key ~tweak:(Block128.of_int64 1L) p in
  Alcotest.(check bool) "tweak changes ciphertext" false (Block128.equal c1 c2);
  let d = Block128.hamming c1 c2 in
  Alcotest.(check bool) "tweak diffusion substantial" true (d > 30)

let test_avalanche () =
  (* Average Hamming distance over single-bit plaintext flips ~ 64. *)
  let rng = Ptg_util.Rng.create 7L in
  let total = ref 0 and n = 200 in
  for _ = 1 to n do
    let p = Block128.make ~hi:(Ptg_util.Rng.next rng) ~lo:(Ptg_util.Rng.next rng) in
    let t = Block128.make ~hi:(Ptg_util.Rng.next rng) ~lo:(Ptg_util.Rng.next rng) in
    let bit = Ptg_util.Rng.int rng 64 in
    let p' = Block128.make ~hi:p.Block128.hi ~lo:(Ptg_util.Bits.flip p.Block128.lo bit) in
    total :=
      !total + Block128.hamming (encrypt fixed_key ~tweak:t p) (encrypt fixed_key ~tweak:t p')
  done;
  let avg = float_of_int !total /. float_of_int n in
  if avg < 56.0 || avg > 72.0 then
    Alcotest.failf "avalanche average %.1f outside [56, 72]" avg

let prop_roundtrip =
  QCheck2.Test.make ~name:"decrypt inverts encrypt" ~count:300
    QCheck2.Gen.(pair gen_block gen_block)
    (fun (p, tweak) ->
      Block128.equal (decrypt fixed_key ~tweak (encrypt fixed_key ~tweak p)) p)

let prop_roundtrip_all_rounds =
  QCheck2.Test.make ~name:"roundtrip holds for r in 1..16" ~count:32
    QCheck2.Gen.(triple (int_range 1 16) gen_block gen_block)
    (fun (rounds, p, tweak) ->
      let key = Qarma.expand_key ~rounds ~w0:(Block128.of_int64 42L) (Block128.of_int64 7L) in
      Block128.equal (decrypt key ~tweak (encrypt key ~tweak p)) p)

let prop_injective_sample =
  QCheck2.Test.make ~name:"encryption injective on distinct plaintexts" ~count:300
    QCheck2.Gen.(triple gen_block gen_block gen_block)
    (fun (p1, p2, tweak) ->
      Block128.equal p1 p2
      || not
           (Block128.equal
              (encrypt fixed_key ~tweak p1)
              (encrypt fixed_key ~tweak p2)))

(* Production entry points against the pure reference cipher: one shared
   scratch reused across every qcheck sample, so state left over from a
   previous call would be caught. *)
let shared_scratch = Qarma.scratch ()

let prop_encrypt_with_agrees =
  QCheck2.Test.make ~name:"encrypt_with agrees with pure encrypt" ~count:500
    QCheck2.Gen.(pair gen_block gen_block)
    (fun (p, tweak) ->
      Block128.equal
        (Qarma.encrypt_with shared_scratch fixed_key ~tweak p)
        (Qarma_ref.encrypt fixed_key ~tweak p))

let prop_decrypt_with_agrees =
  QCheck2.Test.make ~name:"decrypt_with agrees with pure decrypt" ~count:500
    QCheck2.Gen.(pair gen_block gen_block)
    (fun (c, tweak) ->
      Block128.equal
        (Qarma.decrypt_with shared_scratch fixed_key ~tweak c)
        (Qarma_ref.decrypt fixed_key ~tweak c))

let prop_encrypt_raw_agrees =
  QCheck2.Test.make ~name:"encrypt_raw agrees with pure encrypt" ~count:500
    QCheck2.Gen.(pair gen_block gen_block)
    (fun (p, tweak) ->
      Qarma.encrypt_raw shared_scratch fixed_key ~t_hi:tweak.Block128.hi
        ~t_lo:tweak.Block128.lo ~p_hi:p.Block128.hi ~p_lo:p.Block128.lo;
      let c = Qarma_ref.encrypt fixed_key ~tweak p in
      Int64.equal (Qarma.out_hi shared_scratch) c.Block128.hi
      && Int64.equal (Qarma.out_lo shared_scratch) c.Block128.lo)

let prop_scratch_agrees_across_rounds =
  QCheck2.Test.make ~name:"scratch API agrees for r in 1..16" ~count:64
    QCheck2.Gen.(triple (int_range 1 16) gen_block gen_block)
    (fun (rounds, p, tweak) ->
      let key = Qarma.expand_key ~rounds ~w0:(Block128.of_int64 42L) (Block128.of_int64 7L) in
      Block128.equal
        (Qarma.encrypt_with shared_scratch key ~tweak p)
        (Qarma_ref.encrypt key ~tweak p))

let suite =
  [
    Alcotest.test_case "sbox bijective" `Quick test_internal_sbox_bijective;
    Alcotest.test_case "tau inverse" `Quick test_internal_tau_inverse;
    Alcotest.test_case "mix involution" `Quick test_internal_mix_involution;
    Alcotest.test_case "tweak schedule inverse" `Quick test_internal_tweak_inverse;
    Alcotest.test_case "tweak schedule period" `Quick test_tweak_update_period;
    Alcotest.test_case "rounds validation" `Quick test_rounds_validation;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
    Alcotest.test_case "tweak sensitivity" `Quick test_tweak_sensitivity;
    Alcotest.test_case "avalanche" `Quick test_avalanche;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_all_rounds;
    QCheck_alcotest.to_alcotest prop_injective_sample;
    QCheck_alcotest.to_alcotest prop_encrypt_with_agrees;
    QCheck_alcotest.to_alcotest prop_decrypt_with_agrees;
    QCheck_alcotest.to_alcotest prop_encrypt_raw_agrees;
    QCheck_alcotest.to_alcotest prop_scratch_agrees_across_rounds;
  ]
