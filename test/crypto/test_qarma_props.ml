(* Crypto conformance suite: the table-driven QARMA core and every MAC
   path differentially tested against the cell-array reference cipher
   (Qarma_ref), correction against a reference search over it, pinned
   golden vectors, avalanche bounds and Block128 algebra. Runs standalone
   via `dune build @crypto` so cipher changes get a verdict in seconds,
   and under the full `dune runtest`. *)

open Ptg_crypto

let sc = Qarma.scratch ()
let encrypt key ~tweak p = Qarma.encrypt_with sc key ~tweak p
let decrypt key ~tweak c = Qarma.decrypt_with sc key ~tweak c

let fixed_key =
  Qarma.expand_key
    ~w0:(Block128.make ~hi:0x0123456789ABCDEFL ~lo:0xFEDCBA9876543210L)
    (Block128.make ~hi:0xDEADBEEFDEADBEEFL ~lo:0xCAFEBABECAFEBABEL)

let gen_block =
  QCheck2.Gen.map (fun (hi, lo) -> Block128.make ~hi ~lo) QCheck2.Gen.(pair int64 int64)

(* {2 Golden vectors}

   test/golden/qarma_vectors.txt pins (key, tweak, plaintext, ciphertext)
   tuples per round count, generated once from the reference cipher. Any
   drift in the S-box, round constants, tweak schedule or round structure
   of either cipher flips a vector. *)

let vectors_path = "../golden/qarma_vectors.txt"

let load_vectors () =
  let ic = open_in vectors_path in
  let vectors = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 && line.[0] <> '#' then
         Scanf.sscanf line "%d %Lx %Lx %Lx %Lx %Lx %Lx %Lx %Lx %Lx %Lx"
           (fun rounds w0h w0l k0h k0l th tl ph pl ch cl ->
             vectors :=
               ( rounds,
                 Block128.make ~hi:w0h ~lo:w0l,
                 Block128.make ~hi:k0h ~lo:k0l,
                 Block128.make ~hi:th ~lo:tl,
                 Block128.make ~hi:ph ~lo:pl,
                 Block128.make ~hi:ch ~lo:cl )
               :: !vectors)
     done
   with End_of_file -> close_in ic);
  List.rev !vectors

let test_golden_vectors () =
  let vectors = load_vectors () in
  Alcotest.(check int) "vector count" 24 (List.length vectors);
  List.iter
    (fun (rounds, w0, k0, tweak, p, c) ->
      let key = Qarma.expand_key ~rounds ~w0 k0 in
      List.iter
        (fun (name, got) ->
          if not (Block128.equal got c) then
            Alcotest.failf "%s vector mismatch (rounds=%d): got %s want %s" name rounds
              (Block128.to_hex got) (Block128.to_hex c))
        [ ("core", encrypt key ~tweak p); ("reference", Qarma_ref.encrypt key ~tweak p) ];
      Alcotest.(check bool) "vector decrypts back" true
        (Block128.equal (decrypt key ~tweak c) p))
    vectors

let test_golden_covers_rounds () =
  let vectors = load_vectors () in
  let rounds = List.sort_uniq compare (List.map (fun (r, _, _, _, _, _) -> r) vectors) in
  Alcotest.(check (list int)) "round counts pinned" [ 1; 2; 4; 8; 11; 16 ] rounds

(* {2 Identity and avalanche} *)

let prop_roundtrip_identity =
  QCheck2.Test.make ~name:"decrypt (encrypt p) = p" ~count:500
    QCheck2.Gen.(pair gen_block gen_block)
    (fun (p, tweak) ->
      Block128.equal (decrypt fixed_key ~tweak (encrypt fixed_key ~tweak p)) p)

(* Mean bit flips over single-bit input perturbations must be >= 40% of
   the 128-bit block (the issue's conformance bar; an ideal cipher sits
   at 50%). Checked for both plaintext and tweak inputs. *)
let avalanche_fraction ~flip_tweak =
  let rng = Ptg_util.Rng.create 0xA7A1L in
  let n = 300 in
  let total = ref 0 in
  for _ = 1 to n do
    let p = Block128.make ~hi:(Ptg_util.Rng.next rng) ~lo:(Ptg_util.Rng.next rng) in
    let t = Block128.make ~hi:(Ptg_util.Rng.next rng) ~lo:(Ptg_util.Rng.next rng) in
    let bit = Ptg_util.Rng.int rng 128 in
    let flip b =
      if bit < 64 then Block128.make ~hi:b.Block128.hi ~lo:(Ptg_util.Bits.flip b.Block128.lo bit)
      else Block128.make ~hi:(Ptg_util.Bits.flip b.Block128.hi (bit - 64)) ~lo:b.Block128.lo
    in
    let c1 = encrypt fixed_key ~tweak:t p in
    let c2 =
      if flip_tweak then encrypt fixed_key ~tweak:(flip t) p
      else encrypt fixed_key ~tweak:t (flip p)
    in
    total := !total + Block128.hamming c1 c2
  done;
  float_of_int !total /. float_of_int (n * 128)

let test_plaintext_avalanche () =
  let f = avalanche_fraction ~flip_tweak:false in
  if f < 0.40 then Alcotest.failf "plaintext avalanche %.3f < 0.40" f

let test_tweak_avalanche () =
  let f = avalanche_fraction ~flip_tweak:true in
  if f < 0.40 then Alcotest.failf "tweak avalanche %.3f < 0.40" f

(* {2 Block128 algebra} *)

let prop_xor_group =
  QCheck2.Test.make ~name:"Block128 xor: commutative, associative, self-inverse"
    ~count:300
    QCheck2.Gen.(triple gen_block gen_block gen_block)
    (fun (a, b, c) ->
      Block128.equal (Block128.logxor a b) (Block128.logxor b a)
      && Block128.equal
           (Block128.logxor a (Block128.logxor b c))
           (Block128.logxor (Block128.logxor a b) c)
      && Block128.equal (Block128.logxor a a) Block128.zero
      && Block128.equal (Block128.logxor a Block128.zero) a)

let prop_rotr1_order =
  QCheck2.Test.make ~name:"Block128 rotr1: 128 applications = identity, popcount kept"
    ~count:100 gen_block (fun a ->
      let r = ref a in
      let ok = ref true in
      for i = 1 to 128 do
        r := Block128.rotr1 !r;
        ok := !ok && Block128.popcount !r = Block128.popcount a;
        if i < 128 && Block128.popcount a mod 128 <> 0 then ()
      done;
      !ok && Block128.equal !r a)

let prop_cells_roundtrip =
  QCheck2.Test.make ~name:"Block128 cells: of_cells (to_cells a) = a"
    ~count:300 gen_block (fun a -> Block128.equal (Block128.of_cells (Block128.to_cells a)) a)

let prop_shift127 =
  QCheck2.Test.make ~name:"Block128 shift_right_127 isolates the top bit" ~count:300
    gen_block (fun a ->
      let s = Block128.shift_right_127 a in
      Int64.equal s.Block128.hi 0L
      && Int64.equal s.Block128.lo (Int64.shift_right_logical a.Block128.hi 63))

(* {2 Core vs reference cipher}

   Every entry point of the table-driven core must equal the cell-array
   reference for every round count. One shared scratch is reused across
   samples, so state left over from a previous call would be caught. *)

let gen_rounds_key =
  QCheck2.Gen.(
    map
      (fun (rounds, (w0, k0)) -> Qarma.expand_key ~rounds ~w0 k0)
      (pair (int_range 1 16) (pair gen_block gen_block)))

let prop_encrypt_matches_ref =
  QCheck2.Test.make ~name:"encrypt = Qarma_ref.encrypt for r in 1..16" ~count:500
    QCheck2.Gen.(triple gen_rounds_key gen_block gen_block)
    (fun (key, tweak, p) ->
      Block128.equal (encrypt key ~tweak p) (Qarma_ref.encrypt key ~tweak p))

let prop_decrypt_matches_ref =
  QCheck2.Test.make ~name:"decrypt = Qarma_ref.decrypt for r in 1..16" ~count:500
    QCheck2.Gen.(triple gen_rounds_key gen_block gen_block)
    (fun (key, tweak, c) ->
      Block128.equal (decrypt key ~tweak c) (Qarma_ref.decrypt key ~tweak c))

let prop_schedule_reused =
  QCheck2.Test.make ~name:"one schedule reused across blocks = Qarma_ref" ~count:100
    QCheck2.Gen.(triple gen_rounds_key gen_block (list_size (int_range 1 8) gen_block))
    (fun (key, tweak, plains) ->
      let sch = Qarma.schedule key ~t_hi:tweak.Block128.hi ~t_lo:tweak.Block128.lo in
      List.for_all
        (fun p ->
          Qarma.encrypt_scheduled sc sch ~p_hi:p.Block128.hi ~p_lo:p.Block128.lo;
          let c = Qarma_ref.encrypt key ~tweak p in
          Int64.equal (Qarma.out_hi sc) c.Block128.hi
          && Int64.equal (Qarma.out_lo sc) c.Block128.lo)
        plains)

(* Tweak [t] with byte [v] xored into cell [cell] (0 = top byte of hi). *)
let xor_cell t ~cell v =
  let shift = Int64.shift_left (Int64.of_int v) (8 * (7 - (cell land 7))) in
  if cell < 8 then Block128.make ~hi:(Int64.logxor t.Block128.hi shift) ~lo:t.Block128.lo
  else Block128.make ~hi:t.Block128.hi ~lo:(Int64.logxor t.Block128.lo shift)

let out_equals c =
  Int64.equal (Qarma.out_hi sc) c.Block128.hi && Int64.equal (Qarma.out_lo sc) c.Block128.lo

let prop_retweaked_matches_ref =
  QCheck2.Test.make ~name:"encrypt_retweaked = Qarma_ref under the changed tweak"
    ~count:300
    QCheck2.Gen.(
      quad gen_rounds_key gen_block (pair (int_range 0 15) (int_range 0 255)) gen_block)
    (fun (key, tweak, (cell, v), p) ->
      Qarma.encrypt_raw sc key ~t_hi:tweak.Block128.hi ~t_lo:tweak.Block128.lo ~p_hi:0L
        ~p_lo:0L;
      Qarma.encrypt_retweaked sc ~cell v ~p_hi:p.Block128.hi ~p_lo:p.Block128.lo;
      out_equals (Qarma_ref.encrypt key ~tweak:(xor_cell tweak ~cell v) p))

(* Each retweak patches the schedule the previous one left, so a drift
   in one patch compounds: every step is checked under the accumulated
   tweak. *)
let prop_chained_retweaks_match_ref =
  QCheck2.Test.make ~name:"chained encrypt_retweaked = Qarma_ref under the accumulated tweak"
    ~count:300
    QCheck2.Gen.(
      triple gen_rounds_key gen_block
        (list_size (int_range 2 3)
           (triple (int_range 0 15) (int_range 0 255) gen_block)))
    (fun (key, tweak, steps) ->
      Qarma.encrypt_raw sc key ~t_hi:tweak.Block128.hi ~t_lo:tweak.Block128.lo ~p_hi:0L
        ~p_lo:0L;
      let _, ok =
        List.fold_left
          (fun (t, ok) (cell, v, p) ->
            let t = xor_cell t ~cell v in
            Qarma.encrypt_retweaked sc ~cell v ~p_hi:p.Block128.hi ~p_lo:p.Block128.lo;
            (t, ok && out_equals (Qarma_ref.encrypt key ~tweak:t p)))
          (tweak, true) steps
      in
      ok)

(* A schedule is immutable once built: encrypting through the scratch
   under other tweaks, retweaking and decrypting between its uses must
   leave it intact. *)
let prop_schedule_survives_scratch_calls =
  QCheck2.Test.make ~name:"schedule reused after other scratch calls = Qarma_ref" ~count:100
    QCheck2.Gen.(
      quad gen_rounds_key gen_block gen_block
        (list_size (int_range 1 4) (triple gen_block (int_range 0 15) gen_block)))
    (fun (key, tweak, other, steps) ->
      let sch = Qarma.schedule key ~t_hi:tweak.Block128.hi ~t_lo:tweak.Block128.lo in
      List.for_all
        (fun (p, cell, q) ->
          Qarma.encrypt_raw sc key ~t_hi:other.Block128.hi ~t_lo:other.Block128.lo
            ~p_hi:q.Block128.hi ~p_lo:q.Block128.lo;
          Qarma.encrypt_retweaked sc ~cell 0x5a ~p_hi:q.Block128.hi ~p_lo:q.Block128.lo;
          ignore (decrypt key ~tweak:other q);
          Qarma.encrypt_scheduled sc sch ~p_hi:p.Block128.hi ~p_lo:p.Block128.lo;
          out_equals (Qarma_ref.encrypt key ~tweak p))
        steps)

(* {2 MAC paths vs the reference fold} *)

let gen_line = QCheck2.Gen.(array_size (return 8) int64)
let shared_mac_ctx = Mac.ctx ()

let prop_mac_matches_ref =
  QCheck2.Test.make ~name:"Mac.compute and compute_with = reference fold" ~count:200
    QCheck2.Gen.(triple gen_rounds_key int64 gen_line)
    (fun (key, addr, line) ->
      let want = Qarma_ref.mac key ~addr line in
      let line = Ptg_pte.Line.of_words line in
      Mac.equal (Mac.compute key ~addr line) want
      && Mac.equal (Mac.compute_with shared_mac_ctx key ~addr line) want)

(* [Mac.compute] runs in pool workers (every rekey's [compute_zero]), so
   two domains computing at once must not disturb each other. *)
let test_mac_across_domains () =
  let rng = Ptg_util.Rng.create 0xD0D0L in
  let reqs =
    Array.init 400 (fun i ->
        (Int64.of_int (i * 64), Ptg_pte.Line.init (fun _ -> Ptg_util.Rng.next rng)))
  in
  let sequential = Array.map (fun (addr, line) -> Mac.compute fixed_key ~addr line) reqs in
  let half lo hi () =
    Array.init (hi - lo) (fun i ->
        let addr, line = reqs.(lo + i) in
        Mac.compute fixed_key ~addr line)
  in
  let d1 = Domain.spawn (half 0 200) and d2 = Domain.spawn (half 200 400) in
  let parallel = Array.append (Domain.join d1) (Domain.join d2) in
  Alcotest.(check bool) "two domains = sequential" true
    (Array.for_all2 Mac.equal sequential parallel)

(* {2 Correction vs a reference search}

   The guess sequence of Section VI, candidate by candidate, with every
   candidate's MAC recomputed from scratch by the reference cipher (and
   the Optimized design's MAC-zero rule for all-zero candidates). The
   production search must agree on outcome, step, line and guess count. *)

open Ptguard

let reference_correct ?mac_zero (cfg : Config.t) key ~addr stored =
  let module L = (val cfg.Config.layout : Layout.S) in
  let width = cfg.Config.mac_bits in
  let target = Mac.truncate ~width (L.extract_mac stored) in
  (* The search runs over the line's words as an array. *)
  let line = Ptg_pte.Line.to_words stored in
  let mac_of cand =
    let masked = L.masked_for_mac (Ptg_pte.Line.of_words cand) in
    match mac_zero with
    | Some mz when Ptg_pte.Line.is_zero masked -> mz
    | Some _ | None -> Mac.truncate ~width (Qarma_ref.mac key ~addr (Ptg_pte.Line.to_words masked))
  in
  let with_word l i w =
    let c = Array.copy l in
    c.(i) <- w;
    c
  in
  let majority words b =
    2 * List.length (List.filter (fun w -> Ptg_util.Bits.get w b) words) > List.length words
  in
  let content_mask = Int64.lognot (Int64.logor L.mac_field_mask L.identifier_field_mask) in
  let flips =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun b ->
            if Ptg_util.Bits.get L.protected_mask b then
              Some (Correction.Flip_and_check, with_word line i (Ptg_util.Bits.flip line.(i) b))
            else None)
          (List.init 64 Fun.id))
      (List.init 8 Fun.id)
  in
  let base =
    Array.map
      (fun w ->
        let c = Int64.logand w content_mask in
        if c <> 0L && Ptg_util.Bits.popcount c <= cfg.Config.zero_pte_max_bits then
          Int64.logand w (Int64.lognot content_mask)
        else w)
      line
  in
  let nz = List.filter (fun i -> Int64.logand base.(i) content_mask <> 0L) (List.init 8 Fun.id) in
  let vote from bits =
    let words = List.map (fun i -> from.(i)) nz in
    Array.mapi
      (fun i w ->
        if List.mem i nz then
          List.fold_left (fun w b -> Ptg_util.Bits.assign w b (majority words b)) w bits
        else w)
      from
  in
  let pfn_lo, pfn_hi = L.pfn_word_bits in
  let top_bits = List.init (pfn_hi - pfn_lo - 7) (fun j -> pfn_lo + 8 + j) in
  let contiguity step from =
    List.map
      (fun b ->
        ( step,
          Array.mapi
            (fun i w ->
              if List.mem i nz then L.set_pfn w (Int64.add (L.pfn from.(b)) (Int64.of_int (i - b)))
              else w)
            from ))
      nz
  in
  let candidates =
    [ (Correction.Soft_mac_match, line) ] @ flips
    @ [ (Correction.Zero_pte_reset, base) ]
    @ (if nz = [] then []
       else
         [ (Correction.Flag_majority, vote base L.flag_bits);
           (Correction.Pfn_contiguity, vote base top_bits) ]
         @ contiguity Correction.Pfn_contiguity base
         @ contiguity Correction.Flags_and_pfn (vote base L.flag_bits))
  in
  let rec search n = function
    | [] -> Correction.Uncorrectable { guesses = n }
    | (step, cand) :: rest ->
        if Mac.soft_match ~k:cfg.Config.soft_match_k (mac_of cand) target then
          Correction.Corrected { line = Ptg_pte.Line.of_words cand; step; guesses = n + 1 }
        else search (n + 1) rest
  in
  search 0 candidates

let same_outcome a b =
  match (a, b) with
  | Correction.Corrected a, Correction.Corrected b ->
      a.step = b.step && a.guesses = b.guesses && Ptg_pte.Line.equal a.line b.line
  | Correction.Uncorrectable a, Correction.Uncorrectable b -> a.guesses = b.guesses
  | _ -> false

(* A stored line as the write path leaves it: [live] PTEs with contiguous
   PFNs and shared flags, zeros after, MAC embedded (MAC-zero for an
   all-zero line under Optimized); then [flips] random bit flips. *)
let gen_faulty = QCheck2.Gen.(quad bool int64 (int_range 0 8) (int_range 1 4))

let prop_correction_matches_ref =
  QCheck2.Test.make ~name:"Correction.correct = reference search over Qarma_ref" ~count:60
    gen_faulty (fun (optimized, seed, live, flips) ->
      let rng = Ptg_util.Rng.create seed in
      let cfg = if optimized then Config.optimized else Config.baseline in
      let module L = (val cfg.Config.layout : Layout.S) in
      let key = Qarma.key_of_rng rng in
      let addr = Int64.of_int (64 * Ptg_util.Rng.int rng 0x100000) in
      let pfn0 = Int64.of_int (Ptg_util.Rng.int rng 0x1000000) in
      let writable = Ptg_util.Rng.bool rng and dirty = Ptg_util.Rng.bool rng in
      let line =
        Ptg_pte.Line.init (fun i ->
            if i >= live then 0L
            else Ptg_pte.X86.make ~writable ~user:true ~dirty ~pfn:(Int64.add pfn0 (Int64.of_int i)) ())
      in
      let mac_zero = Mac.truncate ~width:cfg.Config.mac_bits (Mac.compute_zero key) in
      let mac =
        if optimized && live = 0 then mac_zero
        else Mac.truncate ~width:cfg.Config.mac_bits (Mac.compute key ~addr (L.masked_for_mac line))
      in
      let stored = L.embed_mac line mac in
      let faulty =
        List.fold_left Ptg_pte.Line.flip_bit stored
          (List.init flips (fun _ -> Ptg_util.Rng.int rng 512))
      in
      let mac_zero = if optimized then Some mac_zero else None in
      same_outcome
        (Correction.correct ?mac_zero cfg key ~addr faulty)
        (reference_correct ?mac_zero cfg key ~addr faulty))

let suite =
  [
    Alcotest.test_case "golden vectors" `Quick test_golden_vectors;
    Alcotest.test_case "golden round coverage" `Quick test_golden_covers_rounds;
    Alcotest.test_case "plaintext avalanche >= 40%" `Quick test_plaintext_avalanche;
    Alcotest.test_case "tweak avalanche >= 40%" `Quick test_tweak_avalanche;
    Alcotest.test_case "Mac.compute across two domains" `Quick test_mac_across_domains;
    QCheck_alcotest.to_alcotest prop_roundtrip_identity;
    QCheck_alcotest.to_alcotest prop_xor_group;
    QCheck_alcotest.to_alcotest prop_rotr1_order;
    QCheck_alcotest.to_alcotest prop_cells_roundtrip;
    QCheck_alcotest.to_alcotest prop_shift127;
    QCheck_alcotest.to_alcotest prop_encrypt_matches_ref;
    QCheck_alcotest.to_alcotest prop_decrypt_matches_ref;
    QCheck_alcotest.to_alcotest prop_schedule_reused;
    QCheck_alcotest.to_alcotest prop_retweaked_matches_ref;
    QCheck_alcotest.to_alcotest prop_chained_retweaks_match_ref;
    QCheck_alcotest.to_alcotest prop_schedule_survives_scratch_calls;
    QCheck_alcotest.to_alcotest prop_mac_matches_ref;
    QCheck_alcotest.to_alcotest prop_correction_matches_ref;
  ]
