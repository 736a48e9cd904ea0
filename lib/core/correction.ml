open Ptg_util
open Ptg_crypto

type step =
  | Soft_mac_match
  | Flip_and_check
  | Zero_pte_reset
  | Flag_majority
  | Pfn_contiguity
  | Flags_and_pfn

let step_name = function
  | Soft_mac_match -> "soft-MAC-match"
  | Flip_and_check -> "flip-and-check"
  | Zero_pte_reset -> "zero-PTE-reset"
  | Flag_majority -> "flag-majority"
  | Pfn_contiguity -> "pfn-contiguity"
  | Flags_and_pfn -> "flags+pfn"

type outcome =
  | Corrected of { line : Ptg_pte.Line.t; step : step; guesses : int }
  | Uncorrectable of { guesses : int }

type strategy_mask = {
  use_soft_mac : bool;
  use_flip_and_check : bool;
  use_zero_reset : bool;
  use_flag_vote : bool;
  use_pfn_contiguity : bool;
}

let all_strategies =
  {
    use_soft_mac = true;
    use_flip_and_check = true;
    use_zero_reset = true;
    use_flag_vote = true;
    use_pfn_contiguity = true;
  }

let no_strategies =
  {
    use_soft_mac = false;
    use_flip_and_check = false;
    use_zero_reset = false;
    use_flag_vote = false;
    use_pfn_contiguity = false;
  }

(* The MAC folds Q(C_i xor A_i) over four 16-byte chunks under the chunk
   tweaks A_i = { hi = i; lo = addr }. The cache schedules each A_i once
   and keeps the base line's four chunk outputs and their fold, so a
   candidate that differs from the base in one chunk costs one scheduled
   cipher call. A flip-and-check guess folds and compares unboxed int64s
   and allocates nothing. *)
module Mac_cache = struct
  type t = {
    addr : int64;
    masked_for_mac : Ptg_pte.Line.t -> Ptg_pte.Line.t;
    protected_mask : int64;
    mask_hi : int64; (* the MAC truncation as masks over hi32 and lo *)
    mask_lo : int64;
    scheds : Qarma.schedule array; (* A_0 .. A_3 *)
    sc : Qarma.scratch;
    base : Ptg_pte.Line.t; (* masked for MAC *)
    nonzero_words : int; (* of [base] *)
    q_hi : int64 array; (* the 4 chunk outputs for [base] *)
    q_lo : int64 array;
    all_hi : int64; (* their fold, untruncated *)
    all_lo : int64;
  }

  (* Leaves Q(chunk xor A_ci) in [t.sc]. *)
  let[@inline] encrypt_chunk t ci ~hi ~lo =
    Qarma.encrypt_scheduled t.sc t.scheds.(ci)
      ~p_hi:(Int64.logxor hi (Int64.of_int ci))
      ~p_lo:(Int64.logxor lo t.addr)

  let make ~mac_bits ~masked_for_mac ~protected_mask key ~addr line =
    let base = masked_for_mac line in
    let masks = Mac.truncate ~width:mac_bits { Mac.hi32 = 0xFFFF_FFFFL; lo = -1L } in
    let scheds =
      Array.init 4 (fun i -> Qarma.schedule key ~t_hi:(Int64.of_int i) ~t_lo:addr)
    in
    let sc = Qarma.scratch () in
    let q_hi = Array.make 4 0L and q_lo = Array.make 4 0L in
    let t =
      { addr; masked_for_mac; protected_mask; mask_hi = masks.Mac.hi32;
        mask_lo = masks.Mac.lo; scheds; sc; base;
        nonzero_words = Array.fold_left (fun n w -> if w = 0L then n else n + 1) 0 base;
        q_hi; q_lo; all_hi = 0L; all_lo = 0L }
    in
    for i = 0 to 3 do
      encrypt_chunk t i ~hi:base.((2 * i) + 1) ~lo:base.(2 * i);
      q_hi.(i) <- Qarma.out_hi sc;
      q_lo.(i) <- Qarma.out_lo sc
    done;
    let fold q = Int64.logxor (Int64.logxor q.(0) q.(1)) (Int64.logxor q.(2) q.(3)) in
    { t with all_hi = fold q_hi; all_lo = fold q_lo }

  let to_mac t ~hi ~lo =
    { Mac.hi32 = Int64.logand hi t.mask_hi; lo = Int64.logand lo t.mask_lo }

  (* MAC of the current base. *)
  let base_mac t = to_mac t ~hi:t.all_hi ~lo:t.all_lo

  (* Is the base with word [word_idx] replaced by [value] all-zero once
     masked? *)
  let[@inline] zero_with_word t ~word_idx value =
    Int64.equal (Int64.logand value t.protected_mask) 0L
    && (t.nonzero_words = 0
       || (t.nonzero_words = 1 && not (Int64.equal t.base.(word_idx) 0L)))

  (* Does the untruncated MAC [hi], [lo] soft-match [target] within [k]
     bits? *)
  let[@inline] soft_matches t ~k ~(target : Mac.t) hi lo =
    Bits.popcount (Int64.logxor (Int64.logand hi t.mask_hi) target.Mac.hi32)
    + Bits.popcount (Int64.logxor (Int64.logand lo t.mask_lo) target.Mac.lo)
    <= k

  (* Does the MAC of the base with word [word_idx] replaced by [value]
     soft-match [target] within [k] bits? Inlined into the guess loop, so
     [value] is never boxed. *)
  let[@inline] word_matches t ~word_idx value ~k ~target =
    let v = Int64.logand value t.protected_mask in
    if Int64.equal v t.base.(word_idx) then soft_matches t ~k ~target t.all_hi t.all_lo
    else begin
      let ci = word_idx / 2 in
      (* The changed half takes [v]: its difference from the base goes to
         [hi] or [lo] under an all-ones mask (an [if] would box [v]). *)
      let d = Int64.logxor v t.base.(word_idx) in
      let d_hi = Int64.logand d (Int64.of_int (-(word_idx land 1))) in
      encrypt_chunk t ci
        ~hi:(Int64.logxor t.base.((2 * ci) + 1) d_hi)
        ~lo:(Int64.logxor t.base.(2 * ci) (Int64.logxor d d_hi));
      soft_matches t ~k ~target
        (Int64.logxor (Int64.logxor t.all_hi t.q_hi.(ci)) (Qarma.out_hi t.sc))
        (Int64.logxor (Int64.logxor t.all_lo t.q_lo.(ci)) (Qarma.out_lo t.sc))
    end

  (* MAC of an arbitrary candidate line (changed chunks recomputed). *)
  let mac_of_line t line =
    let masked = t.masked_for_mac line in
    let hi = ref 0L and lo = ref 0L in
    for i = 0 to 3 do
      let chunk_hi = masked.((2 * i) + 1) and chunk_lo = masked.(2 * i) in
      if Int64.equal chunk_lo t.base.(2 * i) && Int64.equal chunk_hi t.base.((2 * i) + 1)
      then begin
        hi := Int64.logxor !hi t.q_hi.(i);
        lo := Int64.logxor !lo t.q_lo.(i)
      end
      else begin
        encrypt_chunk t i ~hi:chunk_hi ~lo:chunk_lo;
        hi := Int64.logxor !hi (Qarma.out_hi t.sc);
        lo := Int64.logxor !lo (Qarma.out_lo t.sc)
      end
    done;
    to_mac t ~hi:!hi ~lo:!lo
end

let verify_only (cfg : Config.t) key ~addr line =
  let module L = (val cfg.Config.layout : Layout.S) in
  let truncate = Mac.truncate ~width:cfg.Config.mac_bits in
  Mac.equal
    (truncate (Mac.compute key ~addr (L.masked_for_mac line)))
    (truncate (L.extract_mac line))

let majority_bit words bit =
  let n = List.length words in
  let ones = List.length (List.filter (fun w -> Bits.get w bit) words) in
  2 * ones > n

let correct ?(strategies = all_strategies) ?mac_zero (cfg : Config.t) key ~addr line =
  let module L = (val cfg.Config.layout : Layout.S) in
  let k = cfg.Config.soft_match_k in
  let target = Mac.truncate ~width:cfg.Config.mac_bits (L.extract_mac line) in
  let cache =
    Mac_cache.make ~mac_bits:cfg.Config.mac_bits ~masked_for_mac:L.masked_for_mac
      ~protected_mask:L.protected_mask key ~addr line
  in
  let guesses = ref 0 in
  let matches mac =
    incr guesses;
    Mac.soft_match ~k mac target
  in
  (* Under the Optimized design, an all-zero candidate's reference MAC is
     the address-free MAC-zero constant (Section V-B) — the same rule the
     write path used to embed it. *)
  let zero_masked candidate = Ptg_pte.Line.is_zero (L.masked_for_mac candidate) in
  let effective_mac candidate computed_lazily =
    match mac_zero with
    | Some mz when zero_masked candidate -> mz
    | Some _ | None -> computed_lazily ()
  in
  (* Bits of an entry that carry page-table content (not MAC/identifier). *)
  let content_mask =
    Int64.lognot (Int64.logor L.mac_field_mask L.identifier_field_mask)
  in
  let exception Found of Ptg_pte.Line.t * step in
  let try_line step candidate =
    let mac =
      effective_mac candidate (fun () -> Mac_cache.mac_of_line cache candidate)
    in
    if matches mac then raise (Found (candidate, step))
  in
  try
    (* Step 1: the stored data may be intact with faults only in the MAC. *)
    if strategies.use_soft_mac then begin
      let mac = effective_mac line (fun () -> Mac_cache.base_mac cache) in
      if matches mac then raise (Found (Ptg_pte.Line.copy line, Soft_mac_match))
    end;
    (* Step 2: single-bit flip in any protected bit of any PTE. Each guess
       tests the flipped word against the cache without building the
       candidate line. *)
    if strategies.use_flip_and_check then begin
      for word = 0 to 7 do
        for b = 0 to 63 do
          if Bits.get L.protected_mask b then begin
            let flipped = Int64.logxor line.(word) (Int64.shift_left 1L b) in
            incr guesses;
            let hit =
              match mac_zero with
              | Some mz when Mac_cache.zero_with_word cache ~word_idx:word flipped ->
                  Mac.soft_match ~k mz target
              | Some _ | None ->
                  Mac_cache.word_matches cache ~word_idx:word flipped ~k ~target
            in
            if hit then begin
              let candidate = Ptg_pte.Line.copy line in
              candidate.(word) <- flipped;
              raise (Found (candidate, Flip_and_check))
            end
          end
        done
      done
    end;
    (* Step 3: reset almost-zero PTEs; later steps inherit the resets. *)
    let base =
      if not strategies.use_zero_reset then Ptg_pte.Line.copy line
      else begin
        let candidate =
          Array.map
            (fun w ->
              let content = Int64.logand w content_mask in
              if
                (not (Int64.equal content 0L))
                && Bits.popcount content <= cfg.Config.zero_pte_max_bits
              then Int64.logand w (Int64.lognot content_mask)
              else w)
            line
        in
        try_line Zero_pte_reset candidate;
        candidate
      end
    in
    let nonzero_idx =
      List.filter
        (fun i -> not (Int64.equal (Int64.logand base.(i) content_mask) 0L))
        (List.init 8 Fun.id)
    in
    let nonzero_words = List.map (fun i -> base.(i)) nonzero_idx in
    (* Step 4: bitwise flag majority across non-zero PTEs. *)
    let flag_voted =
      if nonzero_words = [] then base
      else
        Array.mapi
          (fun i w ->
            if List.mem i nonzero_idx then
              List.fold_left
                (fun w b -> Bits.assign w b (majority_bit nonzero_words b))
                w L.flag_bits
            else w)
          base
    in
    if strategies.use_flag_vote && nonzero_words <> [] then
      try_line Flag_majority flag_voted;
    (* Step 5: PFN locality. First a majority vote over the top PFN bits;
       then contiguity reconstruction of all PFNs from each base. *)
    let pfn_lo, pfn_hi = L.pfn_word_bits in
    let top_lo = pfn_lo + 8 and top_hi = pfn_hi in
    let pfn_top_voted from_line =
      if nonzero_words = [] then from_line
      else begin
        let words = List.map (fun i -> from_line.(i)) nonzero_idx in
        Array.mapi
          (fun i w ->
            if List.mem i nonzero_idx then begin
              let w = ref w in
              for b = top_lo to top_hi do
                w := Bits.assign !w b (majority_bit words b)
              done;
              !w
            end
            else w)
          from_line
      end
    in
    let contiguity_candidates from_line =
      (* Assume PTE [b]'s PFN is correct; rebuild the others as a +1-per-
         index progression. Zero PTEs stay zero. *)
      List.map
        (fun b ->
          let base_pfn = L.pfn from_line.(b) in
          Array.mapi
            (fun i w ->
              if List.mem i nonzero_idx then
                L.set_pfn w (Int64.add base_pfn (Int64.of_int (i - b)))
              else w)
            from_line)
        (List.filter (fun b -> List.mem b nonzero_idx) (List.init 8 Fun.id))
    in
    if strategies.use_pfn_contiguity && nonzero_words <> [] then begin
      try_line Pfn_contiguity (pfn_top_voted base);
      List.iter (try_line Pfn_contiguity) (contiguity_candidates base)
    end;
    (* Steps 4+5 combined (flags voted, then PFN reconstruction). *)
    if strategies.use_flag_vote && strategies.use_pfn_contiguity
       && nonzero_words <> []
    then
      List.iter (try_line Flags_and_pfn) (contiguity_candidates flag_voted);
    Uncorrectable { guesses = !guesses }
  with Found (candidate, step) -> Corrected { line = candidate; step; guesses = !guesses }
