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

(* The MAC folds the four chunk ciphers of [Mac.chunk]. The cache keeps
   the base line's four chunk outputs and their fold, so a candidate that
   differs from the base in one chunk costs one chunk cipher, under a
   tweak its ctx only patches (the guesses stay at one address). A
   flip-and-check guess folds and compares unboxed int64s and allocates
   nothing. *)
module Mac_cache = struct
  type t = {
    key : Qarma.key;
    addr : int64;
    masked_for_mac : Ptg_pte.Line.t -> Ptg_pte.Line.t;
    protected_mask : int64;
    mask_hi : int64; (* the MAC truncation as masks over hi32 and lo *)
    mask_lo : int64;
    ctx : Mac.ctx;
    base : Ptg_pte.Line.t; (* masked for MAC *)
    nonzero_words : int; (* of [base] *)
    q : Bytes.t; (* the 4 chunk outputs for [base]: hi at 16i, lo at 16i + 8 *)
    all_hi : int64; (* their fold, untruncated *)
    all_lo : int64;
  }

  let[@inline] q_hi t i = Bytes.get_int64_ne t.q (16 * i)
  let[@inline] q_lo t i = Bytes.get_int64_ne t.q ((16 * i) + 8)

  (* Leaves the chunk cipher of ([hi], [lo]) at chunk [ci] in [t.ctx]. *)
  let[@inline] encrypt_chunk t ci ~hi ~lo = Mac.chunk t.ctx t.key ~addr:t.addr ci ~hi ~lo

  let make ~mac_bits ~masked_for_mac ~protected_mask key ~addr line =
    let base = masked_for_mac line in
    let masks = Mac.truncate ~width:mac_bits { Mac.hi32 = 0xFFFF_FFFFL; lo = -1L } in
    let ctx = Mac.ctx () and q = Bytes.create 64 in
    let hi = ref 0L and lo = ref 0L and nonzero = ref 0 in
    for i = 0 to 3 do
      Mac.chunk ctx key ~addr i
        ~hi:(Ptg_pte.Line.get base ((2 * i) + 1))
        ~lo:(Ptg_pte.Line.get base (2 * i));
      Bytes.set_int64_ne q (16 * i) (Mac.out_hi ctx);
      Bytes.set_int64_ne q ((16 * i) + 8) (Mac.out_lo ctx);
      hi := Int64.logxor !hi (Mac.out_hi ctx);
      lo := Int64.logxor !lo (Mac.out_lo ctx)
    done;
    for i = 0 to Ptg_pte.Line.words - 1 do
      if not (Int64.equal (Ptg_pte.Line.get base i) 0L) then incr nonzero
    done;
    { key; addr; masked_for_mac; protected_mask; mask_hi = masks.Mac.hi32;
      mask_lo = masks.Mac.lo; ctx; base; nonzero_words = !nonzero; q;
      all_hi = !hi; all_lo = !lo }

  let to_mac t ~hi ~lo =
    { Mac.hi32 = Int64.logand hi t.mask_hi; lo = Int64.logand lo t.mask_lo }

  (* MAC of the current base. *)
  let base_mac t = to_mac t ~hi:t.all_hi ~lo:t.all_lo

  (* Is the base with word [word_idx] replaced by [value] all-zero once
     masked? *)
  let[@inline] zero_with_word t ~word_idx value =
    Int64.equal (Int64.logand value t.protected_mask) 0L
    && (t.nonzero_words = 0
       || (t.nonzero_words = 1 && not (Int64.equal (Ptg_pte.Line.get t.base word_idx) 0L)))

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
    let old = Ptg_pte.Line.get t.base word_idx in
    if Int64.equal v old then soft_matches t ~k ~target t.all_hi t.all_lo
    else begin
      let ci = word_idx / 2 in
      (* The changed half takes [v]: its difference from the base goes to
         [hi] or [lo] under an all-ones mask (an [if] would box [v]). *)
      let d = Int64.logxor v old in
      let d_hi = Int64.logand d (Int64.of_int (-(word_idx land 1))) in
      encrypt_chunk t ci
        ~hi:(Int64.logxor (Ptg_pte.Line.get t.base ((2 * ci) + 1)) d_hi)
        ~lo:(Int64.logxor (Ptg_pte.Line.get t.base (2 * ci)) (Int64.logxor d d_hi));
      soft_matches t ~k ~target
        (Int64.logxor (Int64.logxor t.all_hi (q_hi t ci)) (Mac.out_hi t.ctx))
        (Int64.logxor (Int64.logxor t.all_lo (q_lo t ci)) (Mac.out_lo t.ctx))
    end

  (* MAC of an arbitrary candidate line (changed chunks recomputed). *)
  let mac_of_line t line =
    let masked = t.masked_for_mac line in
    let hi = ref 0L and lo = ref 0L in
    for i = 0 to 3 do
      let chunk_hi = Ptg_pte.Line.get masked ((2 * i) + 1)
      and chunk_lo = Ptg_pte.Line.get masked (2 * i) in
      if
        Int64.equal chunk_lo (Ptg_pte.Line.get t.base (2 * i))
        && Int64.equal chunk_hi (Ptg_pte.Line.get t.base ((2 * i) + 1))
      then begin
        hi := Int64.logxor !hi (q_hi t i);
        lo := Int64.logxor !lo (q_lo t i)
      end
      else begin
        encrypt_chunk t i ~hi:chunk_hi ~lo:chunk_lo;
        hi := Int64.logxor !hi (Mac.out_hi t.ctx);
        lo := Int64.logxor !lo (Mac.out_lo t.ctx)
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
  (* Built at the first guess that needs a MAC: with every strategy off
     there is none. *)
  let cache =
    lazy
      (Mac_cache.make ~mac_bits:cfg.Config.mac_bits ~masked_for_mac:L.masked_for_mac
         ~protected_mask:L.protected_mask key ~addr line)
  in
  let guesses = ref 0 in
  let matches mac =
    incr guesses;
    Mac.soft_match ~k mac target
  in
  (* Under the Optimized design, an all-zero candidate's reference MAC is
     the address-free MAC-zero constant (Section V-B) — the same rule the
     write path used to embed it. *)
  let zero_masked candidate = Ptg_pte.Line.zero_under L.protected_mask candidate in
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
      effective_mac candidate (fun () -> Mac_cache.mac_of_line (Lazy.force cache) candidate)
    in
    if matches mac then raise (Found (candidate, step))
  in
  try
    (* Step 1: the stored data may be intact with faults only in the MAC. *)
    if strategies.use_soft_mac then begin
      let mac = effective_mac line (fun () -> Mac_cache.base_mac (Lazy.force cache)) in
      if matches mac then raise (Found (Ptg_pte.Line.copy line, Soft_mac_match))
    end;
    (* Step 2: single-bit flip in any protected bit of any PTE. Each guess
       tests the flipped word against the cache without building the
       candidate line. *)
    if strategies.use_flip_and_check then begin
      let cache = Lazy.force cache in
      for word = 0 to 7 do
        for b = 0 to 63 do
          if Bits.get L.protected_mask b then begin
            let flipped = Int64.logxor (Ptg_pte.Line.get line word) (Int64.shift_left 1L b) in
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
              Ptg_pte.Line.set candidate word flipped;
              raise (Found (candidate, Flip_and_check))
            end
          end
        done
      done
    end;
    (* Step 3: reset almost-zero PTEs; later steps inherit the resets. *)
    let base =
      if not strategies.use_zero_reset then line
      else begin
        let candidate =
          Ptg_pte.Line.map
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
      if not (strategies.use_flag_vote || strategies.use_pfn_contiguity) then []
      else
        List.filter
          (fun i -> not (Int64.equal (Int64.logand (Ptg_pte.Line.get base i) content_mask) 0L))
          (List.init 8 Fun.id)
    in
    if nonzero_idx <> [] then begin
      let nonzero_words = List.map (Ptg_pte.Line.get base) nonzero_idx in
      (* Step 4: bitwise flag majority across non-zero PTEs. *)
      let flag_voted =
        if not strategies.use_flag_vote then base
        else begin
          let voted =
            Ptg_pte.Line.init (fun i ->
                let w = Ptg_pte.Line.get base i in
                if List.mem i nonzero_idx then
                  List.fold_left
                    (fun w b -> Bits.assign w b (majority_bit nonzero_words b))
                    w L.flag_bits
                else w)
          in
          try_line Flag_majority voted;
          voted
        end
      in
      (* Step 5: PFN locality. First a majority vote over the top PFN bits;
         then contiguity reconstruction of all PFNs from each base. *)
      let pfn_lo, pfn_hi = L.pfn_word_bits in
      let top_lo = pfn_lo + 8 and top_hi = pfn_hi in
      let pfn_top_voted from_line =
        let words = List.map (Ptg_pte.Line.get from_line) nonzero_idx in
        Ptg_pte.Line.init (fun i ->
            let w = ref (Ptg_pte.Line.get from_line i) in
            if List.mem i nonzero_idx then
              for b = top_lo to top_hi do
                w := Bits.assign !w b (majority_bit words b)
              done;
            !w)
      in
      let contiguity_candidates from_line =
        (* Assume PTE [b]'s PFN is correct; rebuild the others as a +1-per-
           index progression. Zero PTEs stay zero. *)
        List.map
          (fun b ->
            let base_pfn = L.pfn (Ptg_pte.Line.get from_line b) in
            Ptg_pte.Line.init (fun i ->
                let w = Ptg_pte.Line.get from_line i in
                if List.mem i nonzero_idx then
                  L.set_pfn w (Int64.add base_pfn (Int64.of_int (i - b)))
                else w))
          nonzero_idx
      in
      if strategies.use_pfn_contiguity then begin
        try_line Pfn_contiguity (pfn_top_voted base);
        List.iter (try_line Pfn_contiguity) (contiguity_candidates base)
      end;
      (* Steps 4+5 combined (flags voted, then PFN reconstruction). *)
      if strategies.use_flag_vote && strategies.use_pfn_contiguity then
        List.iter (try_line Flags_and_pfn) (contiguity_candidates flag_voted)
    end;
    Uncorrectable { guesses = !guesses }
  with Found (candidate, step) -> Corrected { line = candidate; step; guesses = !guesses }
