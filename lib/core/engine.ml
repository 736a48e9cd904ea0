open Ptg_crypto

type os_event =
  | Pte_integrity_failure of { addr : int64 }
  | Collision_detected of { addr : int64 }
  | Ctb_overflow
  | Rekey_completed of { writes : int }

type stats = {
  mutable writes_total : int;
  mutable writes_protected : int;
  mutable writes_mac_zero : int;
  mutable collisions_tracked : int;
  mutable reads_total : int;
  mutable reads_pte : int;
  mutable mac_computations : int;
  mutable macs_stripped : int;
  mutable integrity_failures : int;
  mutable corrections_attempted : int;
  mutable corrections_succeeded : int;
  mutable rekeys : int;
}

type integrity =
  | Passed
  | Corrected of { step : Correction.step; guesses : int }
  | Failed
  | Data_protected
  | Data_passthrough

type read_result = {
  line : Ptg_pte.Line.t option;
  integrity : integrity;
  extra_latency : int;
  raw_line : Ptg_pte.Line.t;
}

(* Observability: every [stats] field is exported as a registry source
   reading the field itself, and [writes_unprotected] as the difference
   of two; only CTB overflows, which no field counts, are a registry
   counter. [None] when the engine was built without a sink. *)
type obs = {
  o_ctb_overflows : Ptg_obs.Registry.counter;
  o_trace : Ptg_obs.Trace.t;
}

let obs_of_sink stats sink =
  let reg = Ptg_obs.Sink.registry sink in
  let source = Ptg_obs.Registry.source reg in
  source "engine_writes_total" (fun () -> stats.writes_total);
  source "engine_writes_protected" (fun () -> stats.writes_protected);
  source "engine_writes_unprotected" (fun () -> stats.writes_total - stats.writes_protected);
  source "engine_writes_mac_zero" (fun () -> stats.writes_mac_zero);
  source "engine_collisions_tracked" (fun () -> stats.collisions_tracked);
  source "engine_reads_total" (fun () -> stats.reads_total);
  source "engine_reads_pte" (fun () -> stats.reads_pte);
  source "engine_mac_computations" (fun () -> stats.mac_computations);
  source "engine_macs_stripped" (fun () -> stats.macs_stripped);
  source "engine_integrity_failures" (fun () -> stats.integrity_failures);
  source "engine_corrections_attempted" (fun () -> stats.corrections_attempted);
  source "engine_corrections_succeeded" (fun () -> stats.corrections_succeeded);
  source "engine_rekeys" (fun () -> stats.rekeys);
  {
    o_ctb_overflows = Ptg_obs.Registry.counter reg "engine_ctb_overflows";
    o_trace = Ptg_obs.Sink.trace sink;
  }

type t = {
  config : Config.t;
  mutable key : Qarma.key;
  identifier : int64;
  mutable mac_zero : Mac.t;
  unstripped : int64;
  ctb : Ctb.t;
  stats : stats;
  mutable listeners : (os_event -> unit) list;
  obs : obs option;
  (* Reused by every MAC computation; engines are single-domain. *)
  mac_ctx : Mac.ctx;
  memo : Bytes.t;
  memo_valid : Bytes.t;
  corrections : correction option array;
}

(* A correction memo entry: the line address, a private copy of the
   stored line, and [Correction.correct]'s outcome for them. *)
and correction = {
  c_addr : int64;
  c_line : Ptg_pte.Line.t;
  c_outcome : Correction.outcome;
}

(* The MAC memo: a host-side cache of [compute_mac], which is a pure
   function of (key, line address, masked line). Direct-mapped on the
   line address; a slot holds the address, the 8 masked words, their 4
   chunk cipher outputs and the truncated MAC, and a hit needs all nine
   key words equal. A miss at the address the slot already holds
   re-enciphers only the chunks whose masked words changed (a PTE write
   changes one word, so one chunk of four) and folds the others from the
   slot. It is tied to the current key and emptied whenever the key
   changes. It models no hardware: the read and write paths charge
   latency and count MAC computations exactly as without it, and [state]
   does not include it. *)
let memo_slots = 1024

(* Byte offsets within a slot. *)
let memo_addr = 0
let memo_word i = 8 + (8 * i)
let memo_q_hi i = 72 + (16 * i)
let memo_q_lo i = 80 + (16 * i)
let memo_mac_hi = 136
let memo_mac_lo = 144
let memo_stride = 152

(* The correction memo, under the same contract: a host-side cache of
   [Correction.correct], a pure function of (configuration, key, line
   address, stored line, MAC-zero). The fault model never writes a
   corrected line back, so every later walk through a damaged line
   asks for the same correction again. Direct-mapped on the line
   address; a hit needs the address and all 8 stored words equal. Hit
   or miss, [read_pte] counts, traces and charges the outcome's
   guesses exactly as a fresh call would. *)
let correction_slots = 256

let clear_memo t =
  Bytes.fill t.memo_valid 0 memo_slots '\000';
  Array.fill t.corrections 0 correction_slots None

let obs_event t e =
  match t.obs with None -> () | Some o -> Ptg_obs.Trace.record o.o_trace e

let fresh_stats () =
  {
    writes_total = 0;
    writes_protected = 0;
    writes_mac_zero = 0;
    collisions_tracked = 0;
    reads_total = 0;
    reads_pte = 0;
    mac_computations = 0;
    macs_stripped = 0;
    integrity_failures = 0;
    corrections_attempted = 0;
    corrections_succeeded = 0;
    rekeys = 0;
  }

(* The bits the controller keeps when it forwards a protected line: all
   but the MAC field, and under Optimized the identifier field. *)
let unstripped (config : Config.t) =
  let module L = (val config.Config.layout : Layout.S) in
  Int64.lognot
    (match config.Config.design with
    | Config.Baseline -> L.mac_field_mask
    | Config.Optimized -> Int64.logor L.mac_field_mask L.identifier_field_mask)

let create ?(config = Config.baseline) ?obs ~rng () =
  let key = Qarma.key_of_rng ~rounds:config.Config.qarma_rounds rng in
  let stats = fresh_stats () in
  let identifier =
    match config.Config.design with
    | Config.Baseline -> 0L
    | Config.Optimized ->
        let module L = (val config.Config.layout : Layout.S) in
        Int64.logand (Ptg_util.Rng.next rng) (Ptg_util.Bits.mask L.identifier_bits)
  in
  {
    config;
    key;
    identifier;
    mac_zero = Mac.truncate ~width:config.Config.mac_bits (Mac.compute_zero key);
    unstripped = unstripped config;
    ctb = Ctb.create ~capacity:config.Config.ctb_entries;
    stats;
    listeners = [];
    obs = (match obs with Some sink -> Some (obs_of_sink stats sink) | None -> None);
    mac_ctx = Mac.ctx ();
    memo = Bytes.create (memo_slots * memo_stride);
    memo_valid = Bytes.make memo_slots '\000';
    corrections = Array.make correction_slots None;
  }

let config t = t.config
let stats t = t.stats
let key t = t.key
let identifier t = t.identifier
let ctb t = t.ctb

type state = {
  s_key_w0 : Block128.t;
  s_key_k0 : Block128.t;
  s_ctb : int64 list;
  s_stats : stats;
}

let state t =
  let w0, k0 = Qarma.key_material t.key in
  {
    s_key_w0 = w0;
    s_key_k0 = k0;
    s_ctb = Ctb.entries t.ctb;
    s_stats = { t.stats with writes_total = t.stats.writes_total };
  }

let set_state t s =
  (* [mac_zero] and the derived round material are functions of the key;
     recomputing them keeps the snapshot payload down to the 256-bit key
     input. The identifier is drawn at creation from the same seed the
     restore path recreates the engine with, so it needs no field here. *)
  let key =
    Qarma.expand_key ~rounds:t.config.Config.qarma_rounds ~w0:s.s_key_w0
      s.s_key_k0
  in
  t.key <- key;
  t.mac_zero <-
    Mac.truncate ~width:t.config.Config.mac_bits (Mac.compute_zero key);
  clear_memo t;
  Ctb.clear t.ctb;
  Ctb.set_entries t.ctb s.s_ctb;
  let d = t.stats and src = s.s_stats in
  d.writes_total <- src.writes_total;
  d.writes_protected <- src.writes_protected;
  d.writes_mac_zero <- src.writes_mac_zero;
  d.collisions_tracked <- src.collisions_tracked;
  d.reads_total <- src.reads_total;
  d.reads_pte <- src.reads_pte;
  d.mac_computations <- src.mac_computations;
  d.macs_stripped <- src.macs_stripped;
  d.integrity_failures <- src.integrity_failures;
  d.corrections_attempted <- src.corrections_attempted;
  d.corrections_succeeded <- src.corrections_succeeded;
  d.rekeys <- src.rekeys
let on_os_event t f = t.listeners <- f :: t.listeners
let emit t e = List.iter (fun f -> f e) t.listeners

(* The configured page-table layout (x86-64 by default, ARMv8 via
   Config.with_layout): every format-specific operation goes through it. *)
let layout t = t.config.Config.layout

(* Does [slot] hold [addr]? *)
let memo_at t ~base ~slot ~addr =
  Bytes.get t.memo_valid slot <> '\000'
  && Int64.equal (Bytes.get_int64_ne t.memo (base + memo_addr)) addr

(* Do the slot's masked words equal [line]'s under the protected-bit
   mask [pm]? Allocates nothing. [line] is checked by [compute_mac]. *)
let memo_words_equal t ~base ~pm line =
  let i = ref 0 in
  while
    !i < Ptg_pte.Line.words
    && Int64.equal
         (Bytes.get_int64_ne t.memo (base + memo_word !i))
         (Int64.logand (Ptg_pte.Line.unsafe_get line !i) pm)
  do
    incr i
  done;
  !i = Ptg_pte.Line.words

(* Chunk [i] of [line] masked by [pm] through the slot at [base]:
   re-enciphered and stored unless [reuse] and the slot holds the same
   two masked words. *)
let memo_chunk t ~base ~addr ~pm ~reuse line i =
  let w_lo = Int64.logand (Ptg_pte.Line.unsafe_get line (2 * i)) pm
  and w_hi = Int64.logand (Ptg_pte.Line.unsafe_get line ((2 * i) + 1)) pm in
  if
    not
      (reuse
      && Int64.equal (Bytes.get_int64_ne t.memo (base + memo_word (2 * i))) w_lo
      && Int64.equal (Bytes.get_int64_ne t.memo (base + memo_word ((2 * i) + 1))) w_hi)
  then begin
    Mac.chunk t.mac_ctx t.key ~addr i ~hi:w_hi ~lo:w_lo;
    Bytes.set_int64_ne t.memo (base + memo_word (2 * i)) w_lo;
    Bytes.set_int64_ne t.memo (base + memo_word ((2 * i) + 1)) w_hi;
    Bytes.set_int64_ne t.memo (base + memo_q_hi i) (Mac.out_hi t.mac_ctx);
    Bytes.set_int64_ne t.memo (base + memo_q_lo i) (Mac.out_lo t.mac_ctx)
  end

(* MAC of a line's protected bits, truncated to the configured width. *)
let compute_mac t ~addr line =
  Ptg_pte.Line.check "Engine" line;
  let module L = (val layout t : Layout.S) in
  let pm = L.protected_mask in
  let slot = (Int64.to_int addr lsr 6) land (memo_slots - 1) in
  let base = slot * memo_stride in
  let reuse = memo_at t ~base ~slot ~addr in
  if reuse && memo_words_equal t ~base ~pm line then
    { Mac.hi32 = Bytes.get_int64_ne t.memo (base + memo_mac_hi);
      lo = Bytes.get_int64_ne t.memo (base + memo_mac_lo) }
  else begin
    let hi = ref 0L and lo = ref 0L in
    for i = 0 to 3 do
      memo_chunk t ~base ~addr ~pm ~reuse line i;
      hi := Int64.logxor !hi (Bytes.get_int64_ne t.memo (base + memo_q_hi i));
      lo := Int64.logxor !lo (Bytes.get_int64_ne t.memo (base + memo_q_lo i))
    done;
    let mac = Mac.truncate ~width:t.config.Config.mac_bits (Mac.of_fold ~hi:!hi ~lo:!lo) in
    Bytes.set_int64_ne t.memo (base + memo_addr) addr;
    Bytes.set_int64_ne t.memo (base + memo_mac_hi) mac.Mac.hi32;
    Bytes.set_int64_ne t.memo (base + memo_mac_lo) mac.Mac.lo;
    Bytes.set t.memo_valid slot '\001';
    mac
  end

(* The embedded-MAC comparison is strict over the full 96-bit field: with
   a truncated MAC the unused upper field bits must be zero, exactly as
   the write path leaves them. *)
let embedded_matches ~stored ~computed = Mac.equal stored computed

let pattern_matches t line =
  let module L = (val layout t : Layout.S) in
  match t.config.Config.design with
  | Config.Baseline -> L.matches_basic_pattern line
  | Config.Optimized -> L.matches_extended_pattern line

let identifier_present t line =
  let module L = (val layout t : Layout.S) in
  Int64.equal (L.extract_identifier line) t.identifier

(* Would reading this stored line back be misinterpreted as MAC-protected?
   Used for write-time collision detection on non-matching lines. *)
let would_collide t ~addr line =
  let id_ok =
    match t.config.Config.design with
    | Config.Baseline -> true
    | Config.Optimized -> identifier_present t line
  in
  let module L = (val layout t : Layout.S) in
  id_ok
  && embedded_matches ~stored:(L.extract_mac line) ~computed:(compute_mac t ~addr line)

let embed t ~addr line =
  let module L = (val layout t : Layout.S) in
  let is_zero_line = Ptg_pte.Line.is_zero line in
  let mac =
    if t.config.Config.design = Config.Optimized && is_zero_line then begin
      t.stats.writes_mac_zero <- t.stats.writes_mac_zero + 1;
      t.mac_zero
    end
    else compute_mac t ~addr line
  in
  let stored = L.embed_mac line mac in
  match t.config.Config.design with
  | Config.Baseline -> stored
  | Config.Optimized -> L.embed_identifier stored t.identifier

let process_write t ~addr line =
  t.stats.writes_total <- t.stats.writes_total + 1;
  if pattern_matches t line then begin
    t.stats.writes_protected <- t.stats.writes_protected + 1;
    (* A protected write replaces whatever colliding data was there. *)
    Ctb.remove t.ctb addr;
    embed t ~addr line
  end
  else begin
    if would_collide t ~addr line then begin
      match Ctb.add t.ctb addr with
      | `Added ->
          t.stats.collisions_tracked <- t.stats.collisions_tracked + 1;
          obs_event t (Ptg_obs.Trace.Ctb_insert { addr });
          emit t (Collision_detected { addr })
      | `Already_present -> ()
      | `Full ->
          (match t.obs with
          | None -> ()
          | Some o ->
              Ptg_obs.Registry.incr o.o_ctb_overflows;
              Ptg_obs.Trace.record o.o_trace Ptg_obs.Trace.Ctb_overflow);
          emit t Ctb_overflow
    end
    else Ctb.remove t.ctb addr;
    Ptg_pte.Line.copy line
  end

let strip t line = Ptg_pte.Line.keep t.unstripped line
let zero_once_stripped t line = Ptg_pte.Line.zero_under t.unstripped line

(* Under the Optimized design, faults in the identifier field of a PTE
   line are trivially corrected because the expected value is known
   on-chip (Section VI). *)
let restore_identifier t line =
  let module L = (val layout t : Layout.S) in
  match t.config.Config.design with
  | Config.Baseline -> line
  | Config.Optimized -> L.embed_identifier line t.identifier

(* [Correction.correct] of a stored PTE line through the correction
   memo. Neither the key copy nor the outcome's line ever leaves the
   engine ([read_pte] forwards a stripped copy), so no caller can
   mutate an entry into a later hit. *)
let correct t ~addr line =
  let slot = (Int64.to_int addr lsr 6) land (correction_slots - 1) in
  match t.corrections.(slot) with
  | Some c when Int64.equal c.c_addr addr && Ptg_pte.Line.equal c.c_line line ->
      c.c_outcome
  | Some _ | None ->
      let mac_zero =
        match t.config.Config.design with
        | Config.Baseline -> None
        | Config.Optimized -> Some t.mac_zero
      in
      let outcome =
        match
          Correction.correct ?mac_zero t.config t.key ~addr (restore_identifier t line)
        with
        | Correction.Corrected c ->
            Correction.Corrected { c with line = Ptg_pte.Line.copy c.line }
        | Correction.Uncorrectable _ as u -> u
      in
      t.corrections.(slot) <-
        Some { c_addr = addr; c_line = Ptg_pte.Line.copy line; c_outcome = outcome };
      outcome

let read_pte t ~addr line =
  let module L = (val layout t : Layout.S) in
  let mac_latency = t.config.Config.mac_latency_cycles in
  let stored = L.extract_mac line in
  (* Zero PTE cachelines carry the address-free MAC-zero (Section V-B):
     the check is a comparison against the on-chip constant, no cipher
     latency. Only the Optimized design embeds MAC-zero. *)
  let mac_zero_hit =
    t.config.Config.design = Config.Optimized
    && zero_once_stripped t line
    && embedded_matches ~stored ~computed:t.mac_zero
  in
  if mac_zero_hit then begin
    t.stats.macs_stripped <- t.stats.macs_stripped + 1;
    obs_event t (Ptg_obs.Trace.Mac_verify { addr; ok = true });
    { line = Some (strip t line); integrity = Passed; extra_latency = 0;
      raw_line = line }
  end
  else begin
  t.stats.mac_computations <- t.stats.mac_computations + 1;
  let computed = compute_mac t ~addr line in
  if embedded_matches ~stored ~computed then begin
    t.stats.macs_stripped <- t.stats.macs_stripped + 1;
    obs_event t (Ptg_obs.Trace.Mac_verify { addr; ok = true });
    { line = Some (strip t line); integrity = Passed; extra_latency = mac_latency;
      raw_line = line }
  end
  else begin
  obs_event t (Ptg_obs.Trace.Mac_verify { addr; ok = false });
  if t.config.Config.correction_enabled then begin
    t.stats.corrections_attempted <- t.stats.corrections_attempted + 1;
    match correct t ~addr line with
    | Correction.Corrected { line = fixed; step; guesses } ->
        t.stats.corrections_succeeded <- t.stats.corrections_succeeded + 1;
        obs_event t
          (Ptg_obs.Trace.Correction
             { addr; step = Correction.step_name step; guesses; ok = true });
        {
          line = Some (strip t fixed);
          integrity = Corrected { step; guesses };
          extra_latency = mac_latency * (1 + guesses);
          raw_line = line;
        }
    | Correction.Uncorrectable { guesses } ->
        t.stats.integrity_failures <- t.stats.integrity_failures + 1;
        obs_event t
          (Ptg_obs.Trace.Correction { addr; step = "uncorrectable"; guesses; ok = false });
        emit t (Pte_integrity_failure { addr });
        {
          line = None;
          integrity = Failed;
          extra_latency = mac_latency * (1 + guesses);
          raw_line = line;
        }
  end
  else begin
    t.stats.integrity_failures <- t.stats.integrity_failures + 1;
    emit t (Pte_integrity_failure { addr });
    { line = None; integrity = Failed; extra_latency = mac_latency; raw_line = line }
  end
  end
  end

(* A data read always forwards a line: the MAC-stripped line when an
   embedded MAC verifies, the stored bits untouched otherwise. Returns the
   forwarded line, its integrity and the added latency. *)
let read_data_baseline t ~addr line =
  let module L = (val layout t : Layout.S) in
  let mac_latency = t.config.Config.mac_latency_cycles in
  t.stats.mac_computations <- t.stats.mac_computations + 1;
  let computed = compute_mac t ~addr line in
  let stored = L.extract_mac line in
  if embedded_matches ~stored ~computed then begin
    t.stats.macs_stripped <- t.stats.macs_stripped + 1;
    (strip t line, Data_protected, mac_latency)
  end
  else (Ptg_pte.Line.copy line, Data_passthrough, mac_latency)

let read_data_optimized t ~addr line =
  let mac_latency = t.config.Config.mac_latency_cycles in
  if not (identifier_present t line) then
    (* No identifier, no embedded MAC: forward with zero added latency —
       the optimization that flattens Figure 7. *)
    (Ptg_pte.Line.copy line, Data_passthrough, 0)
  else begin
    let module L = (val layout t : Layout.S) in
    let stored = L.extract_mac line in
    if zero_once_stripped t line && embedded_matches ~stored ~computed:t.mac_zero then begin
      (* MAC-zero shortcut: comparison against the on-chip constant only. *)
      t.stats.macs_stripped <- t.stats.macs_stripped + 1;
      (strip t line, Data_protected, 0)
    end
    else begin
      t.stats.mac_computations <- t.stats.mac_computations + 1;
      let computed = compute_mac t ~addr line in
      if embedded_matches ~stored ~computed then begin
        t.stats.macs_stripped <- t.stats.macs_stripped + 1;
        (strip t line, Data_protected, mac_latency)
      end
      else (Ptg_pte.Line.copy line, Data_passthrough, mac_latency)
    end
  end

let read_data t ~addr line =
  if Ctb.mem t.ctb addr then (Ptg_pte.Line.copy line, Data_passthrough, 0)
  else
    match t.config.Config.design with
    | Config.Baseline -> read_data_baseline t ~addr line
    | Config.Optimized -> read_data_optimized t ~addr line

let count_read t = t.stats.reads_total <- t.stats.reads_total + 1

let process_data_read t ~addr line =
  count_read t;
  let data, _, extra_latency = read_data t ~addr line in
  (data, extra_latency)

let process_read t ~addr ~is_pte line =
  count_read t;
  if is_pte then begin
    t.stats.reads_pte <- t.stats.reads_pte + 1;
    (* Page-table walks are always verified, CTB or not: a PTE line can
       never legitimately be a tracked collision because the kernel's
       protected write evicts any stale CTB entry. *)
    read_pte t ~addr line
  end
  else
    let data, integrity, extra_latency = read_data t ~addr line in
    { line = Some data; integrity; extra_latency; raw_line = line }

let rekey t ~rng ~iter_lines ~write =
  let module L = (val layout t : Layout.S) in
  let old_key = t.key and old_mac_zero = t.mac_zero in
  t.key <- Qarma.key_of_rng ~rounds:t.config.Config.qarma_rounds rng;
  t.mac_zero <- Mac.truncate ~width:t.config.Config.mac_bits (Mac.compute_zero t.key);
  clear_memo t;
  Ctb.clear t.ctb;
  (* Snapshot the stored lines first: [write] updates the store
     [iter_lines] walks. *)
  let lines = ref [] and count = ref 0 in
  iter_lines (fun ~addr line ->
      incr count;
      lines := (addr, Ptg_pte.Line.copy line) :: !lines);
  List.iter
    (fun (addr, line) ->
      (* Recover the pre-DRAM view under the old key, then re-embed. A
         zero line under the Optimized design carries the old key's
         address-free MAC-zero, as the read path accepts it; any other
         line carries its address-bound MAC. The old-key MAC bypasses
         the memo, which holds new-key MACs only. *)
      let stored = L.extract_mac line in
      let old_mac () =
        Mac.truncate ~width:t.config.Config.mac_bits
          (Mac.compute_with t.mac_ctx old_key ~addr (L.masked_for_mac line))
      in
      let embedded =
        match t.config.Config.design with
        | Config.Baseline -> embedded_matches ~stored ~computed:(old_mac ())
        | Config.Optimized ->
            identifier_present t line
            && ((zero_once_stripped t line
                && embedded_matches ~stored ~computed:old_mac_zero)
               || embedded_matches ~stored ~computed:(old_mac ()))
      in
      let logical = if embedded then strip t line else Ptg_pte.Line.copy line in
      write ~addr (process_write t ~addr logical))
    (List.rev !lines);
  t.stats.rekeys <- t.stats.rekeys + 1;
  obs_event t (Ptg_obs.Trace.Rekey { writes = !count });
  emit t (Rekey_completed { writes = !count })

let pte_bounds_check t line =
  let module L = (val layout t : Layout.S) in
  Ptg_pte.Line.exists L.pfn_out_of_bounds line
