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

(* Observability mirror of [stats]: registry counters resolved once at
   creation, plus the shared trace ring. [None] when the engine was built
   without a sink — the disabled path costs one option branch. *)
type obs = {
  o_writes_total : Ptg_obs.Registry.counter;
  o_writes_protected : Ptg_obs.Registry.counter;
  o_writes_unprotected : Ptg_obs.Registry.counter;
  o_writes_mac_zero : Ptg_obs.Registry.counter;
  o_collisions : Ptg_obs.Registry.counter;
  o_ctb_overflows : Ptg_obs.Registry.counter;
  o_reads_total : Ptg_obs.Registry.counter;
  o_reads_pte : Ptg_obs.Registry.counter;
  o_mac_computations : Ptg_obs.Registry.counter;
  o_macs_stripped : Ptg_obs.Registry.counter;
  o_integrity_failures : Ptg_obs.Registry.counter;
  o_corrections_attempted : Ptg_obs.Registry.counter;
  o_corrections_succeeded : Ptg_obs.Registry.counter;
  o_rekeys : Ptg_obs.Registry.counter;
  o_trace : Ptg_obs.Trace.t;
}

let obs_of_sink sink =
  let c = Ptg_obs.Registry.counter (Ptg_obs.Sink.registry sink) in
  {
    o_writes_total = c "engine_writes_total";
    o_writes_protected = c "engine_writes_protected";
    o_writes_unprotected = c "engine_writes_unprotected";
    o_writes_mac_zero = c "engine_writes_mac_zero";
    o_collisions = c "engine_collisions_tracked";
    o_ctb_overflows = c "engine_ctb_overflows";
    o_reads_total = c "engine_reads_total";
    o_reads_pte = c "engine_reads_pte";
    o_mac_computations = c "engine_mac_computations";
    o_macs_stripped = c "engine_macs_stripped";
    o_integrity_failures = c "engine_integrity_failures";
    o_corrections_attempted = c "engine_corrections_attempted";
    o_corrections_succeeded = c "engine_corrections_succeeded";
    o_rekeys = c "engine_rekeys";
    o_trace = Ptg_obs.Sink.trace sink;
  }

type t = {
  config : Config.t;
  mutable key : Qarma.key;
  identifier : int64;
  mutable mac_zero : Mac.t;
  ctb : Ctb.t;
  stats : stats;
  mutable listeners : (os_event -> unit) list;
  obs : obs option;
  (* Reused by every MAC computation; engines are single-domain, and the
     read-only view [rekey] builds shares it safely (strictly sequential). *)
  mac_ctx : Mac.ctx;
}

let obs_incr t sel =
  match t.obs with None -> () | Some o -> Ptg_obs.Registry.incr (sel o)

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

let create ?(config = Config.baseline) ?obs ~rng () =
  let key = Qarma.key_of_rng ~rounds:config.Config.qarma_rounds rng in
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
    ctb = Ctb.create ~capacity:config.Config.ctb_entries;
    stats = fresh_stats ();
    listeners = [];
    obs = Option.map obs_of_sink obs;
    mac_ctx = Mac.ctx ();
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

(* MAC of a line's protected bits, truncated to the configured width. *)
let compute_mac t ~addr line =
  let module L = (val layout t : Layout.S) in
  Mac.truncate ~width:t.config.Config.mac_bits
    (Mac.compute_with t.mac_ctx t.key ~addr (L.masked_for_mac line))

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
      obs_incr t (fun o -> o.o_writes_mac_zero);
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
  obs_incr t (fun o -> o.o_writes_total);
  if pattern_matches t line then begin
    t.stats.writes_protected <- t.stats.writes_protected + 1;
    obs_incr t (fun o -> o.o_writes_protected);
    (* A protected write replaces whatever colliding data was there. *)
    Ctb.remove t.ctb addr;
    embed t ~addr line
  end
  else begin
    obs_incr t (fun o -> o.o_writes_unprotected);
    if would_collide t ~addr line then begin
      match Ctb.add t.ctb addr with
      | `Added ->
          t.stats.collisions_tracked <- t.stats.collisions_tracked + 1;
          obs_incr t (fun o -> o.o_collisions);
          obs_event t (Ptg_obs.Trace.Ctb_insert { addr });
          emit t (Collision_detected { addr })
      | `Already_present -> ()
      | `Full ->
          obs_incr t (fun o -> o.o_ctb_overflows);
          obs_event t Ptg_obs.Trace.Ctb_overflow;
          emit t Ctb_overflow
    end
    else Ctb.remove t.ctb addr;
    Ptg_pte.Line.copy line
  end

let strip t line =
  let module L = (val layout t : Layout.S) in
  let line = L.strip_mac line in
  match t.config.Config.design with
  | Config.Baseline -> line
  | Config.Optimized -> L.strip_identifier line

(* Under the Optimized design, faults in the identifier field of a PTE
   line are trivially corrected because the expected value is known
   on-chip (Section VI). *)
let restore_identifier t line =
  let module L = (val layout t : Layout.S) in
  match t.config.Config.design with
  | Config.Baseline -> line
  | Config.Optimized -> L.embed_identifier line t.identifier

(* The [?mac] parameter on the read paths carries a MAC that a [Batch]
   flush already computed for this (addr, line): the decision logic and
   stats accounting are identical to the scalar path — including counting
   the computation — only the cipher work itself is skipped. *)
let computed_or t ~addr line = function
  | Some m -> m
  | None -> compute_mac t ~addr line

let read_pte ?mac t ~addr line =
  let module L = (val layout t : Layout.S) in
  let mac_latency = t.config.Config.mac_latency_cycles in
  let stored = L.extract_mac line in
  (* Zero PTE cachelines carry the address-free MAC-zero (Section V-B):
     the check is a comparison against the on-chip constant, no cipher
     latency. Only the Optimized design embeds MAC-zero. *)
  let mac_zero_hit =
    t.config.Config.design = Config.Optimized
    && Ptg_pte.Line.is_zero (strip t line)
    && embedded_matches ~stored ~computed:t.mac_zero
  in
  if mac_zero_hit then begin
    t.stats.macs_stripped <- t.stats.macs_stripped + 1;
    obs_incr t (fun o -> o.o_macs_stripped);
    obs_event t (Ptg_obs.Trace.Mac_verify { addr; ok = true });
    { line = Some (strip t line); integrity = Passed; extra_latency = 0;
      raw_line = line }
  end
  else begin
  t.stats.mac_computations <- t.stats.mac_computations + 1;
  obs_incr t (fun o -> o.o_mac_computations);
  let computed = computed_or t ~addr line mac in
  if embedded_matches ~stored ~computed then begin
    t.stats.macs_stripped <- t.stats.macs_stripped + 1;
    obs_incr t (fun o -> o.o_macs_stripped);
    obs_event t (Ptg_obs.Trace.Mac_verify { addr; ok = true });
    { line = Some (strip t line); integrity = Passed; extra_latency = mac_latency;
      raw_line = line }
  end
  else begin
  obs_event t (Ptg_obs.Trace.Mac_verify { addr; ok = false });
  if t.config.Config.correction_enabled then begin
    t.stats.corrections_attempted <- t.stats.corrections_attempted + 1;
    obs_incr t (fun o -> o.o_corrections_attempted);
    let candidate = restore_identifier t line in
    let mac_zero =
      match t.config.Config.design with
      | Config.Baseline -> None
      | Config.Optimized -> Some t.mac_zero
    in
    match Correction.correct ?mac_zero:(Option.map Fun.id mac_zero) t.config t.key ~addr candidate with
    | Correction.Corrected { line = fixed; step; guesses } ->
        t.stats.corrections_succeeded <- t.stats.corrections_succeeded + 1;
        obs_incr t (fun o -> o.o_corrections_succeeded);
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
        obs_incr t (fun o -> o.o_integrity_failures);
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
    obs_incr t (fun o -> o.o_integrity_failures);
    emit t (Pte_integrity_failure { addr });
    { line = None; integrity = Failed; extra_latency = mac_latency; raw_line = line }
  end
  end
  end

let read_data_baseline ?mac t ~addr line =
  let module L = (val layout t : Layout.S) in
  let mac_latency = t.config.Config.mac_latency_cycles in
  t.stats.mac_computations <- t.stats.mac_computations + 1;
  obs_incr t (fun o -> o.o_mac_computations);
  let computed = computed_or t ~addr line mac in
  let stored = L.extract_mac line in
  if embedded_matches ~stored ~computed then begin
    t.stats.macs_stripped <- t.stats.macs_stripped + 1;
    obs_incr t (fun o -> o.o_macs_stripped);
    { line = Some (strip t line); integrity = Data_protected;
      extra_latency = mac_latency; raw_line = line }
  end
  else
    { line = Some (Ptg_pte.Line.copy line); integrity = Data_passthrough;
      extra_latency = mac_latency; raw_line = line }

let read_data_optimized ?mac t ~addr line =
  let mac_latency = t.config.Config.mac_latency_cycles in
  if not (identifier_present t line) then
    (* No identifier, no embedded MAC: forward with zero added latency —
       the optimization that flattens Figure 7. *)
    { line = Some (Ptg_pte.Line.copy line); integrity = Data_passthrough;
      extra_latency = 0; raw_line = line }
  else begin
    let module L = (val layout t : Layout.S) in
    let stored = L.extract_mac line in
    let rest_is_zero = Ptg_pte.Line.is_zero (strip t line) in
    if rest_is_zero && embedded_matches ~stored ~computed:t.mac_zero then begin
      (* MAC-zero shortcut: comparison against the on-chip constant only. *)
      t.stats.macs_stripped <- t.stats.macs_stripped + 1;
      obs_incr t (fun o -> o.o_macs_stripped);
      { line = Some (strip t line); integrity = Data_protected;
        extra_latency = 0; raw_line = line }
    end
    else begin
      t.stats.mac_computations <- t.stats.mac_computations + 1;
      obs_incr t (fun o -> o.o_mac_computations);
      let computed = computed_or t ~addr line mac in
      if embedded_matches ~stored ~computed then begin
        t.stats.macs_stripped <- t.stats.macs_stripped + 1;
        obs_incr t (fun o -> o.o_macs_stripped);
        { line = Some (strip t line); integrity = Data_protected;
          extra_latency = mac_latency; raw_line = line }
      end
      else
        { line = Some (Ptg_pte.Line.copy line); integrity = Data_passthrough;
          extra_latency = mac_latency; raw_line = line }
    end
  end

let process_read_with ?mac t ~addr ~is_pte line =
  t.stats.reads_total <- t.stats.reads_total + 1;
  obs_incr t (fun o -> o.o_reads_total);
  if is_pte then begin
    t.stats.reads_pte <- t.stats.reads_pte + 1;
    obs_incr t (fun o -> o.o_reads_pte);
    (* Page-table walks are always verified, CTB or not: a PTE line can
       never legitimately be a tracked collision because the kernel's
       protected write evicts any stale CTB entry. *)
    read_pte ?mac t ~addr line
  end
  else if Ctb.mem t.ctb addr then
    { line = Some (Ptg_pte.Line.copy line); integrity = Data_passthrough;
      extra_latency = 0; raw_line = line }
  else
    match t.config.Config.design with
    | Config.Baseline -> read_data_baseline ?mac t ~addr line
    | Config.Optimized -> read_data_optimized ?mac t ~addr line

let process_read t ~addr ~is_pte line = process_read_with t ~addr ~is_pte line

(* Will [process_read] need a fresh MAC computation for this request?
   Mirrors the shortcut structure of the read paths above exactly (the
   mac-zero constant comparison, the CTB passthrough, the Optimized
   identifier gate); the batched-vs-sequential differential tests pin the
   agreement. Pure: no stats, no traces. *)
let needs_mac t ~addr ~is_pte line =
  let module L = (val layout t : Layout.S) in
  let mac_zero_hit () =
    t.config.Config.design = Config.Optimized
    && Ptg_pte.Line.is_zero (strip t line)
    && embedded_matches ~stored:(L.extract_mac line) ~computed:t.mac_zero
  in
  if is_pte then not (mac_zero_hit ())
  else if Ctb.mem t.ctb addr then false
  else
    match t.config.Config.design with
    | Config.Baseline -> true
    | Config.Optimized -> identifier_present t line && not (mac_zero_hit ())

let rekey t ~rng ~iter_lines ~write =
  (* [old] is a read-only view under the outgoing key: no stats, no
     listeners, and no observability (the re-embedding writes on [t] are
     the ones that count). *)
  let old = { t with stats = fresh_stats (); listeners = []; obs = None } in
  t.key <- Qarma.key_of_rng ~rounds:t.config.Config.qarma_rounds rng;
  t.mac_zero <- Mac.truncate ~width:t.config.Config.mac_bits (Mac.compute_zero t.key);
  Ctb.clear t.ctb;
  (* Snapshot the stored lines first, so the old-key verification MACs can
     be computed in one [Mac.compute_batch] pass. The verification only
     reads [old]'s frozen key material, so hoisting it ahead of the
     re-embedding writes cannot change any outcome. *)
  let addrs = ref [] and count = ref 0 in
  iter_lines (fun ~addr line ->
      incr count;
      addrs := (addr, Ptg_pte.Line.copy line) :: !addrs);
  let items = Array.of_list (List.rev !addrs) in
  let n = Array.length items in
  let module L = (val layout old : Layout.S) in
  let macs =
    Mac.compute_batch t.mac_ctx old.key ~n
      ~addrs:(Array.map fst items)
      ~lines:(Array.map (fun (_, line) -> L.masked_for_mac line) items)
  in
  Array.iteri
    (fun i (addr, line) ->
      (* Recover the pre-DRAM view under the old key, then re-embed. *)
      let logical =
        let id_ok =
          match old.config.Config.design with
          | Config.Baseline -> true
          | Config.Optimized -> identifier_present old line
        in
        if
          id_ok
          && embedded_matches ~stored:(L.extract_mac line)
               ~computed:
                 (Mac.truncate ~width:old.config.Config.mac_bits macs.(i))
        then strip old line
        else Ptg_pte.Line.copy line
      in
      write ~addr (process_write t ~addr logical))
    items;
  t.stats.rekeys <- t.stats.rekeys + 1;
  obs_incr t (fun o -> o.o_rekeys);
  obs_event t (Ptg_obs.Trace.Rekey { writes = !count });
  emit t (Rekey_completed { writes = !count })

(* Deferred verification: reads are staged into a buffer and resolved
   together when the buffer reaches capacity (or on an explicit flush).
   The flush computes every needed MAC with one [Mac.compute_batch], then
   replays the scalar decision logic per request in stage order with the
   precomputed MAC substituted in — so stats, traces, OS events and
   results are exactly those of calling [process_read] sequentially
   (pinned by the differential tests). Corrections, being rare and
   iterative, run inside [Correction]. *)
module Batch = struct
  type engine = t

  type nonrec t = {
    engine : engine;
    capacity : int;
    mutable n : int;
    addrs : int64 array;
    is_ptes : bool array;
    lines : Ptg_pte.Line.t array;
    ks : (read_result -> unit) array;
    (* flush scratch: lane -> request mapping *)
    lane_addrs : int64 array;
    lane_lines : Ptg_pte.Line.t array;
    lane_req : int array;
  }

  let nop (_ : read_result) = ()

  let default_capacity = 64

  let create ?(capacity = default_capacity) engine =
    if capacity < 1 then invalid_arg "Engine.Batch.create: capacity";
    {
      engine;
      capacity;
      n = 0;
      addrs = Array.make capacity 0L;
      is_ptes = Array.make capacity false;
      lines = Array.make capacity [||];
      ks = Array.make capacity nop;
      lane_addrs = Array.make capacity 0L;
      lane_lines = Array.make capacity [||];
      lane_req = Array.make capacity (-1);
    }

  let capacity b = b.capacity
  let pending b = b.n

  let flush b =
    if b.n > 0 then begin
      let e = b.engine in
      let module L = (val layout e : Layout.S) in
      (* Which staged reads will pay for a cipher call? The predicate only
         depends on engine state that reads never mutate, so deciding for
         the whole batch up front matches per-request decisions. *)
      let k = ref 0 in
      for i = 0 to b.n - 1 do
        if needs_mac e ~addr:b.addrs.(i) ~is_pte:b.is_ptes.(i) b.lines.(i)
        then begin
          b.lane_addrs.(!k) <- b.addrs.(i);
          b.lane_lines.(!k) <- L.masked_for_mac b.lines.(i);
          b.lane_req.(!k) <- i;
          incr k
        end
      done;
      let macs =
        Mac.compute_batch e.mac_ctx e.key ~n:!k ~addrs:b.lane_addrs
          ~lines:b.lane_lines
      in
      let next_lane = ref 0 in
      for i = 0 to b.n - 1 do
        let mac =
          if !next_lane < !k && b.lane_req.(!next_lane) = i then begin
            let m =
              Mac.truncate ~width:e.config.Config.mac_bits macs.(!next_lane)
            in
            incr next_lane;
            Some m
          end
          else None
        in
        let r =
          process_read_with ?mac e ~addr:b.addrs.(i) ~is_pte:b.is_ptes.(i)
            b.lines.(i)
        in
        b.ks.(i) r
      done;
      (* Drop line references so staged lines don't outlive the flush. *)
      for i = 0 to b.n - 1 do
        b.lines.(i) <- [||];
        b.ks.(i) <- nop
      done;
      b.n <- 0
    end

  let stage b ~addr ~is_pte line k =
    b.addrs.(b.n) <- addr;
    b.is_ptes.(b.n) <- is_pte;
    b.lines.(b.n) <- Ptg_pte.Line.copy line;
    b.ks.(b.n) <- k;
    b.n <- b.n + 1;
    if b.n = b.capacity then flush b
end

let pte_bounds_check t line =
  let module L = (val layout t : Layout.S) in
  Array.exists L.pfn_out_of_bounds line
