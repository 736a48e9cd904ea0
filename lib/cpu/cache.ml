type config = { size_bytes : int; assoc : int; line_bytes : int; latency : int }

let l1d_32k = { size_bytes = 32 * 1024; assoc = 8; line_bytes = 64; latency = 4 }
let l2_256k = { size_bytes = 256 * 1024; assoc = 16; line_bytes = 64; latency = 12 }
let l3_2m = { size_bytes = 2 * 1024 * 1024; assoc = 16; line_bytes = 64; latency = 38 }
let l3_1m = { size_bytes = 1024 * 1024; assoc = 16; line_bytes = 64; latency = 38 }
let mmu_8k = { size_bytes = 8 * 1024; assoc = 4; line_bytes = 8; latency = 1 }

(* The access and miss counts, apart from the cache itself: a registry
   source reads this record, so a sink never keeps the tag arrays of a
   finished cache alive. *)
type counts = { mutable accesses : int; mutable misses : int }

(* Way state is stored structure-of-arrays: the lookup loop scans a
   contiguous int array of tags instead of chasing one record pointer per
   way. Tags are native ints — simulated physical addresses are
   nonnegative and far below 2^62, so [Int64.to_int] is exact — with -1
   as the "invalid way" sentinel (a real tag is always >= 0, so a tag
   match implies validity). Way w of set s lives at index
   [s * assoc + w]. *)
type t = {
  cfg : config;
  set_count : int;
  assoc : int;
  tags : int array;   (* -1 = invalid *)
  lrus : int array;
  dirty : Bytes.t;    (* '\001' = dirty *)
  (* Shift/mask decomposition of the address split; exact because
     [create] validates that line size and set count are powers of two
     and simulated physical addresses are non-negative. *)
  line_shift : int;
  set_shift : int;
  set_mask : int;
  counts : counts;
  mutable tick : int;
  (* Writeback protocol of [access_fast]: valid until the next access.
     The victim is kept as its line index, a native int (exact, like the
     tags), so publishing a dirty eviction stores no boxed int64. *)
  mutable wb_pending : bool;
  mutable wb_line : int;
}

let export ~name counts sink =
  let source = Ptg_obs.Registry.source (Ptg_obs.Sink.registry sink) ~labels:[ ("cache", name) ] in
  source "cache_accesses" (fun () -> counts.accesses);
  source "cache_misses" (fun () -> counts.misses)

let create ?obs ?(name = "cache") cfg =
  if cfg.size_bytes mod (cfg.assoc * cfg.line_bytes) <> 0 then
    invalid_arg "Cache.create: geometry does not divide";
  let set_count = cfg.size_bytes / (cfg.assoc * cfg.line_bytes) in
  if not (Ptg_util.Bits.is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if not (Ptg_util.Bits.is_pow2 set_count) then
    invalid_arg "Cache.create: set count must be a power of two";
  let ways = set_count * cfg.assoc in
  let counts = { accesses = 0; misses = 0 } in
  (match obs with Some sink -> export ~name counts sink | None -> ());
  {
    cfg;
    set_count;
    assoc = cfg.assoc;
    tags = Array.make ways (-1);
    lrus = Array.make ways 0;
    dirty = Bytes.make ways '\000';
    line_shift = Ptg_util.Bits.log2 cfg.line_bytes;
    set_shift = Ptg_util.Bits.log2 set_count;
    set_mask = set_count - 1;
    counts;
    tick = 0;
    wb_pending = false;
    wb_line = 0;
  }

let config t = t.cfg

(* Single source of truth for the address split: every caller derives the
   set base index and the tag from the same shift/mask chain, so a
   writeback address can never be reconstructed from a different set
   index than the one the lookup used. *)
(* The line index is shifted in int64 before conversion: for any
   line_bytes >= 4 the result is below 2^62, so [Int64.to_int] is exact
   even for addresses with the top bits set (the simulators stay far
   below that, but the property tests exercise the full domain). *)
let line_index t addr =
  Int64.to_int (Int64.shift_right_logical addr t.line_shift)

let locate t addr =
  let line = line_index t addr in
  let set_idx = line land t.set_mask in
  let tag = line lsr t.set_shift in
  (set_idx * t.assoc, set_idx, tag)

(* [@inline]: it runs several times per simulated instruction, and
   inlined (the caller needs this module's .cmx: a build without
   -opaque) its int64 [addr] is shifted in registers instead of being
   boxed for the call. *)
let[@inline] access_fast t ~addr ~is_write =
  t.tick <- t.tick + 1;
  t.counts.accesses <- t.counts.accesses + 1;
  t.wb_pending <- false;
  let line = line_index t addr in
  let set_idx = line land t.set_mask in
  let tag = line lsr t.set_shift in
  let base = set_idx * t.assoc in
  let tags = t.tags in
  let lrus = t.lrus in
  (* One pass computes the hit way and, in case of a miss, the victim:
     first invalid way if any, else the leftmost LRU minimum among the
     (then all-valid) ways — identical choice to the separate scans this
     fused loop replaced. The partial victim state is simply unused on a
     hit. *)
  let hit = ref (-1) in
  let invalid = ref (-1) in
  let best = ref (-1) in
  let best_lru = ref max_int in
  let i = ref 0 in
  while !hit < 0 && !i < t.assoc do
    let w_tag = Array.unsafe_get tags (base + !i) in
    if w_tag = tag then hit := base + !i
    else if w_tag < 0 then begin
      if !invalid < 0 then invalid := base + !i
    end
    else begin
      let w_lru = Array.unsafe_get lrus (base + !i) in
      if w_lru < !best_lru then begin
        best := base + !i;
        best_lru := w_lru
      end
    end;
    incr i
  done;
  if !hit >= 0 then begin
    Array.unsafe_set lrus !hit t.tick;
    if is_write then Bytes.unsafe_set t.dirty !hit '\001';
    true
  end
  else begin
    t.counts.misses <- t.counts.misses + 1;
    let victim = if !invalid >= 0 then !invalid else !best in
    let old_tag = Array.unsafe_get tags victim in
    if old_tag >= 0 && Bytes.unsafe_get t.dirty victim = '\001' then begin
      t.wb_pending <- true;
      t.wb_line <- (old_tag lsl t.set_shift) lor set_idx
    end;
    Array.unsafe_set tags victim tag;
    Bytes.unsafe_set t.dirty victim (if is_write then '\001' else '\000');
    Array.unsafe_set lrus victim t.tick;
    false
  end

let writeback_pending t = t.wb_pending
let writeback_addr t = Int64.shift_left (Int64.of_int t.wb_line) t.line_shift

let probe t ~addr =
  let base, _, tag = locate t addr in
  let found = ref false in
  for i = 0 to t.assoc - 1 do
    if t.tags.(base + i) = tag then found := true
  done;
  !found

let invalidate t ~addr =
  let base, _, tag = locate t addr in
  for i = 0 to t.assoc - 1 do
    if t.tags.(base + i) = tag then t.tags.(base + i) <- -1
  done

let accesses t = t.counts.accesses
let misses t = t.counts.misses

let miss_rate t =
  if accesses t = 0 then 0.0 else float_of_int (misses t) /. float_of_int (accesses t)
