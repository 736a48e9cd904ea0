(* Per-subsystem section payloads: every [put_x]/[get_x] pair round-trips
   one checkpointable state record from the simulator libraries through
   {!Codec}. These are deliberately dumb field-by-field serializers —
   validation of the decoded values (geometry, ranges, key material)
   happens in the corresponding [set_state], which owns the invariants. *)

open Codec

(* xoshiro word vectors (Rng streams, PARA/fault-model RNGs). *)
let put_words b words = put_array b put_i64 words
let get_words r = get_array r get_i64

(* A line is its 64 bytes as stored: eight little-endian words, the
   same bytes as eight [put_i64]s. [put_raw] copies them out before the
   string view could be observed. *)
let put_line b (line : Ptg_pte.Line.t) = put_raw b (Bytes.unsafe_to_string line)

let get_line r : Ptg_pte.Line.t = Bytes.of_string (get_raw r Ptg_pte.Line.size_bytes)

let put_addr_line b (addr, line) =
  put_i64 b addr;
  put_line b line

let get_addr_line r =
  let addr = get_i64 r in
  (addr, get_line r)

let put_block b (blk : Ptg_crypto.Block128.t) =
  put_i64 b blk.Ptg_crypto.Block128.hi;
  put_i64 b blk.Ptg_crypto.Block128.lo

let get_block r =
  let hi = get_i64 r in
  let lo = get_i64 r in
  Ptg_crypto.Block128.make ~hi ~lo

let put_tlb b (s : Ptg_cpu.Tlb.state) =
  put_array b
    (fun b (vpn, valid, lru) ->
      put_int b vpn;
      put_bool b valid;
      put_int b lru)
    s.Ptg_cpu.Tlb.s_entries;
  put_int b s.s_tick;
  put_int b s.s_hits;
  put_int b s.s_misses;
  put_int b s.s_mru

let get_tlb r : Ptg_cpu.Tlb.state =
  let s_entries =
    get_array r (fun r ->
        let vpn = get_int r in
        let valid = get_bool r in
        let lru = get_int r in
        (vpn, valid, lru))
  in
  let s_tick = get_int r in
  let s_hits = get_int r in
  let s_misses = get_int r in
  let s_mru = get_int r in
  { s_entries; s_tick; s_hits; s_misses; s_mru }

let put_outcome b (o : Ptg_dram.Timing.row_buffer_outcome) =
  put_varint b
    (match o with
    | Ptg_dram.Timing.Hit -> 0
    | Ptg_dram.Timing.Closed_row -> 1
    | Ptg_dram.Timing.Conflict -> 2)

let get_outcome r : Ptg_dram.Timing.row_buffer_outcome =
  match get_varint r with
  | 0 -> Ptg_dram.Timing.Hit
  | 1 -> Ptg_dram.Timing.Closed_row
  | 2 -> Ptg_dram.Timing.Conflict
  | n -> corrupt r (Printf.sprintf "bad row-buffer outcome tag %d" n)

let put_dram b (s : Ptg_dram.Dram.state) =
  put_array b
    (fun b banks ->
      put_array b
        (fun b (bs : Ptg_dram.Dram.bank_snapshot) ->
          put_int b bs.Ptg_dram.Dram.bs_open_row;
          put_list b
            (fun b (row, acts) ->
              put_int b row;
              put_int b acts)
            bs.bs_activations)
        banks)
    s.Ptg_dram.Dram.s_banks;
  put_list b put_addr_line s.s_storage;
  put_int b s.s_epoch;
  put_int b s.s_total_activations;
  put_outcome b s.s_last_outcome;
  put_int b s.s_last_channel;
  put_int b s.s_last_rank;
  put_int b s.s_last_bank;
  put_int b s.s_last_row;
  put_int b s.s_last_col

let get_dram r : Ptg_dram.Dram.state =
  let s_banks =
    get_array r (fun r ->
        get_array r (fun r ->
            let bs_open_row = get_int r in
            let bs_activations =
              get_list r (fun r ->
                  let row = get_int r in
                  let acts = get_int r in
                  if acts < 0 then
                    corrupt r
                      (Printf.sprintf "negative activation count %d for row %d"
                         acts row);
                  (row, acts))
            in
            { Ptg_dram.Dram.bs_open_row; bs_activations }))
  in
  let s_storage = get_list r get_addr_line in
  let s_epoch = get_int r in
  let s_total_activations = get_int r in
  let s_last_outcome = get_outcome r in
  let s_last_channel = get_int r in
  let s_last_rank = get_int r in
  let s_last_bank = get_int r in
  let s_last_row = get_int r in
  let s_last_col = get_int r in
  {
    s_banks;
    s_storage;
    s_epoch;
    s_total_activations;
    s_last_outcome;
    s_last_channel;
    s_last_rank;
    s_last_bank;
    s_last_row;
    s_last_col;
  }

let put_engine_stats b (s : Ptguard.Engine.stats) =
  put_int b s.Ptguard.Engine.writes_total;
  put_int b s.writes_protected;
  put_int b s.writes_mac_zero;
  put_int b s.collisions_tracked;
  put_int b s.reads_total;
  put_int b s.reads_pte;
  put_int b s.mac_computations;
  put_int b s.macs_stripped;
  put_int b s.integrity_failures;
  put_int b s.corrections_attempted;
  put_int b s.corrections_succeeded;
  put_int b s.rekeys

let get_engine_stats r : Ptguard.Engine.stats =
  let writes_total = get_int r in
  let writes_protected = get_int r in
  let writes_mac_zero = get_int r in
  let collisions_tracked = get_int r in
  let reads_total = get_int r in
  let reads_pte = get_int r in
  let mac_computations = get_int r in
  let macs_stripped = get_int r in
  let integrity_failures = get_int r in
  let corrections_attempted = get_int r in
  let corrections_succeeded = get_int r in
  let rekeys = get_int r in
  {
    writes_total;
    writes_protected;
    writes_mac_zero;
    collisions_tracked;
    reads_total;
    reads_pte;
    mac_computations;
    macs_stripped;
    integrity_failures;
    corrections_attempted;
    corrections_succeeded;
    rekeys;
  }

let put_engine b (s : Ptguard.Engine.state) =
  put_block b s.Ptguard.Engine.s_key_w0;
  put_block b s.s_key_k0;
  put_list b put_i64 s.s_ctb;
  put_engine_stats b s.s_stats

let get_engine r : Ptguard.Engine.state =
  let s_key_w0 = get_block r in
  let s_key_k0 = get_block r in
  let s_ctb = get_list r get_i64 in
  let s_stats = get_engine_stats r in
  { s_key_w0; s_key_k0; s_ctb; s_stats }

let put_fault b (s : Ptg_rowhammer.Fault_model.state) =
  put_words b s.Ptg_rowhammer.Fault_model.s_rng;
  put_list b
    (fun b ((channel, bank, row), d) ->
      put_int b channel;
      put_int b bank;
      put_int b row;
      put_float b d)
    s.s_disturbance;
  put_int b s.s_flip_count

let get_fault r : Ptg_rowhammer.Fault_model.state =
  let s_rng = get_words r in
  let s_disturbance =
    get_list r (fun r ->
        let channel = get_int r in
        let bank = get_int r in
        let row = get_int r in
        let d = get_float r in
        ((channel, bank, row), d))
  in
  let s_flip_count = get_int r in
  { s_rng; s_disturbance; s_flip_count }

let put_frame_allocator b (s : Ptg_vm.Frame_allocator.state) =
  put_i64 b s.Ptg_vm.Frame_allocator.s_cursor;
  put_int b s.s_count

let get_frame_allocator r : Ptg_vm.Frame_allocator.state =
  let s_cursor = get_i64 r in
  let s_count = get_int r in
  { s_cursor; s_count }

let put_page_table b (s : Ptg_vm.Page_table.state) =
  put_list b put_i64 s.Ptg_vm.Page_table.s_pt_frames;
  put_list b put_i64 s.s_all_frames

let get_page_table r : Ptg_vm.Page_table.state =
  let s_pt_frames = get_list r get_i64 in
  let s_all_frames = get_list r get_i64 in
  { s_pt_frames; s_all_frames }
