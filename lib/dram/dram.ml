(* Row state is kept allocation-free on the access path: [open_row]
   uses -1 as the "no open row" sentinel instead of an option — the
   simulators hit [access] once per LLC miss, so the per-access cost
   here is on the fig6 critical path. *)
type bank_state = {
  mutable open_row : int; (* -1 = closed *)
  activations : Row_table.t; (* row -> count since last refresh *)
}

type obs = {
  o_activations : Ptg_obs.Registry.counter;
  o_row_hits : Ptg_obs.Registry.counter;
  o_row_conflicts : Ptg_obs.Registry.counter;
  o_row_closed : Ptg_obs.Registry.counter;
  o_refresh_epochs : Ptg_obs.Registry.counter;
  o_hot_row_threshold : int;
  o_trace : Ptg_obs.Trace.t;
}

let obs_of_sink ~hot_row_threshold sink =
  let c = Ptg_obs.Registry.counter (Ptg_obs.Sink.registry sink) in
  {
    o_activations = c "dram_activations";
    o_row_hits = c "dram_row_hits";
    o_row_conflicts = c "dram_row_conflicts";
    o_row_closed = c "dram_row_closed";
    o_refresh_epochs = c "dram_refresh_epochs";
    o_hot_row_threshold = hot_row_threshold;
    o_trace = Ptg_obs.Sink.trace sink;
  }

(* The address split of [Geometry.decode] as shifts and masks: [create]
   accepts only power-of-two geometries, for which they are exact (a
   line index is never negative). *)
type split = {
  col_mask : int;
  channel_shift : int; (* log2 columns *)
  channel_mask : int;
  bank_shift : int; (* log2 (columns * channels) *)
  bank_mask : int; (* total banks - 1 *)
  row_shift : int; (* log2 (columns * channels * total banks) *)
  row_mask : int;
  rank_shift : int; (* log2 banks_per_rank *)
}

type t = {
  geometry : Geometry.t;
  split : split;
  timing : Timing.t;
  banks : bank_state array array; (* channel -> flattened bank *)
  storage : (int64, Ptg_pte.Line.t) Hashtbl.t;
  obs : obs option;
  mutable epoch : int;
  (* First cycle of epoch [epoch + 1]: the refresh check is one compare
     against it, not a division. Set with [epoch], by [create],
     [roll_epoch_if_needed] and [set_state]. *)
  mutable next_epoch_at : int;
  mutable activate_listeners : (Geometry.coords -> unit) list;
  mutable refresh_listeners : (channel:int -> bank:int -> row:int -> unit) list;
  mutable epoch_listeners : (unit -> unit) list;
  mutable total_activations : int;
  (* Decode/outcome of the last [access_fast], valid until the next
     access — same publication protocol as [Cache.access_fast]. *)
  mutable last_outcome : Timing.row_buffer_outcome;
  mutable last_channel : int;
  mutable last_rank : int;
  mutable last_bank : int;
  mutable last_row : int;
  mutable last_col : int;
}

type access_result = {
  latency : int;
  outcome : Timing.row_buffer_outcome;
  coords : Geometry.coords;
}

let split_of (g : Geometry.t) =
  let log2 = Ptg_util.Bits.log2 in
  List.iter
    (fun (name, n) ->
      if not (Ptg_util.Bits.is_pow2 n) then
        invalid_arg
          (Printf.sprintf "Dram.create: geometry %s = %d is not a power of two"
             name n))
    [
      ("channels", g.channels);
      ("ranks", g.ranks);
      ("banks_per_rank", g.banks_per_rank);
      ("rows_per_bank", g.rows_per_bank);
      ("columns", g.columns);
    ];
  let channel_shift = log2 g.columns in
  let bank_shift = channel_shift + log2 g.channels in
  let banks = Geometry.total_banks g in
  {
    col_mask = g.columns - 1;
    channel_shift;
    channel_mask = g.channels - 1;
    bank_shift;
    bank_mask = banks - 1;
    row_shift = bank_shift + log2 banks;
    row_mask = g.rows_per_bank - 1;
    rank_shift = log2 g.banks_per_rank;
  }

let epoch_end timing epoch = (epoch + 1) * timing.Timing.refresh_interval

let create ?(geometry = Geometry.ddr4_4gb) ?(timing = Timing.ddr4_3ghz)
    ?obs ?(hot_row_threshold = 4096) () =
  {
    geometry;
    split = split_of geometry;
    timing;
    banks =
      Array.init geometry.Geometry.channels (fun _ ->
          Array.init (Geometry.total_banks geometry) (fun _ ->
              { open_row = -1; activations = Row_table.create () }));
    storage = Hashtbl.create 4096;
    obs = Option.map (obs_of_sink ~hot_row_threshold) obs;
    epoch = 0;
    next_epoch_at = epoch_end timing 0;
    activate_listeners = [];
    refresh_listeners = [];
    epoch_listeners = [];
    total_activations = 0;
    last_outcome = Timing.Hit;
    last_channel = 0;
    last_rank = 0;
    last_bank = 0;
    last_row = 0;
    last_col = 0;
  }

let geometry t = t.geometry
let timing t = t.timing
let on_activate t f = t.activate_listeners <- f :: t.activate_listeners
let subscribe_refresh t f = t.refresh_listeners <- f :: t.refresh_listeners
let on_refresh_epoch t f = t.epoch_listeners <- f :: t.epoch_listeners

(* [now >= next_epoch_at] is [now / refresh_interval > epoch] for every
   [now >= 0] and [epoch >= 0]; the division runs only on a roll. *)
let roll_epoch_if_needed t ~now =
  if now >= t.next_epoch_at then begin
    let epoch = now / t.timing.Timing.refresh_interval in
    t.epoch <- epoch;
    t.next_epoch_at <- epoch_end t.timing epoch;
    (match t.obs with
    | None -> ()
    | Some o -> Ptg_obs.Registry.incr o.o_refresh_epochs);
    (* All rows refreshed: activation counts restart. *)
    Array.iter
      (fun channel_banks ->
        Array.iter
          (fun b ->
            Row_table.clear b.activations;
            b.open_row <- -1)
          channel_banks)
      t.banks;
    List.iter (fun f -> f ()) t.epoch_listeners
  end

let access_fast t ~now ~addr ~is_write =
  roll_epoch_if_needed t ~now;
  (* [Geometry.decode] by shifts and masks: the same fields, but no
     division and no coords record on the hit path — the record is
     materialized only for listeners. The permuted bank stays below the
     bank count, so decode's final [mod] is the identity. *)
  let sp = t.split in
  let line = Int64.to_int (Int64.shift_right_logical addr 6) in
  let col = line land sp.col_mask in
  let channel = (line lsr sp.channel_shift) land sp.channel_mask in
  let row = (line lsr sp.row_shift) land sp.row_mask in
  let bank = ((line lsr sp.bank_shift) land sp.bank_mask) lxor (row land sp.bank_mask) in
  t.last_channel <- channel;
  t.last_rank <- bank lsr sp.rank_shift;
  t.last_bank <- bank;
  t.last_row <- row;
  t.last_col <- col;
  let b = Array.unsafe_get (Array.unsafe_get t.banks channel) bank in
  let outcome : Timing.row_buffer_outcome =
    if b.open_row = row then Timing.Hit
    else if b.open_row >= 0 then Timing.Conflict
    else Timing.Closed_row
  in
  t.last_outcome <- outcome;
  (match outcome with
  | Timing.Hit -> ()
  | Timing.Closed_row | Timing.Conflict ->
      b.open_row <- row;
      ignore (Row_table.incr b.activations row : int);
      t.total_activations <- t.total_activations + 1;
      (match t.activate_listeners with
      | [] -> ()
      | ls ->
          let coords =
            {
              Geometry.channel;
              rank = t.last_rank;
              bank;
              row;
              col;
            }
          in
          List.iter (fun f -> f coords) ls));
  (match t.obs with
  | None -> ()
  | Some o ->
      (match outcome with
      | Timing.Hit -> Ptg_obs.Registry.incr o.o_row_hits
      | Timing.Conflict -> Ptg_obs.Registry.incr o.o_row_conflicts
      | Timing.Closed_row -> Ptg_obs.Registry.incr o.o_row_closed);
      if outcome <> Timing.Hit then begin
        Ptg_obs.Registry.incr o.o_activations;
        let count = Row_table.get b.activations row in
        (* Fire exactly once per refresh window, on the crossing access. *)
        if count = o.o_hot_row_threshold then
          Ptg_obs.Trace.record o.o_trace
            (Ptg_obs.Trace.Row_activation { channel; bank; row; count })
      end);
  if is_write then Timing.write_latency t.timing outcome
  else Timing.read_latency t.timing outcome

let last_outcome t = t.last_outcome
let last_channel t = t.last_channel

let access t ~now ~addr ~is_write =
  let latency = access_fast t ~now ~addr ~is_write in
  {
    latency;
    outcome = t.last_outcome;
    coords =
      {
        Geometry.channel = t.last_channel;
        rank = t.last_rank;
        bank = t.last_bank;
        row = t.last_row;
        col = t.last_col;
      };
  }

let read_line t addr =
  let key = Ptg_pte.Line.line_addr addr in
  match Hashtbl.find_opt t.storage key with
  | Some line -> Ptg_pte.Line.copy line
  | None -> Ptg_pte.Line.create ()

let write_line t addr line =
  Hashtbl.replace t.storage (Ptg_pte.Line.line_addr addr) (Ptg_pte.Line.copy line)

let check_coord what name v bound =
  if v < 0 || v >= bound then
    invalid_arg
      (Printf.sprintf "Dram.%s: %s %d out of range [0, %d)" what name v bound)

let bank_of t what ~channel ~bank ~row =
  let g = t.geometry in
  check_coord what "channel" channel g.Geometry.channels;
  check_coord what "bank" bank (Geometry.total_banks g);
  check_coord what "row" row g.Geometry.rows_per_bank;
  t.banks.(channel).(bank)

let refresh_row t ~channel ~bank ~row =
  Row_table.remove (bank_of t "refresh_row" ~channel ~bank ~row).activations row;
  List.iter (fun f -> f ~channel ~bank ~row) t.refresh_listeners

let activations t ~channel ~bank ~row =
  Row_table.get (bank_of t "activations" ~channel ~bank ~row).activations row

(* Sorted by address: [Hashtbl.fold] order depends on the table's
   insertion/resize history, which a checkpoint restore cannot reproduce —
   and the fault model draws RNG per line it visits, so iteration order is
   part of the deterministic stream. *)
let lines_in_row t ~channel ~bank ~row =
  Hashtbl.fold
    (fun addr line acc ->
      let c = Geometry.decode t.geometry addr in
      if c.Geometry.channel = channel && c.Geometry.bank = bank && c.Geometry.row = row
      then (addr, Ptg_pte.Line.copy line) :: acc
      else acc)
    t.storage []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)

let flip_stored_bit t ~addr ~bit =
  let key = Ptg_pte.Line.line_addr addr in
  let line =
    match Hashtbl.find_opt t.storage key with
    | Some l -> l
    | None ->
        let l = Ptg_pte.Line.create () in
        Hashtbl.replace t.storage key l;
        l
  in
  Hashtbl.replace t.storage key (Ptg_pte.Line.flip_bit line bit)

let total_activations t = t.total_activations

(* Address-sorted for the same reason as [lines_in_row]: rekey sweeps and
   checkpoint encoding must visit lines in an order independent of the
   hashtable's history. Lines are copied after the sort, once each. *)
let sorted_storage t =
  Hashtbl.fold (fun addr line acc -> (addr, line) :: acc) t.storage []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  |> List.map (fun (addr, line) -> (addr, Ptg_pte.Line.copy line))

let iter_stored t f = List.iter (fun (addr, line) -> f addr line) (sorted_storage t)

let stored_line_count t = Hashtbl.length t.storage

(* ------------------------------------------------------------------ *)
(* Checkpointable state                                                *)
(* ------------------------------------------------------------------ *)

type bank_snapshot = { bs_open_row : int; bs_activations : (int * int) list }

type state = {
  s_banks : bank_snapshot array array;
  s_storage : (int64 * Ptg_pte.Line.t) list; (* address-sorted *)
  s_epoch : int;
  s_total_activations : int;
  s_last_outcome : Timing.row_buffer_outcome;
  s_last_channel : int;
  s_last_rank : int;
  s_last_bank : int;
  s_last_row : int;
  s_last_col : int;
}

let state t =
  let snap_bank b =
    { bs_open_row = b.open_row; bs_activations = Row_table.to_list b.activations }
  in
  {
    s_banks = Array.map (Array.map snap_bank) t.banks;
    s_storage = sorted_storage t;
    s_epoch = t.epoch;
    s_total_activations = t.total_activations;
    s_last_outcome = t.last_outcome;
    s_last_channel = t.last_channel;
    s_last_rank = t.last_rank;
    s_last_bank = t.last_bank;
    s_last_row = t.last_row;
    s_last_col = t.last_col;
  }

let set_state t s =
  if
    Array.length s.s_banks <> Array.length t.banks
    || Array.exists2
         (fun a b -> Array.length a <> Array.length b)
         s.s_banks t.banks
  then invalid_arg "Dram.set_state: bank geometry mismatch";
  (* Validate every count before touching the device, so a rejected
     state leaves it as it was. *)
  let rows = t.geometry.Geometry.rows_per_bank in
  Array.iteri
    (fun ci channel_banks ->
      Array.iteri
        (fun bi snap ->
          List.iter
            (fun (row, count) ->
              check_coord "set_state" "row" row rows;
              if count < 0 then
                invalid_arg
                  (Printf.sprintf
                     "Dram.set_state: negative activation count %d at \
                      channel %d bank %d row %d"
                     count ci bi row))
            snap.bs_activations)
        channel_banks)
    s.s_banks;
  Array.iteri
    (fun ci channel_banks ->
      Array.iteri
        (fun bi snap ->
          let b = t.banks.(ci).(bi) in
          b.open_row <- snap.bs_open_row;
          Row_table.clear b.activations;
          (* A zero count is no entry, as after a refresh. *)
          List.iter
            (fun (row, count) ->
              if count = 0 then Row_table.remove b.activations row
              else Row_table.replace b.activations row count)
            snap.bs_activations)
        channel_banks)
    s.s_banks;
  Hashtbl.reset t.storage;
  List.iter
    (fun (addr, line) ->
      Hashtbl.replace t.storage (Ptg_pte.Line.line_addr addr)
        (Ptg_pte.Line.copy line))
    s.s_storage;
  t.epoch <- s.s_epoch;
  t.next_epoch_at <- epoch_end t.timing s.s_epoch;
  t.total_activations <- s.s_total_activations;
  t.last_outcome <- s.s_last_outcome;
  t.last_channel <- s.s_last_channel;
  t.last_rank <- s.s_last_rank;
  t.last_bank <- s.s_last_bank;
  t.last_row <- s.s_last_row;
  t.last_col <- s.s_last_col
