type orientation = All_true | All_anti | Per_row_hash

type config = {
  rth : int;
  p_flip : float;
  distance2_weight : float;
  refresh_disturb_weight : float;
  orientation : orientation;
}

let ddr4 =
  {
    rth = 10_000;
    p_flip = 0.002;
    distance2_weight = 0.1;
    refresh_disturb_weight = 1.0;
    orientation = Per_row_hash;
  }

let lpddr4 = { ddr4 with rth = 4_800; p_flip = 0.01 }
let legacy_ddr3 = { ddr4 with rth = 139_000; p_flip = 0.0005 }

type flip = { addr : int64; bit : int; row : int; bank : int; channel : int }

(* Disturbance since each row's last refresh, one sparse row table per
   (channel, bank) at index [channel * banks + bank]. A row keeps its
   entry, at 0.0, after it crosses the threshold; a refresh drops it. *)
type t = {
  config : config;
  rng : Ptg_util.Rng.t;
  dram : Ptg_dram.Dram.t;
  channels : int;
  banks : int; (* per channel *)
  rows_per_bank : int;
  rth : float;
  disturbance : Ptg_dram.Row_table.t array;
  mutable flip_count : int;
  mutable flip_listeners : (flip -> unit) list;
}

(* Cells hold a disturbance's IEEE-754 bits. Disturbance is never
   negative ([set_state] refuses a set sign bit), so those bits fit the
   63 bits of an [int] and the table stores the float unboxed; 0.0 is
   the cell 0. *)
let cell_of_float d = Int64.to_int (Int64.bits_of_float d)
let float_of_cell c = Int64.float_of_bits (Int64.logand (Int64.of_int c) Int64.max_int)

let config t = t.config
let flip_count t = t.flip_count
let on_flip t f = t.flip_listeners <- f :: t.flip_listeners

let on_device t ~channel ~bank ~row =
  channel >= 0 && channel < t.channels && bank >= 0 && bank < t.banks && row >= 0
  && row < t.rows_per_bank

let disturbance t ~channel ~bank ~row =
  if on_device t ~channel ~bank ~row then
    float_of_cell (Ptg_dram.Row_table.get t.disturbance.((channel * t.banks) + bank) row)
  else 0.0

(* Stable pseudo-random row orientation: a cheap integer hash of the row
   number, independent of the experiment's RNG stream. *)
let row_is_true_cell _t ~row =
  let h = row * 0x9E3779B1 in
  let h = h lxor (h lsr 16) in
  h land 1 = 0

let orientation_allows t ~row ~current_bit =
  match t.config.orientation with
  | All_true -> current_bit (* true cells: only 1 -> 0 *)
  | All_anti -> not current_bit
  | Per_row_hash ->
      if row_is_true_cell t ~row then current_bit else not current_bit

(* Victim row crossed the threshold: visit every stored line in the row and
   flip each eligible bit with probability p_flip. Sparse storage means
   rows holding no data produce no observable flips, which mirrors reality:
   flips in unused memory are harmless. *)
let inject_flips t ~channel ~bank ~row =
  let lines = Ptg_dram.Dram.lines_in_row t.dram ~channel ~bank ~row in
  List.iter
    (fun (addr, line) ->
      (* Geometric skipping: jump straight to the next flipped bit. *)
      let bit = ref (Ptg_util.Rng.geometric t.rng t.config.p_flip) in
      while !bit < 512 do
        let current = Ptg_pte.Line.get_bit line !bit in
        if orientation_allows t ~row ~current_bit:current then begin
          Ptg_dram.Dram.flip_stored_bit t.dram ~addr ~bit:!bit;
          t.flip_count <- t.flip_count + 1;
          match t.flip_listeners with
          | [] -> ()
          | ls ->
              let f = { addr; bit = !bit; row; bank; channel } in
              List.iter (fun g -> g f) ls
        end;
        bit := !bit + 1 + Ptg_util.Rng.geometric t.rng t.config.p_flip
      done)
    lines

let add_disturbance t ~channel ~bank ~row amount =
  if row >= 0 && row < t.rows_per_bank then begin
    let table = Array.unsafe_get t.disturbance ((channel * t.banks) + bank) in
    let slot = Ptg_dram.Row_table.find table row in
    let d =
      (if slot < 0 then 0.0 else float_of_cell (Ptg_dram.Row_table.cell table slot))
      +. amount
    in
    let crossed = d >= t.rth in
    let cell = if crossed then 0 else cell_of_float d in
    if slot < 0 then Ptg_dram.Row_table.add table row cell
    else Ptg_dram.Row_table.set_cell table slot cell;
    if crossed then inject_flips t ~channel ~bank ~row
  end

let handle_activation t (c : Ptg_dram.Geometry.coords) =
  let channel = c.Ptg_dram.Geometry.channel
  and bank = c.Ptg_dram.Geometry.bank
  and row = c.Ptg_dram.Geometry.row in
  add_disturbance t ~channel ~bank ~row:(row - 1) 1.0;
  add_disturbance t ~channel ~bank ~row:(row + 1) 1.0;
  if t.config.distance2_weight > 0.0 then begin
    add_disturbance t ~channel ~bank ~row:(row - 2) t.config.distance2_weight;
    add_disturbance t ~channel ~bank ~row:(row + 2) t.config.distance2_weight
  end

let handle_refresh t ~channel ~bank ~row =
  (* The refreshed row itself is restored... *)
  Ptg_dram.Row_table.remove t.disturbance.((channel * t.banks) + bank) row;
  (* ...but refreshing activates it, disturbing its own neighbours: the
     Half-Double lever. *)
  if t.config.refresh_disturb_weight > 0.0 then begin
    add_disturbance t ~channel ~bank ~row:(row - 1) t.config.refresh_disturb_weight;
    add_disturbance t ~channel ~bank ~row:(row + 1) t.config.refresh_disturb_weight
  end

type state = {
  s_rng : int64 array;
  s_disturbance : ((int * int * int) * float) list; (* key-sorted *)
  s_flip_count : int;
}

(* Key order comes free: tables are kept in (channel, bank) order and
   each lists its rows in ascending order. *)
let state t =
  let entries = ref [] in
  for i = Array.length t.disturbance - 1 downto 0 do
    let channel = i / t.banks and bank = i mod t.banks in
    entries :=
      List.map
        (fun (row, c) -> ((channel, bank, row), float_of_cell c))
        (Ptg_dram.Row_table.to_list t.disturbance.(i))
      @ !entries
  done;
  {
    s_rng = Ptg_util.Rng.state t.rng;
    s_disturbance = !entries;
    s_flip_count = t.flip_count;
  }

(* The restored tables are built aside and swapped in only once every
   entry has passed, so a refused state leaves the model as it was. *)
let set_state t s =
  let tables = Array.init (Array.length t.disturbance) (fun _ -> Ptg_dram.Row_table.create ()) in
  List.iter
    (fun ((channel, bank, row), d) ->
      let refuse why =
        invalid_arg
          (Printf.sprintf
             "Fault_model.set_state: disturbance at channel %d bank %d row %d %s"
             channel bank row why)
      in
      if not (on_device t ~channel ~bank ~row) then refuse "is outside the device";
      if not (Float.is_finite d) || Float.sign_bit d then
        refuse (Printf.sprintf "is %g, not a finite non-negative value" d);
      let table = tables.((channel * t.banks) + bank) in
      if Ptg_dram.Row_table.find table row >= 0 then refuse "appears twice";
      Ptg_dram.Row_table.add table row (cell_of_float d))
    s.s_disturbance;
  Ptg_util.Rng.set_state t.rng s.s_rng;
  Array.blit tables 0 t.disturbance 0 (Array.length tables);
  t.flip_count <- s.s_flip_count

let attach ?(config = ddr4) ~rng dram =
  let g = Ptg_dram.Dram.geometry dram in
  let channels = g.Ptg_dram.Geometry.channels
  and banks = Ptg_dram.Geometry.total_banks g in
  let t =
    {
      config;
      rng;
      dram;
      channels;
      banks;
      rows_per_bank = g.Ptg_dram.Geometry.rows_per_bank;
      rth = float_of_int config.rth;
      disturbance = Array.init (channels * banks) (fun _ -> Ptg_dram.Row_table.create ());
      flip_count = 0;
      flip_listeners = [];
    }
  in
  Ptg_dram.Dram.on_activate dram (handle_activation t);
  Ptg_dram.Dram.subscribe_refresh dram (fun ~channel ~bank ~row ->
      handle_refresh t ~channel ~bank ~row);
  Ptg_dram.Dram.on_refresh_epoch dram (fun () ->
      Array.iter Ptg_dram.Row_table.clear t.disturbance);
  t
