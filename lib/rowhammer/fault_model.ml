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

type t = {
  config : config;
  rng : Ptg_util.Rng.t;
  dram : Ptg_dram.Dram.t;
  disturbance : (int * int * int, float) Hashtbl.t; (* channel, bank, row *)
  mutable flips : flip list;
  mutable flip_count : int;
  mutable flip_listeners : (flip -> unit) list;
}

let config t = t.config
let flips t = t.flips
let flip_count t = t.flip_count

let clear_flips t =
  t.flips <- [];
  t.flip_count <- 0

let on_flip t f = t.flip_listeners <- f :: t.flip_listeners

let disturbance t ~channel ~bank ~row =
  Option.value ~default:0.0 (Hashtbl.find_opt t.disturbance (channel, bank, row))

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
          let f = { addr; bit = !bit; row; bank; channel } in
          t.flips <- f :: t.flips;
          t.flip_count <- t.flip_count + 1;
          List.iter (fun g -> g f) t.flip_listeners
        end;
        bit := !bit + 1 + Ptg_util.Rng.geometric t.rng t.config.p_flip
      done)
    lines

let add_disturbance t ~channel ~bank ~row amount =
  let rows = (Ptg_dram.Dram.geometry t.dram).Ptg_dram.Geometry.rows_per_bank in
  if row >= 0 && row < rows then begin
    let key = (channel, bank, row) in
    let d = Option.value ~default:0.0 (Hashtbl.find_opt t.disturbance key) +. amount in
    if d >= float_of_int t.config.rth then begin
      Hashtbl.replace t.disturbance key 0.0;
      inject_flips t ~channel ~bank ~row
    end
    else Hashtbl.replace t.disturbance key d
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
  Hashtbl.remove t.disturbance (channel, bank, row);
  (* ...but refreshing activates it, disturbing its own neighbours: the
     Half-Double lever. *)
  if t.config.refresh_disturb_weight > 0.0 then begin
    add_disturbance t ~channel ~bank ~row:(row - 1) t.config.refresh_disturb_weight;
    add_disturbance t ~channel ~bank ~row:(row + 1) t.config.refresh_disturb_weight
  end

type state = {
  s_rng : int64 array;
  s_disturbance : ((int * int * int) * float) list; (* key-sorted *)
  s_flips : flip list;
  s_flip_count : int;
}

(* Key order without comparing tuples: every key lies on the device
   ([set_state] checks restored ones), so entries bucket by (channel,
   bank) and each bucket sorts by row alone — a checkpoint takes this
   once per save, and a whole-list sort under polymorphic [compare]
   costs several times more. *)
let sorted_disturbance t =
  let g = Ptg_dram.Dram.geometry t.dram in
  let banks = Ptg_dram.Geometry.total_banks g in
  let buckets = Array.make (g.Ptg_dram.Geometry.channels * banks) [] in
  Hashtbl.iter
    (fun ((channel, bank, _) as k) v ->
      let i = (channel * banks) + bank in
      buckets.(i) <- (k, v) :: buckets.(i))
    t.disturbance;
  let by_row ((_, _, r1), (_ : float)) ((_, _, r2), (_ : float)) = Int.compare r1 r2 in
  Array.fold_right (fun entries acc -> List.sort by_row entries @ acc) buckets []

let state t =
  {
    s_rng = Ptg_util.Rng.state t.rng;
    s_disturbance = sorted_disturbance t;
    s_flips = t.flips;
    s_flip_count = t.flip_count;
  }

let set_state t s =
  let g = Ptg_dram.Dram.geometry t.dram in
  List.iter
    (fun ((channel, bank, row), _) ->
      if
        channel < 0
        || channel >= g.Ptg_dram.Geometry.channels
        || bank < 0
        || bank >= Ptg_dram.Geometry.total_banks g
        || row < 0
        || row >= g.Ptg_dram.Geometry.rows_per_bank
      then
        invalid_arg
          (Printf.sprintf
             "Fault_model.set_state: disturbance at channel %d bank %d row \
              %d is outside the device"
             channel bank row))
    s.s_disturbance;
  Ptg_util.Rng.set_state t.rng s.s_rng;
  Hashtbl.reset t.disturbance;
  List.iter (fun (k, v) -> Hashtbl.replace t.disturbance k v) s.s_disturbance;
  t.flips <- s.s_flips;
  t.flip_count <- s.s_flip_count

let attach ?(config = ddr4) ~rng dram =
  let t =
    {
      config;
      rng;
      dram;
      disturbance = Hashtbl.create 1024;
      flips = [];
      flip_count = 0;
      flip_listeners = [];
    }
  in
  Ptg_dram.Dram.on_activate dram (handle_activation t);
  Ptg_dram.Dram.subscribe_refresh dram (fun ~channel ~bank ~row ->
      handle_refresh t ~channel ~bank ~row);
  Ptg_dram.Dram.on_refresh_epoch dram (fun () -> Hashtbl.reset t.disturbance);
  t
