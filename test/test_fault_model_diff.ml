(* Differential check of the fault model's disturbance table: a
   reference model keeping disturbance in one [Hashtbl] keyed by
   (channel, bank, row), as the model once did, is attached to a second
   device holding the same lines and seeded alike. Both devices see the
   same random activations (the bank-edge rows 0, 1, rows - 2 and
   rows - 1 among them), targeted refreshes, refresh-epoch rolls and
   state round trips; after every step the two models must agree on
   the flips, the flip count and the checkpoint state. A low threshold
   makes rows cross it often, and the distance-2 weight of 0.1 keeps the
   sums inexact, so a crossing one activation early or late shows. *)

open Ptg_dram
open Ptg_rowhammer

module Reference = struct
  type t = {
    config : Fault_model.config;
    rng : Ptg_util.Rng.t;
    dram : Dram.t;
    is_true_cell : row:int -> bool;
    disturbance : (int * int * int, float) Hashtbl.t;
    mutable flips : Fault_model.flip list;  (* every flip, newest first *)
    mutable flip_count : int;
  }

  let inject_flips t ~channel ~bank ~row =
    List.iter
      (fun (addr, line) ->
        let bit = ref (Ptg_util.Rng.geometric t.rng t.config.Fault_model.p_flip) in
        while !bit < 512 do
          let current = Ptg_pte.Line.get_bit line !bit in
          let allowed =
            match t.config.Fault_model.orientation with
            | Fault_model.All_true -> current
            | Fault_model.All_anti -> not current
            | Fault_model.Per_row_hash -> if t.is_true_cell ~row then current else not current
          in
          if allowed then begin
            Dram.flip_stored_bit t.dram ~addr ~bit:!bit;
            t.flips <- { Fault_model.addr; bit = !bit; row; bank; channel } :: t.flips;
            t.flip_count <- t.flip_count + 1
          end;
          bit := !bit + 1 + Ptg_util.Rng.geometric t.rng t.config.Fault_model.p_flip
        done)
      (Dram.lines_in_row t.dram ~channel ~bank ~row)

  let add t ~channel ~bank ~row amount =
    if row >= 0 && row < (Dram.geometry t.dram).Geometry.rows_per_bank then begin
      let key = (channel, bank, row) in
      let d = Option.value ~default:0.0 (Hashtbl.find_opt t.disturbance key) +. amount in
      if d >= float_of_int t.config.Fault_model.rth then begin
        Hashtbl.replace t.disturbance key 0.0;
        inject_flips t ~channel ~bank ~row
      end
      else Hashtbl.replace t.disturbance key d
    end

  let attach ~config ~rng ~is_true_cell dram =
    let t =
      {
        config;
        rng;
        dram;
        is_true_cell;
        disturbance = Hashtbl.create 64;
        flips = [];
        flip_count = 0;
      }
    in
    Dram.on_activate dram (fun c ->
        let channel = c.Geometry.channel and bank = c.Geometry.bank and row = c.Geometry.row in
        add t ~channel ~bank ~row:(row - 1) 1.0;
        add t ~channel ~bank ~row:(row + 1) 1.0;
        add t ~channel ~bank ~row:(row - 2) config.Fault_model.distance2_weight;
        add t ~channel ~bank ~row:(row + 2) config.Fault_model.distance2_weight);
    Dram.subscribe_refresh dram (fun ~channel ~bank ~row ->
        Hashtbl.remove t.disturbance (channel, bank, row);
        let w = config.Fault_model.refresh_disturb_weight in
        add t ~channel ~bank ~row:(row - 1) w;
        add t ~channel ~bank ~row:(row + 1) w);
    Dram.on_refresh_epoch dram (fun () -> Hashtbl.reset t.disturbance);
    t

  let state t =
    {
      Fault_model.s_rng = Ptg_util.Rng.state t.rng;
      s_disturbance =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.disturbance []);
      s_flip_count = t.flip_count;
    }

  let set_state t (s : Fault_model.state) =
    Ptg_util.Rng.set_state t.rng s.Fault_model.s_rng;
    Hashtbl.reset t.disturbance;
    List.iter (fun (k, v) -> Hashtbl.replace t.disturbance k v) s.Fault_model.s_disturbance;
    t.flip_count <- s.Fault_model.s_flip_count
end

(* Rows are drawn so the edges, a hot window (rows near each other, so
   disturbance accumulates and crosses) and the rest of the bank all
   occur. *)
type target = { channel : int; bank : int; row : int; col : int }

type op =
  | Activate of target
  | Refresh of target
  | Epoch of target  (** an access one refresh window later *)
  | Roundtrip  (** each model restores its own state *)
  | Cross  (** each model restores the other's state *)

let print_target t = Printf.sprintf "ch%d b%d r%d c%d" t.channel t.bank t.row t.col

let print_op = function
  | Activate t -> "Activate " ^ print_target t
  | Refresh t -> "Refresh " ^ print_target t
  | Epoch t -> "Epoch " ^ print_target t
  | Roundtrip -> "Roundtrip"
  | Cross -> "Cross"

let hot = 40

let edge_rows g =
  let rows = g.Geometry.rows_per_bank in
  [ 0; 1; rows - 2; rows - 1 ]

let target_gen g =
  let open QCheck2.Gen in
  let rows = g.Geometry.rows_per_bank and banks = Geometry.total_banks g in
  let row =
    frequency
      [
        (3, oneofl (edge_rows g));
        (6, map (fun r -> hot + r) (int_bound 6));
        (1, int_bound (rows - 1));
      ]
  in
  map4
    (fun channel bank row col -> { channel; bank; row; col })
    (int_bound (g.Geometry.channels - 1))
    (oneofl [ 0; banks - 1 ])
    row (int_bound 3)

let op_gen g =
  let open QCheck2.Gen in
  let target = target_gen g in
  frequency
    [
      (20, map (fun t -> Activate t) target);
      (3, map (fun t -> Refresh t) target);
      (1, map (fun t -> Epoch t) target);
      (1, return Roundtrip);
      (1, return Cross);
    ]

let config =
  { Fault_model.ddr4 with Fault_model.rth = 6; p_flip = 0.05; distance2_weight = 0.1 }

(* Lines in every row the generator can reach that lies next to a hot
   or edge row, in the two banks it uses, on every channel; words of
   mixed bits so both cell orientations can flip. *)
let populate g dram =
  let banks = Geometry.total_banks g in
  let rows =
    List.sort_uniq compare
      (List.concat_map
         (fun r ->
           List.filter
             (fun r -> r >= 0 && r < g.Geometry.rows_per_bank)
             [ r - 2; r - 1; r; r + 1; r + 2 ])
         (edge_rows g @ List.init 7 (fun i -> hot + i)))
  in
  for channel = 0 to g.Geometry.channels - 1 do
    List.iter
      (fun bank ->
        List.iter
          (fun row ->
            for col = 0 to 1 do
              let addr = Geometry.encode g { Geometry.channel; rank = 0; bank; row; col } in
              Dram.write_line dram addr
                (Ptg_pte.Line.init (fun i ->
                     Int64.of_int ((row * 7919) + (col * 131) + (i * 0x5bd1e995))))
            done)
          rows)
      [ 0; banks - 1 ]
  done

let addr_of g t =
  Geometry.encode g
    { Geometry.channel = t.channel; rank = 0; bank = t.bank; row = t.row; col = t.col }

let run_ops g ops =
  let make () =
    let dram = Dram.create ~geometry:g () in
    populate g dram;
    dram
  in
  let dram_m = make () and dram_r = make () in
  let model = Fault_model.attach ~config ~rng:(Ptg_util.Rng.create 5L) dram_m in
  let model_flips = ref [] in
  Fault_model.on_flip model (fun f -> model_flips := f :: !model_flips);
  let reference =
    Reference.attach ~config ~rng:(Ptg_util.Rng.create 5L)
      ~is_true_cell:(Fault_model.row_is_true_cell model) dram_r
  in
  let interval = (Dram.timing dram_m).Timing.refresh_interval in
  let now = ref 0 in
  let access t =
    now := !now + 1;
    let addr = addr_of g t in
    ignore (Dram.access_fast dram_m ~now:!now ~addr ~is_write:false : int);
    ignore (Dram.access_fast dram_r ~now:!now ~addr ~is_write:false : int)
  in
  List.iteri
    (fun i op ->
      (match op with
      | Activate t -> access t
      | Epoch t ->
          now := !now + interval;
          access t
      | Refresh t ->
          Dram.refresh_row dram_m ~channel:t.channel ~bank:t.bank ~row:t.row;
          Dram.refresh_row dram_r ~channel:t.channel ~bank:t.bank ~row:t.row
      | Roundtrip ->
          Fault_model.set_state model (Fault_model.state model);
          Reference.set_state reference (Reference.state reference)
      | Cross ->
          let sm = Fault_model.state model and sr = Reference.state reference in
          Fault_model.set_state model sr;
          Reference.set_state reference sm);
      let what = Printf.sprintf "step %d %s" i (print_op op) in
      if !model_flips <> reference.Reference.flips then
        QCheck2.Test.fail_reportf "%s: flips differ" what;
      if Fault_model.flip_count model <> reference.Reference.flip_count then
        QCheck2.Test.fail_reportf "%s: flip count %d vs %d" what
          (Fault_model.flip_count model) reference.Reference.flip_count;
      if Fault_model.state model <> Reference.state reference then
        QCheck2.Test.fail_reportf "%s: state differs" what)
    ops;
  true

let prop ~name ~count g =
  QCheck2.Test.make ~name ~count
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck2.Gen.(list_size (int_range 1 400) (op_gen g))
    (run_ops g)

(* The generator must reach what it is meant to: flips, and 0.0 entries
   left behind by crossings. *)
let test_generator_reaches_crossings () =
  let g = Geometry.ddr4_4gb in
  let ops =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 3 |])
      QCheck2.Gen.(list_size (return 400) (op_gen g))
  in
  let dram = Dram.create ~geometry:g () in
  populate g dram;
  let model = Fault_model.attach ~config ~rng:(Ptg_util.Rng.create 5L) dram in
  let now = ref 0 in
  List.iter
    (function
      | Activate t | Epoch t ->
          incr now;
          ignore (Dram.access_fast dram ~now:!now ~addr:(addr_of g t) ~is_write:false : int)
      | Refresh _ | Roundtrip | Cross -> ())
    ops;
  Alcotest.(check bool) "flips happen" true (Fault_model.flip_count model > 0);
  Alcotest.(check bool) "a crossed row keeps a 0.0 entry" true
    (List.exists (fun (_, d) -> d = 0.0) (Fault_model.state model).Fault_model.s_disturbance)

let suite =
  [
    Alcotest.test_case "generator reaches crossings" `Quick test_generator_reaches_crossings;
    QCheck_alcotest.to_alcotest
      (prop ~name:"row tables = Hashtbl (ddr4_4gb)" ~count:150 Geometry.ddr4_4gb);
    QCheck_alcotest.to_alcotest
      (prop ~name:"row tables = Hashtbl (ddr4_16gb)" ~count:150 Geometry.ddr4_16gb);
  ]
