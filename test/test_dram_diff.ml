(* Differential checks of the sparse row table. First the table alone,
   against a [Hashtbl] from row to cell, under random insertions,
   updates through slots, removals (the backward shift) and clears
   (the shrink) over rows that collide and wrap in the probe tables.
   Then the activation counters built on it: a dense reference device
   (one int per row, as the counters were once kept) runs the same
   random sequence of accesses, targeted refreshes, refresh-epoch
   crossings and state restores, and after every step must agree with
   [Dram] on each row's count, the lifetime total, the access outcome
   and the row-sorted checkpoint lists. *)

open Ptg_dram

type table_op =
  | T_incr of int
  | T_replace of int * int
  | T_set_cell of int * int  (** through [find], when the row has an entry *)
  | T_remove of int
  | T_clear

let print_table_op = function
  | T_incr r -> Printf.sprintf "incr %d" r
  | T_replace (r, v) -> Printf.sprintf "replace %d %d" r v
  | T_set_cell (r, v) -> Printf.sprintf "set_cell %d %d" r v
  | T_remove r -> Printf.sprintf "remove %d" r
  | T_clear -> "clear"

let table_op_gen =
  let open QCheck2.Gen in
  let row = oneof [ int_bound 63; int_bound 100_000 ] in
  frequency
    [
      (8, map (fun r -> T_incr r) row);
      (3, map2 (fun r v -> T_replace (r, v)) row (int_range (-5) 5));
      (2, map2 (fun r v -> T_set_cell (r, v)) row int);
      (5, map (fun r -> T_remove r) row);
      (1, return T_clear);
    ]

let run_table_ops ops =
  let t = Row_table.create () and r = Hashtbl.create 16 in
  List.iteri
    (fun i op ->
      (match op with
      | T_incr row ->
          let want = 1 + Option.value ~default:0 (Hashtbl.find_opt r row) in
          Hashtbl.replace r row want;
          let got = Row_table.incr t row in
          if got <> want then QCheck2.Test.fail_reportf "incr %d: %d vs %d" row got want
      | T_replace (row, v) ->
          Hashtbl.replace r row v;
          Row_table.replace t row v
      | T_set_cell (row, v) ->
          let slot = Row_table.find t row in
          if (slot >= 0) <> Hashtbl.mem r row then
            QCheck2.Test.fail_reportf "find %d: slot %d" row slot;
          if slot >= 0 then begin
            Hashtbl.replace r row v;
            Row_table.set_cell t slot v
          end
      | T_remove row ->
          Hashtbl.remove r row;
          Row_table.remove t row
      | T_clear ->
          Hashtbl.reset r;
          Row_table.clear t);
      let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r []) in
      if Row_table.to_list t <> want || Row_table.length t <> List.length want then
        QCheck2.Test.fail_reportf "step %d %s: entries differ" i (print_table_op op);
      List.iter
        (fun (row, v) ->
          if Row_table.get t row <> v || Row_table.cell t (Row_table.find t row) <> v then
            QCheck2.Test.fail_reportf "step %d: row %d lost its cell" i row)
        want)
    ops;
  true

let table_prop =
  QCheck2.Test.make ~name:"row table = Hashtbl" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
    QCheck2.Gen.(list_size (int_range 1 400) table_op_gen)
    run_table_ops

module Dense = struct
  type t = {
    g : Geometry.t;
    timing : Timing.t;
    open_row : int array array;
    acts : int array array array; (* channel -> bank -> row *)
    mutable epoch : int;
    mutable total : int;
  }

  let create g timing =
    let banks = Geometry.total_banks g in
    {
      g;
      timing;
      open_row = Array.init g.Geometry.channels (fun _ -> Array.make banks (-1));
      acts =
        Array.init g.Geometry.channels (fun _ ->
            Array.init banks (fun _ -> Array.make g.Geometry.rows_per_bank 0));
      epoch = 0;
      total = 0;
    }

  let access t ~now ~addr ~is_write =
    let epoch = now / t.timing.Timing.refresh_interval in
    if epoch > t.epoch then begin
      t.epoch <- epoch;
      Array.iter (fun banks -> Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) banks) t.acts;
      Array.iter (fun o -> Array.fill o 0 (Array.length o) (-1)) t.open_row
    end;
    let c = Geometry.decode t.g addr in
    let ch = c.Geometry.channel and b = c.Geometry.bank and row = c.Geometry.row in
    let outcome =
      if t.open_row.(ch).(b) = row then Timing.Hit
      else begin
        let o = if t.open_row.(ch).(b) >= 0 then Timing.Conflict else Timing.Closed_row in
        t.open_row.(ch).(b) <- row;
        t.acts.(ch).(b).(row) <- t.acts.(ch).(b).(row) + 1;
        t.total <- t.total + 1;
        o
      end
    in
    ( outcome,
      if is_write then Timing.write_latency t.timing outcome
      else Timing.read_latency t.timing outcome )

  let refresh t ~channel ~bank ~row = t.acts.(channel).(bank).(row) <- 0

  let banks t =
    Array.mapi
      (fun ch banks ->
        Array.mapi
          (fun b acts ->
            let l = ref [] in
            for row = Array.length acts - 1 downto 0 do
              if acts.(row) <> 0 then l := (row, acts.(row)) :: !l
            done;
            { Dram.bs_open_row = t.open_row.(ch).(b); bs_activations = !l })
          banks)
      t.acts

  let set_state t (s : Dram.state) =
    Array.iteri
      (fun ch banks ->
        Array.iteri
          (fun b (snap : Dram.bank_snapshot) ->
            t.open_row.(ch).(b) <- snap.Dram.bs_open_row;
            let acts = t.acts.(ch).(b) in
            Array.fill acts 0 (Array.length acts) 0;
            List.iter (fun (row, n) -> acts.(row) <- n) snap.Dram.bs_activations)
          banks)
      s.Dram.s_banks;
    t.epoch <- s.Dram.s_epoch;
    t.total <- s.Dram.s_total_activations
end

type op =
  | Access of { line : int; dt : int; is_write : bool }
  | Refresh of { line : int }
  | Epoch of { line : int }  (** an access one refresh window later *)
  | Restore of { seed : int }  (** set_state with random counts *)
  | Roundtrip  (** set_state (state d) *)

let print_op = function
  | Access { line; dt; is_write } ->
      Printf.sprintf "Access(line=%d,dt=%d,%s)" line dt (if is_write then "w" else "r")
  | Refresh { line } -> Printf.sprintf "Refresh(line=%d)" line
  | Epoch { line } -> Printf.sprintf "Epoch(line=%d)" line
  | Restore { seed } -> Printf.sprintf "Restore(%d)" seed
  | Roundtrip -> "Roundtrip"

let lines_of g =
  g.Geometry.channels * Geometry.total_banks g * g.Geometry.rows_per_bank
  * g.Geometry.columns

(* Half the lines come from a 256-line hot set, so rows are re-activated,
   refreshed while live and probed past each other. *)
let op_gen g =
  let open QCheck2.Gen in
  let line = oneof [ int_bound (lines_of g - 1); int_bound 255 ] in
  frequency
    [
      ( 14,
        map3
          (fun line dt is_write -> Access { line; dt; is_write })
          line (int_bound 1_000) bool );
      (3, map (fun line -> Refresh { line }) line);
      (1, map (fun line -> Epoch { line }) line);
      (1, map (fun seed -> Restore { seed }) nat);
      (1, return Roundtrip);
    ]

(* Random bank snapshots: arbitrary open rows, counts including zero,
   and repeated rows (the last entry for a row wins on both sides). *)
let random_banks g seed =
  let rng = Random.State.make [| seed |] in
  let rows = g.Geometry.rows_per_bank in
  Array.init g.Geometry.channels (fun _ ->
      Array.init (Geometry.total_banks g) (fun _ ->
          {
            Dram.bs_open_row = Random.State.int rng (rows + 1) - 1;
            bs_activations =
              List.init (Random.State.int rng 12) (fun _ ->
                  (Random.State.int rng rows, Random.State.int rng 5));
          }))

let agree ~what g d (r : Dense.t) =
  let fail fmt = Printf.ksprintf (fun s -> QCheck2.Test.fail_reportf "%s: %s" what s) fmt in
  if Dram.total_activations d <> r.Dense.total then
    fail "total %d vs %d" (Dram.total_activations d) r.Dense.total;
  let s = Dram.state d in
  if s.Dram.s_banks <> Dense.banks r then fail "state banks differ";
  (* Point queries: every row when the device is small, else the rows
     the state names on either side. *)
  let check ch b row =
    let got = Dram.activations d ~channel:ch ~bank:b ~row in
    if got <> r.Dense.acts.(ch).(b).(row) then
      fail "activations ch%d b%d row%d: %d vs %d" ch b row got r.Dense.acts.(ch).(b).(row)
  in
  if g.Geometry.channels * Geometry.total_banks g * g.Geometry.rows_per_bank <= 1024 then
    Array.iteri
      (fun ch banks -> Array.iteri (fun b acts -> Array.iteri (fun row _ -> check ch b row) acts) banks)
      r.Dense.acts
  else
    Array.iteri
      (fun ch banks ->
        Array.iteri
          (fun b (snap : Dram.bank_snapshot) ->
            List.iter (fun (row, _) -> check ch b row) snap.Dram.bs_activations)
          banks)
      s.Dram.s_banks

let run_ops g ops =
  let d = Dram.create ~geometry:g () in
  let r = Dense.create g (Dram.timing d) in
  let interval = (Dram.timing d).Timing.refresh_interval in
  let now = ref 0 in
  let access ~line ~is_write =
    let addr = Int64.of_int (line * 64) in
    let outcome, latency = Dense.access r ~now:!now ~addr ~is_write in
    let got = Dram.access_fast d ~now:!now ~addr ~is_write in
    if got <> latency || Dram.last_outcome d <> outcome then
      QCheck2.Test.fail_reportf "access line %d: latency %d vs %d" line got latency
  in
  List.iteri
    (fun i op ->
      (match op with
      | Access { line; dt; is_write } ->
          now := !now + dt;
          access ~line ~is_write
      | Epoch { line } ->
          now := !now + interval;
          access ~line ~is_write:false
      | Refresh { line } ->
          let c = Geometry.decode g (Int64.of_int (line * 64)) in
          Dram.refresh_row d ~channel:c.Geometry.channel ~bank:c.Geometry.bank
            ~row:c.Geometry.row;
          Dense.refresh r ~channel:c.Geometry.channel ~bank:c.Geometry.bank
            ~row:c.Geometry.row
      | Restore { seed } ->
          let s =
            {
              (Dram.state d) with
              Dram.s_banks = random_banks g seed;
              s_total_activations = seed mod 1_000;
            }
          in
          Dram.set_state d s;
          Dense.set_state r s
      | Roundtrip -> Dram.set_state d (Dram.state d));
      agree ~what:(Printf.sprintf "step %d %s" i (print_op op)) g d r)
    ops;
  true

let prop ~name ~count g =
  QCheck2.Test.make ~name ~count
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck2.Gen.(list_size (int_range 1 300) (op_gen g))
    (run_ops g)

(* 2 channels x 4 banks x 64 rows: every row is checked after every
   step, and hot rows collide and wrap in the probe tables. *)
let small =
  { Geometry.channels = 2; ranks = 1; banks_per_rank = 4; rows_per_bank = 64; columns = 8 }

(* Two banks of 8192 rows: the tables grow through several sizes and
   shrink again on an epoch after mass refreshes. *)
let wide =
  { Geometry.channels = 1; ranks = 1; banks_per_rank = 2; rows_per_bank = 8192; columns = 2 }

(* The device decodes by shifts and masks; [Geometry.decode] by the
   div/mod chain. [Dram.access] publishes the device's decode, which
   must equal the chain's on every shipped and tested geometry, for
   addresses near zero and across the whole int64 range. *)
let decode_prop (name, g) =
  QCheck2.Test.make ~name:(name ^ ": shift decode = Geometry.decode") ~count:2000
    ~print:(Printf.sprintf "%Lx")
    QCheck2.Gen.(oneof [ map Int64.of_int (int_bound (lines_of g * 64 * 2)); int64 ])
    (fun addr ->
      let d = Dram.create ~geometry:g () in
      let got = (Dram.access d ~now:0 ~addr ~is_write:false).Dram.coords in
      got = Geometry.decode g addr && Dram.last_channel d = got.Geometry.channel)

let suite =
  [
    QCheck_alcotest.to_alcotest table_prop;
    QCheck_alcotest.to_alcotest (prop ~name:"sparse = dense (small device)" ~count:150 small);
    QCheck_alcotest.to_alcotest (prop ~name:"sparse = dense (wide device)" ~count:60 wide);
  ]
  @ List.map
      (fun g -> QCheck_alcotest.to_alcotest (decode_prop g))
      [
        ("ddr4_4gb", Geometry.ddr4_4gb);
        ("ddr4_16gb", Geometry.ddr4_16gb);
        ("small", small);
        ("wide", wide);
      ]
