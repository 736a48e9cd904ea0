open Ptg_dram
open Ptg_rowhammer

(* A small helper world: one bank, data planted in a victim row. *)
let make_world ?(config = Fault_model.ddr4) ?(victim_data = -1L) () =
  let rng = Ptg_util.Rng.create 99L in
  let dram = Dram.create () in
  let fault = Fault_model.attach ~config ~rng dram in
  let g = Dram.geometry dram in
  let victim = 500 in
  let c = Geometry.decode g 0L in
  let victim_addr r col = Geometry.encode g { c with Geometry.row = r; col } in
  Dram.write_line dram (victim_addr victim 0) (Ptg_pte.Line.of_words (Array.make 8 victim_data));
  (dram, fault, victim, victim_addr)

let hammer dram ~rows ~times =
  let g = Dram.geometry dram in
  let c = Geometry.decode g 0L in
  let rows = Array.of_list rows in
  for i = 0 to times - 1 do
    let row = rows.(i mod Array.length rows) in
    let addr = Geometry.encode g { c with Geometry.row = row; col = i land 63 } in
    ignore (Dram.access dram ~now:i ~addr ~is_write:false)
  done

let test_below_threshold_no_flips () =
  let dram, fault, victim, _ = make_world () in
  hammer dram ~rows:[ victim - 1; victim + 1 ] ~times:5000 (* 2500 per side < 10K *);
  Alcotest.(check int) "no flips below RTH" 0 (Fault_model.flip_count fault)

let test_above_threshold_flips () =
  (* All-true cells + all-ones data + a generous p_flip make the flip
     deterministic in practice once the threshold is crossed. *)
  let config =
    { Fault_model.ddr4 with Fault_model.orientation = Fault_model.All_true; p_flip = 0.05 }
  in
  let dram, fault, victim, _ = make_world ~config () in
  let rows = ref [] in
  Fault_model.on_flip fault (fun f -> rows := f.Fault_model.row :: !rows);
  (* victim accumulates 1 per activation of either neighbour: 24K total. *)
  hammer dram ~rows:[ victim - 1; victim + 1 ] ~times:24_000;
  Alcotest.(check bool) "flips above RTH" true (Fault_model.flip_count fault > 0);
  List.iter (Alcotest.(check int) "flips land in the victim row" victim) !rows

let test_orientation_true_cells () =
  (* All-true cells can only flip 1 -> 0: a zero line never flips. *)
  let config = { Fault_model.ddr4 with Fault_model.orientation = Fault_model.All_true } in
  let dram, fault, victim, _ = make_world ~config ~victim_data:0L () in
  hammer dram ~rows:[ victim - 1; victim + 1 ] ~times:30_000;
  Alcotest.(check int) "zero data in true cells cannot flip" 0
    (Fault_model.flip_count fault)

let test_orientation_anti_cells () =
  let config = { Fault_model.ddr4 with Fault_model.orientation = Fault_model.All_anti } in
  let dram, fault, victim, victim_addr = make_world ~config ~victim_data:0L () in
  hammer dram ~rows:[ victim - 1; victim + 1 ] ~times:30_000;
  Alcotest.(check bool) "zero data in anti cells flips 0->1" true
    (Fault_model.flip_count fault > 0);
  (* flipped bits must now read 1 *)
  let line = Dram.read_line dram (victim_addr victim 0) in
  Alcotest.(check bool) "stored line changed" false (Ptg_pte.Line.is_zero line)

let test_refresh_resets_disturbance () =
  let dram, fault, victim, _ = make_world () in
  hammer dram ~rows:[ victim - 1; victim + 1 ] ~times:8000;
  let g = Dram.geometry dram in
  let c = Geometry.decode g 0L in
  (* refresh the victim before it crosses RTH *)
  Dram.refresh_row dram ~channel:c.Geometry.channel ~bank:c.Geometry.bank ~row:victim;
  hammer dram ~rows:[ victim - 1; victim + 1 ] ~times:8000;
  Alcotest.(check int) "refresh reset the accumulation" 0 (Fault_model.flip_count fault)

let test_half_double_lever () =
  (* Refreshing a row disturbs its neighbours: repeated refreshes of
     victim-1 alone must eventually flip the victim. *)
  let config =
    { Fault_model.ddr4 with Fault_model.orientation = Fault_model.All_true; p_flip = 0.05 }
  in
  let dram, fault, victim, _ = make_world ~config () in
  let g = Dram.geometry dram in
  let c = Geometry.decode g 0L in
  for _ = 1 to 11_000 do
    Dram.refresh_row dram ~channel:c.Geometry.channel ~bank:c.Geometry.bank
      ~row:(victim - 1)
  done;
  Alcotest.(check bool) "refresh-induced disturbance flips" true
    (Fault_model.flip_count fault > 0)

let test_on_flip_listener () =
  let dram, fault, victim, _ = make_world () in
  let events = ref 0 in
  Fault_model.on_flip fault (fun _ -> incr events);
  hammer dram ~rows:[ victim - 1; victim + 1 ] ~times:24_000;
  Alcotest.(check int) "listener saw every flip" (Fault_model.flip_count fault) !events

let test_presets () =
  Alcotest.(check int) "lpddr4 threshold" 4800 Fault_model.lpddr4.Fault_model.rth;
  Alcotest.(check int) "ddr4 threshold" 10_000 Fault_model.ddr4.Fault_model.rth;
  Alcotest.(check int) "ddr3 threshold" 139_000 Fault_model.legacy_ddr3.Fault_model.rth;
  Alcotest.(check (float 1e-9)) "lpddr4 worst-case p_flip" 0.01
    Fault_model.lpddr4.Fault_model.p_flip

(* Inject module *)
let test_inject_flip_line () =
  let rng = Ptg_util.Rng.create 4L in
  let line = Ptg_pte.Line.create () in
  let same, bits = Inject.flip_line rng ~p_flip:0.0 line in
  Alcotest.(check bool) "p=0 no change" true (Ptg_pte.Line.equal line same);
  Alcotest.(check int) "p=0 no bits" 0 (List.length bits);
  let all, bits = Inject.flip_line rng ~p_flip:1.0 line in
  Alcotest.(check int) "p=1 flips all 512" 512 (List.length bits);
  Alcotest.(check bool) "p=1 all ones" true (Array.for_all (Int64.equal (-1L)) (Ptg_pte.Line.to_words all))

let test_inject_rate () =
  let rng = Ptg_util.Rng.create 5L in
  let line = Ptg_pte.Line.create () in
  let total = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    let _, bits = Inject.flip_line rng ~p_flip:(1.0 /. 128.0) line in
    total := !total + List.length bits
  done;
  (* expected flips per line = 512/128 = 4 *)
  let mean = float_of_int !total /. float_of_int n in
  if mean < 3.6 || mean > 4.4 then Alcotest.failf "flip rate %.2f, expected ~4" mean

let test_inject_exactly () =
  let rng = Ptg_util.Rng.create 6L in
  let line = Ptg_pte.Line.create () in
  let flipped, bits = Inject.flip_exactly rng ~n:17 line in
  Alcotest.(check int) "17 bits" 17 (List.length bits);
  Alcotest.(check int) "distinct" 17 (List.length (List.sort_uniq compare bits));
  Alcotest.(check int) "hamming 17" 17 (Ptg_pte.Line.hamming line flipped)

(* The state lists disturbance in (channel, bank, row) order across
   several banks and channels, and a restored key off the device is
   refused before anything changes. *)
let test_state_order_and_bad_keys () =
  let rng = Ptg_util.Rng.create 7L in
  let dram = Dram.create ~geometry:Geometry.ddr4_16gb () in
  let fault = Fault_model.attach ~rng dram in
  let seed = Ptg_util.Rng.create 8L in
  for i = 0 to 4_000 do
    let line = Ptg_util.Rng.int seed (1 lsl 22) in
    ignore (Dram.access dram ~now:i ~addr:(Int64.of_int (line * 64)) ~is_write:false)
  done;
  let s = Fault_model.state fault in
  let keys = List.map fst s.Fault_model.s_disturbance in
  let banks = List.sort_uniq compare (List.map (fun (c, b, _) -> (c, b)) keys) in
  Alcotest.(check bool) "several banks and channels" true (List.length banks > 8);
  Alcotest.(check (list (triple int int int))) "key order" (List.sort compare keys) keys;
  List.iter
    (fun ((c, b, r) as key) ->
      let bad = { s with Fault_model.s_disturbance = [ (key, 1.0) ] } in
      Alcotest.(check bool)
        (Printf.sprintf "key (%d, %d, %d) refused" c b r)
        true
        (match Fault_model.set_state fault bad with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ (2, 0, 0); (0, 32, 0); (0, 0, 32768); (-1, 0, 0) ];
  (* Values a model can never reach, and a key given twice: each is
     refused with a message naming the key. *)
  let names_key msg =
    let key = "channel 1 bank 3 row 77" in
    let n = String.length key in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = key || go (i + 1)) in
    go 0
  in
  let refused ~what bad =
    match Fault_model.set_state fault bad with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (Printf.sprintf "%s: %S names the key" what msg) true (names_key msg)
  in
  List.iter
    (fun v ->
      refused ~what:(Printf.sprintf "value %g" v)
        { s with Fault_model.s_disturbance = [ ((0, 0, 5), 2.0); ((1, 3, 77), v) ] })
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0; -0.0 ];
  refused ~what:"duplicate key"
    {
      s with
      Fault_model.s_disturbance = [ ((1, 3, 77), 2.0); ((0, 0, 5), 1.0); ((1, 3, 77), 2.0) ];
    };
  Alcotest.(check bool) "state untouched by the refusals" true
    (Fault_model.state fault = s);
  (* Any key order is accepted, and read back sorted. *)
  let shuffled = { s with Fault_model.s_disturbance = List.rev s.Fault_model.s_disturbance } in
  Fault_model.set_state fault shuffled;
  Alcotest.(check bool) "reversed keys restore the same state" true
    (Fault_model.state fault = s)

let suite =
  [
    Alcotest.test_case "below threshold" `Quick test_below_threshold_no_flips;
    Alcotest.test_case "above threshold" `Quick test_above_threshold_flips;
    Alcotest.test_case "true-cell orientation" `Quick test_orientation_true_cells;
    Alcotest.test_case "anti-cell orientation" `Quick test_orientation_anti_cells;
    Alcotest.test_case "refresh resets" `Quick test_refresh_resets_disturbance;
    Alcotest.test_case "half-double lever" `Quick test_half_double_lever;
    Alcotest.test_case "flip listener" `Quick test_on_flip_listener;
    Alcotest.test_case "presets" `Quick test_presets;
    Alcotest.test_case "inject flip_line edges" `Quick test_inject_flip_line;
    Alcotest.test_case "inject rate" `Quick test_inject_rate;
    Alcotest.test_case "inject exactly" `Quick test_inject_exactly;
    Alcotest.test_case "state order, bad keys" `Quick test_state_order_and_bad_keys;
  ]
