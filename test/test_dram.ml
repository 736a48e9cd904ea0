open Ptg_dram

let t = Timing.ddr4_3ghz

let test_latencies () =
  Alcotest.(check int) "row hit" (t.Timing.t_cas + t.Timing.bus_and_queue)
    (Timing.read_latency t Timing.Hit);
  Alcotest.(check int) "closed row"
    (t.Timing.t_rcd + t.Timing.t_cas + t.Timing.bus_and_queue)
    (Timing.read_latency t Timing.Closed_row);
  Alcotest.(check int) "conflict"
    (t.Timing.t_rp + t.Timing.t_rcd + t.Timing.t_cas + t.Timing.bus_and_queue)
    (Timing.read_latency t Timing.Conflict);
  (* The paper's "DRAM access takes 50ns": conflict ~ 147 cycles @3GHz. *)
  Alcotest.(check int) "conflict is 147 cycles" 147 (Timing.read_latency t Timing.Conflict)

let test_row_buffer_state_machine () =
  let d = Dram.create () in
  let r1 = Dram.access d ~now:0 ~addr:0x1000L ~is_write:false in
  Alcotest.(check bool) "first access opens row" true
    (r1.Dram.outcome = Timing.Closed_row);
  let r2 = Dram.access d ~now:100 ~addr:0x1040L ~is_write:false in
  Alcotest.(check bool) "same row hits" true (r2.Dram.outcome = Timing.Hit);
  (* Access a different row in the same bank: need an address mapping to
     the same bank but another row; same column+channel, row+1. *)
  let g = Dram.geometry d in
  let c = Geometry.decode g 0x1000L in
  let other = Geometry.encode g { c with Geometry.row = c.Geometry.row + 1 } in
  let r3 = Dram.access d ~now:200 ~addr:other ~is_write:false in
  Alcotest.(check bool) "row conflict" true (r3.Dram.outcome = Timing.Conflict)

let test_storage () =
  let d = Dram.create () in
  Alcotest.(check bool) "unwritten reads zero" true
    (Ptg_pte.Line.is_zero (Dram.read_line d 0x2000L));
  let line = Array.init 8 Int64.of_int in
  Dram.write_line d 0x2000L line;
  Alcotest.(check bool) "read back" true (Ptg_pte.Line.equal line (Dram.read_line d 0x2000L));
  (* line-granular: offset within line reads same line *)
  Alcotest.(check bool) "unaligned addr same line" true
    (Ptg_pte.Line.equal line (Dram.read_line d 0x2038L));
  Alcotest.(check int) "stored count" 1 (Dram.stored_line_count d)

let test_flip_stored_bit () =
  let d = Dram.create () in
  let line = Array.make 8 0L in
  Dram.write_line d 0x3000L line;
  Dram.flip_stored_bit d ~addr:0x3000L ~bit:70;
  let got = Dram.read_line d 0x3000L in
  Alcotest.(check int64) "bit 70 is word 1 bit 6" (Ptg_util.Bits.bit 6) got.(1)

let test_activation_counting () =
  let d = Dram.create () in
  let g = Dram.geometry d in
  let c = Geometry.decode g 0x1000L in
  let row_addr r = Geometry.encode g { c with Geometry.row = r } in
  (* alternate two rows to force activations *)
  for _ = 1 to 5 do
    ignore (Dram.access d ~now:0 ~addr:(row_addr 10) ~is_write:false);
    ignore (Dram.access d ~now:0 ~addr:(row_addr 12) ~is_write:false)
  done;
  Alcotest.(check int) "row 10 activations" 5
    (Dram.activations d ~channel:c.Geometry.channel ~bank:c.Geometry.bank ~row:10);
  Alcotest.(check int) "total activations" 10 (Dram.total_activations d)

let test_refresh_row_resets () =
  let d = Dram.create () in
  let g = Dram.geometry d in
  let c = Geometry.decode g 0x1000L in
  let row_addr r = Geometry.encode g { c with Geometry.row = r } in
  ignore (Dram.access d ~now:0 ~addr:(row_addr 20) ~is_write:false);
  ignore (Dram.access d ~now:0 ~addr:(row_addr 22) ~is_write:false);
  Dram.refresh_row d ~channel:c.Geometry.channel ~bank:c.Geometry.bank ~row:20;
  Alcotest.(check int) "refresh clears count" 0
    (Dram.activations d ~channel:c.Geometry.channel ~bank:c.Geometry.bank ~row:20)

let test_listeners () =
  let d = Dram.create () in
  let acts = ref 0 and refreshes = ref 0 and epochs = ref 0 in
  Dram.on_activate d (fun _ -> incr acts);
  Dram.subscribe_refresh d (fun ~channel:_ ~bank:_ ~row:_ -> incr refreshes);
  Dram.on_refresh_epoch d (fun () -> incr epochs);
  ignore (Dram.access d ~now:0 ~addr:0x1000L ~is_write:false);
  ignore (Dram.access d ~now:1 ~addr:0x1040L ~is_write:false) (* row hit: no act *);
  Dram.refresh_row d ~channel:0 ~bank:0 ~row:5;
  Alcotest.(check int) "one activation" 1 !acts;
  Alcotest.(check int) "one refresh" 1 !refreshes;
  (* jump past the refresh window *)
  ignore
    (Dram.access d
       ~now:((Dram.timing d).Timing.refresh_interval + 1)
       ~addr:0x1000L ~is_write:false);
  Alcotest.(check int) "epoch rolled" 1 !epochs

let test_epoch_clears_activations () =
  let d = Dram.create () in
  let g = Dram.geometry d in
  let c = Geometry.decode g 0x1000L in
  ignore (Dram.access d ~now:0 ~addr:0x1000L ~is_write:false);
  ignore
    (Dram.access d
       ~now:((Dram.timing d).Timing.refresh_interval + 1)
       ~addr:0x800000L ~is_write:false);
  Alcotest.(check int) "counts cleared at epoch" 0
    (Dram.activations d ~channel:c.Geometry.channel ~bank:c.Geometry.bank
       ~row:c.Geometry.row)

let test_lines_in_row_and_iter () =
  let d = Dram.create () in
  let g = Dram.geometry d in
  let c = Geometry.decode g 0x4000L in
  Dram.write_line d 0x4000L (Array.make 8 7L);
  Dram.write_line d 0x4040L (Array.make 8 9L);
  let in_row =
    Dram.lines_in_row d ~channel:c.Geometry.channel ~bank:c.Geometry.bank
      ~row:c.Geometry.row
  in
  Alcotest.(check int) "two lines in row" 2 (List.length in_row);
  let n = ref 0 in
  Dram.iter_stored d (fun _ _ -> incr n);
  Alcotest.(check int) "iter_stored visits all" 2 !n

(* Bytes one call of [f] allocates, its result kept alive until
   measured: the least of three measured calls after a warm-up call.
   [Gc.allocated_bytes] can be charged extra around a minor collection
   (a whole minor heap's worth has been seen in a long test process),
   never less than what was allocated, so the minimum is the honest
   reading. *)
let allocated f =
  ignore (Sys.opaque_identity (f ()));
  let once () =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. before
  in
  List.fold_left min infinity [ once (); once (); once () ]

(* Counters are sparse: a device costs its banks and its line store,
   never a word per row (16 x 32768 rows would be 4 MiB). *)
let test_create_allocation () =
  let bytes = allocated (fun () -> Dram.create ()) in
  if bytes >= 65536.0 then
    Alcotest.failf "Dram.create allocated %.0f bytes (limit 64 KiB)" bytes

(* Once a row has a counter, activating it again allocates nothing. *)
let test_activation_allocation_free () =
  let d = Dram.create () in
  let g = Dram.geometry d in
  let c = Geometry.decode g 0x1000L in
  let a = Geometry.encode g { c with Geometry.row = 10 }
  and b = Geometry.encode g { c with Geometry.row = 12 } in
  let hammer n =
    for _ = 1 to n do
      ignore (Dram.access_fast d ~now:0 ~addr:a ~is_write:false : int);
      ignore (Dram.access_fast d ~now:0 ~addr:b ~is_write:false : int)
    done
  in
  hammer 1;
  let before = Gc.minor_words () in
  hammer 1_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words over 2000 activations" 0.0 words;
  Alcotest.(check int) "row 10 counted" 1_001
    (Dram.activations d ~channel:c.Geometry.channel ~bank:c.Geometry.bank ~row:10)

let raises_naming what needle f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" what
  | exception Invalid_argument msg ->
      let found =
        let n = String.length needle and m = String.length msg in
        let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
        at 0
      in
      if not found then Alcotest.failf "%s: message %S does not name %S" what msg needle

let test_bad_coordinates () =
  let d = Dram.create () in
  let cases =
    [
      ("channel", (1, 0, 0), "channel 1");
      ("negative channel", (-1, 0, 0), "channel -1");
      ("bank", (0, 16, 0), "bank 16");
      ("row", (0, 0, 32768), "row 32768");
      ("negative row", (0, 3, -2), "row -2");
    ]
  in
  List.iter
    (fun (what, (channel, bank, row), needle) ->
      raises_naming ("activations: " ^ what) ("Dram.activations: " ^ needle)
        (fun () -> Dram.activations d ~channel ~bank ~row);
      raises_naming ("refresh_row: " ^ what) ("Dram.refresh_row: " ^ needle)
        (fun () -> Dram.refresh_row d ~channel ~bank ~row))
    cases

let test_set_state_rejects_bad_counts () =
  let d = Dram.create () in
  ignore (Dram.access d ~now:0 ~addr:0x1000L ~is_write:false);
  let s = Dram.state d in
  let with_bank0 acts =
    let banks = Array.map Array.copy s.Dram.s_banks in
    banks.(0).(0) <- { (banks.(0).(0)) with Dram.bs_activations = acts };
    { s with Dram.s_banks = banks }
  in
  raises_naming "negative count" "negative activation count -3"
    (fun () -> Dram.set_state d (with_bank0 [ (7, 2); (9, -3) ]));
  raises_naming "row out of range" "Dram.set_state: row 40000"
    (fun () -> Dram.set_state d (with_bank0 [ (40000, 1) ]));
  Alcotest.(check bool) "a rejected state leaves the device as it was" true
    (Dram.state d = s)

(* [create] decodes by shifts and masks, so a geometry field that is not
   a power of two is refused, naming the field. *)
let test_non_pow2_geometry_refused () =
  let g = Geometry.ddr4_4gb in
  List.iter
    (fun (field, bad) ->
      raises_naming field
        (Printf.sprintf "Dram.create: geometry %s = " field)
        (fun () -> Dram.create ~geometry:bad ()))
    [
      ("channels", { g with Geometry.channels = 3 });
      ("ranks", { g with Geometry.ranks = 0 });
      ("banks_per_rank", { g with Geometry.banks_per_rank = 12 });
      ("rows_per_bank", { g with Geometry.rows_per_bank = 30000 });
      ("columns", { g with Geometry.columns = 100 });
    ];
  ignore (Dram.create ~geometry:Geometry.ddr4_16gb ())

(* The refresh window rolls on exactly the accesses where
   [now / refresh_interval] first exceeds the epoch, as the division
   this compare replaced did: crossing boundaries in order, skipping
   windows, and after [set_state] moves the epoch forward or back. The
   rolls below were recorded on the division-based device. *)
let test_epoch_roll_points () =
  let timing = { Timing.ddr4_3ghz with Timing.refresh_interval = 1000 } in
  let d = Dram.create ~timing () in
  let rolls = ref 0 in
  Dram.on_refresh_epoch d (fun () -> incr rolls);
  let run nows =
    List.map
      (fun now ->
        ignore (Dram.access_fast d ~now ~addr:0x1000L ~is_write:false : int);
        !rolls)
      nows
  in
  Alcotest.(check (list int)) "boundaries in order"
    [ 0; 0; 1; 1; 1; 2; 3; 3; 4 ]
    (run [ 0; 999; 1000; 1001; 1999; 2000; 4500; 4999; 5000 ]);
  let at_epoch e = { (Dram.state d) with Dram.s_epoch = e } in
  Dram.set_state d (at_epoch 7);
  Alcotest.(check (list int)) "after set_state forward"
    [ 4; 4; 5; 5; 6 ]
    (run [ 6000; 7999; 8000; 8999; 9000 ]);
  Dram.set_state d (at_epoch 1);
  Alcotest.(check (list int)) "after set_state back"
    [ 6; 7; 7; 8 ]
    (run [ 1500; 2000; 2999; 3000 ])

let suite =
  [
    Alcotest.test_case "non-power-of-two geometry refused" `Quick
      test_non_pow2_geometry_refused;
    Alcotest.test_case "refresh epoch roll points" `Quick test_epoch_roll_points;
    Alcotest.test_case "timing latencies" `Quick test_latencies;
    Alcotest.test_case "row buffer" `Quick test_row_buffer_state_machine;
    Alcotest.test_case "storage" `Quick test_storage;
    Alcotest.test_case "flip stored bit" `Quick test_flip_stored_bit;
    Alcotest.test_case "activation counting" `Quick test_activation_counting;
    Alcotest.test_case "refresh resets" `Quick test_refresh_row_resets;
    Alcotest.test_case "listeners" `Quick test_listeners;
    Alcotest.test_case "epoch clears" `Quick test_epoch_clears_activations;
    Alcotest.test_case "lines_in_row / iter" `Quick test_lines_in_row_and_iter;
      Alcotest.test_case "create allocation" `Quick test_create_allocation;
    Alcotest.test_case "activation allocation-free" `Quick
      test_activation_allocation_free;
    Alcotest.test_case "bad coordinates" `Quick test_bad_coordinates;
    Alcotest.test_case "set_state rejects bad counts" `Quick
      test_set_state_rejects_bad_counts;
  ]
