open Ptg_dram
open Ptg_rowhammer
open Ptg_mitigations

let setup ?(config = Fault_model.ddr4) () =
  let rng = Ptg_util.Rng.create 31L in
  let dram = Dram.create () in
  let fault = Fault_model.attach ~config ~rng dram in
  let g = Dram.geometry dram in
  let c = Geometry.decode g 0L in
  let victim = 800 in
  Dram.write_line dram
    (Geometry.encode g { c with Geometry.row = victim })
    (Ptg_pte.Line.of_words (Array.make 8 (-1L)));
  (dram, fault, victim)

let trr ?params dram = Registry.instantiate_exn ?params "trr" (Registry.ctx dram)

let graphene ?(counters = 128) ~threshold dram =
  Registry.instantiate_exn
    ~params:
      [ ("counters", Registry.Int counters); ("threshold", Registry.Int threshold) ]
    "graphene" (Registry.ctx dram)

let para ~p ~rng dram =
  Registry.instantiate_exn ~params:[ ("p", Registry.Float p) ] "para"
    (Registry.ctx ~rng dram)

let soft_trr ~pt_row dram =
  Registry.instantiate_exn "soft-trr" (Registry.ctx ~pt_row dram)

let attack dram pattern iterations =
  ignore (Attack.run dram ~channel:0 ~bank:0 pattern ~iterations ~start_time:0)

let test_trr_stops_double_sided () =
  let dram, fault, victim = setup () in
  let m = trr dram in
  attack dram (Attack.Double_sided { victim }) 30_000;
  Alcotest.(check int) "no flips with TRR" 0 (Fault_model.flip_count fault);
  Alcotest.(check bool) "TRR issued refreshes" true (Registry.refreshes_issued m > 0);
  Alcotest.(check string) "name" "TRR" (Registry.instance_name m)

let test_synchronized_defeats_trr () =
  let dram, fault, victim = setup () in
  let _m = trr dram in
  attack dram
    (Attack.Synchronized_many_sided
       {
         aggressors = [ victim - 1; victim + 1 ];
         decoys = [ victim + 300; victim + 302; victim + 304; victim + 306 ];
         ref_interval = 166;
         window = 8;
       })
    15_000;
  Alcotest.(check bool) "TRRespass flips through TRR" true
    (Fault_model.flip_count fault > 0)

let test_graphene_stops_synchronized () =
  let dram, fault, victim = setup () in
  let m = graphene ~threshold:2500 dram in
  attack dram
    (Attack.Synchronized_many_sided
       {
         aggressors = [ victim - 1; victim + 1 ];
         decoys = [ victim + 300; victim + 302; victim + 304; victim + 306 ];
         ref_interval = 166;
         window = 8;
       })
    15_000;
  Alcotest.(check int) "Graphene sees every activation" 0 (Fault_model.flip_count fault);
  Alcotest.(check bool) "Graphene refreshed" true (Registry.refreshes_issued m > 0)

let test_graphene_wrong_threshold_fails () =
  (* Provisioned for RTH 10K (threshold 2500) but the module flips at
     4.8K: the design-time-threshold weakness. *)
  let dram, fault, victim = setup ~config:Fault_model.lpddr4 () in
  let _m = graphene ~threshold:2500 dram in
  attack dram (Attack.Double_sided { victim }) 10_000;
  Alcotest.(check bool) "mis-provisioned Graphene leaks flips" true
    (Fault_model.flip_count fault > 0)

let test_graphene_right_threshold_holds () =
  let dram, fault, victim = setup ~config:Fault_model.lpddr4 () in
  let _m = graphene ~threshold:1200 dram in
  attack dram (Attack.Double_sided { victim }) 10_000;
  Alcotest.(check int) "properly provisioned Graphene holds" 0
    (Fault_model.flip_count fault)

let test_para_mitigates () =
  let dram, fault, victim = setup () in
  let rng = Ptg_util.Rng.create 8L in
  let m = para ~p:0.002 ~rng dram in
  attack dram (Attack.Double_sided { victim }) 30_000;
  Alcotest.(check int) "PARA at adequate p holds" 0 (Fault_model.flip_count fault);
  Alcotest.(check bool) "PARA refreshed" true (Registry.refreshes_issued m > 0)

let test_soft_trr_guards_pt_rows () =
  let dram, fault, victim = setup () in
  let pt_row ~channel:_ ~bank:_ ~row = row = victim in
  let m = soft_trr ~pt_row dram in
  attack dram (Attack.Double_sided { victim }) 30_000;
  Alcotest.(check int) "PT row defended" 0 (Fault_model.flip_count fault);
  Alcotest.(check bool) "SoftTRR refreshed" true (Registry.refreshes_issued m > 0);
  Alcotest.(check string) "name" "SoftTRR" (Registry.instance_name m)

let test_soft_trr_ignores_other_rows () =
  let dram, fault, victim = setup () in
  (* the victim row is NOT registered as a page-table row *)
  let pt_row ~channel:_ ~bank:_ ~row = row = victim + 100 in
  let m = soft_trr ~pt_row dram in
  attack dram (Attack.Double_sided { victim }) 24_000;
  Alcotest.(check int) "unguarded row not refreshed" 0 (Registry.refreshes_issued m);
  Alcotest.(check bool) "so it flips" true (Fault_model.flip_count fault > 0)

let test_soft_trr_blind_to_half_double () =
  (* SoftTRR + in-DRAM TRR: the distance-2 attack flips the PT row via the
     in-DRAM mitigation's own refreshes, which SoftTRR cannot observe. *)
  let config =
    { Fault_model.ddr4 with Ptg_rowhammer.Fault_model.distance2_weight = 0.01 }
  in
  let dram, fault, victim = setup ~config () in
  let _hw = trr dram in
  let pt_row ~channel:_ ~bank:_ ~row = row = victim in
  let soft = soft_trr ~pt_row dram in
  attack dram (Attack.Half_double { victim; distance = 2 }) 400_000;
  Alcotest.(check bool) "half-double flips through both" true
    (Fault_model.flip_count fault > 0);
  Alcotest.(check int) "SoftTRR saw nothing" 0 (Registry.refreshes_issued soft)

let test_validation () =
  let dram = Dram.create () in
  Alcotest.check_raises "sampler size" (Invalid_argument "trr: sampler_size")
    (fun () -> ignore (trr ~params:[ ("sampler_size", Registry.Int 0) ] dram));
  Alcotest.check_raises "para p" (Invalid_argument "para: p") (fun () ->
      ignore (para ~p:1.5 ~rng:(Ptg_util.Rng.create 1L) dram));
  Alcotest.check_raises "graphene"
    (Invalid_argument "graphene: counters and threshold must be >= 1")
    (fun () -> ignore (graphene ~counters:0 ~threshold:2500 dram))

let suite =
  [
    Alcotest.test_case "TRR stops double-sided" `Quick test_trr_stops_double_sided;
    Alcotest.test_case "TRRespass defeats TRR" `Quick test_synchronized_defeats_trr;
    Alcotest.test_case "Graphene stops TRRespass" `Quick test_graphene_stops_synchronized;
    Alcotest.test_case "Graphene wrong RTH fails" `Quick test_graphene_wrong_threshold_fails;
    Alcotest.test_case "Graphene right RTH holds" `Quick test_graphene_right_threshold_holds;
    Alcotest.test_case "PARA mitigates" `Quick test_para_mitigates;
    Alcotest.test_case "SoftTRR guards PT rows" `Quick test_soft_trr_guards_pt_rows;
    Alcotest.test_case "SoftTRR ignores other rows" `Quick test_soft_trr_ignores_other_rows;
    Alcotest.test_case "SoftTRR blind to Half-Double" `Slow test_soft_trr_blind_to_half_double;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
