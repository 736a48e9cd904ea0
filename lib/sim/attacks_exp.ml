open Ptg_util

type row = {
  attack : string;
  mitigation : string;
  rth : int;
  activations : int;
  mitigation_refreshes : int;
  bit_flips : int;
  pte_lines_tampered : int;
  detected : int;
  corrected : int;
  escapes : int;
}

type result = { rows : row list }

type mitigation_kind =
  | No_mitigation
  | Trr
  | Para
  | Graphene of { threshold : int }
  | Soft_trr
  | Soft_trr_and_trr
      (** the deployment SoftTRR assumes: OS-level PT-row tracking layered
          over the module's own in-DRAM TRR *)

let mitigation_name = function
  | No_mitigation -> "none"
  | Trr -> "TRR"
  | Para -> "PARA"
  | Graphene { threshold } -> Printf.sprintf "Graphene(T=%d)" threshold
  | Soft_trr -> "SoftTRR"
  | Soft_trr_and_trr -> "SoftTRR+TRR"

type scenario = {
  label : string;
  pattern : int -> Ptg_rowhammer.Attack.pattern; (* victim row -> pattern *)
  mitigation : mitigation_kind;
  fault_config : Ptg_rowhammer.Fault_model.config;
}

let scenarios =
  let ddr4 = Ptg_rowhammer.Fault_model.ddr4 in
  (* Keep distance-2 coupling weak so Half-Double genuinely needs the
     mitigation's refreshes to push the victim past RTH. *)
  let ddr4 = { ddr4 with Ptg_rowhammer.Fault_model.distance2_weight = 0.01 } in
  let lpddr4 =
    { ddr4 with Ptg_rowhammer.Fault_model.rth = 4800; p_flip = 0.01 }
  in
  let double_sided v = Ptg_rowhammer.Attack.Double_sided { victim = v } in
  let many_sided v =
    (* TRRespass/SMASH: park decoys in the TRR sampler's post-REF window,
       hammer the true aggressors outside it. *)
    Ptg_rowhammer.Attack.Synchronized_many_sided
      {
        aggressors = [ v - 1; v + 1 ];
        decoys = [ v + 500; v + 502; v + 504; v + 506 ];
        ref_interval = 166;
        window = 8;
      }
  in
  let half_double v = Ptg_rowhammer.Attack.Half_double { victim = v; distance = 2 } in
  [
    { label = "double-sided"; pattern = double_sided; mitigation = No_mitigation; fault_config = ddr4 };
    { label = "double-sided"; pattern = double_sided; mitigation = Trr; fault_config = ddr4 };
    { label = "double-sided"; pattern = double_sided; mitigation = Para; fault_config = ddr4 };
    { label = "double-sided"; pattern = double_sided; mitigation = Graphene { threshold = 2500 }; fault_config = ddr4 };
    { label = "sync many-sided (TRRespass)"; pattern = many_sided; mitigation = Trr; fault_config = ddr4 };
    { label = "sync many-sided (TRRespass)"; pattern = many_sided; mitigation = Graphene { threshold = 2500 }; fault_config = ddr4 };
    { label = "half-double"; pattern = half_double; mitigation = No_mitigation; fault_config = ddr4 };
    { label = "half-double"; pattern = half_double; mitigation = Trr; fault_config = ddr4 };
    { label = "double-sided"; pattern = double_sided; mitigation = Soft_trr; fault_config = ddr4 };
    { label = "half-double"; pattern = half_double; mitigation = Soft_trr_and_trr; fault_config = ddr4 };
    { label = "double-sided @ RTH 4.8K"; pattern = double_sided; mitigation = Graphene { threshold = 2500 }; fault_config = lpddr4 };
    { label = "double-sided @ RTH 4.8K"; pattern = double_sided; mitigation = Graphene { threshold = 1200 }; fault_config = lpddr4 };
  ]

let victim_row = 1000
let channel = 0
let bank = 3

(* Fill the victim row with realistic PTE cachelines through the guarded
   controller, so flips land in protected lines. *)
let plant_pte_lines rng engine dram =
  let geometry = Ptg_dram.Dram.geometry dram in
  let params =
    { (Ptg_vm.Process_model.draw_params rng) with Ptg_vm.Process_model.target_ptes = 4096 }
  in
  let lines = Ptg_vm.Process_model.leaf_lines rng params in
  let cols = geometry.Ptg_dram.Geometry.columns in
  List.init (min cols (Array.length lines)) (fun col ->
      let coords =
        { Ptg_dram.Geometry.channel; rank = 0; bank; row = victim_row; col }
      in
      let addr = Ptg_dram.Geometry.encode geometry coords in
      let logical = lines.(col) in
      Ptg_dram.Dram.write_line dram addr
        (Ptguard.Engine.process_write engine ~addr logical);
      (addr, logical))

let run_scenario ~seed ~iterations scenario =
  let rng = Rng.create seed in
  let dram = Ptg_dram.Dram.create () in
  let fault =
    Ptg_rowhammer.Fault_model.attach ~config:scenario.fault_config
      ~rng:(Rng.split rng) dram
  in
  (* Flips that land in the victim row. *)
  let bit_flips = ref 0 in
  Ptg_rowhammer.Fault_model.on_flip fault (fun f ->
      if f.Ptg_rowhammer.Fault_model.row = victim_row && f.bank = bank then incr bit_flips);
  let pt_row ~channel:c ~bank:b ~row = c = channel && b = bank && row = victim_row in
  let mitigation =
    let module R = Ptg_mitigations.Registry in
    match scenario.mitigation with
    | No_mitigation -> None
    | Trr -> Some (R.instantiate_exn "trr" (R.ctx dram))
    | Para -> Some (R.instantiate_exn "para" (R.ctx ~rng:(Rng.split rng) dram))
    | Graphene { threshold } ->
        Some
          (R.instantiate_exn
             ~params:[ ("threshold", R.Int threshold) ]
             "graphene" (R.ctx dram))
    | Soft_trr -> Some (R.instantiate_exn "soft-trr" (R.ctx ~pt_row dram))
    | Soft_trr_and_trr ->
        (* the in-DRAM TRR runs underneath; report SoftTRR's refreshes *)
        let _hw = R.instantiate_exn "trr" (R.ctx dram) in
        Some (R.instantiate_exn "soft-trr" (R.ctx ~pt_row dram))
  in
  let engine = Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng:(Rng.split rng) () in
  let planted = plant_pte_lines rng engine dram in
  let pattern = scenario.pattern victim_row in
  let start_acts = Ptg_dram.Dram.total_activations dram in
  ignore
    (Ptg_rowhammer.Attack.run dram ~channel ~bank pattern ~iterations ~start_time:0);
  let activations = Ptg_dram.Dram.total_activations dram - start_acts in
  (* Replay page-table walks over the planted lines. *)
  let mask = Ptg_pte.Protection.masked_for_mac Ptg_pte.Protection.default in
  let tampered = ref 0 and detected = ref 0 and corrected = ref 0 and escapes = ref 0 in
  List.iter
    (fun (addr, logical) ->
      let stored_now = Ptg_dram.Dram.read_line dram addr in
      let clean_stored = Ptguard.Engine.process_write engine ~addr logical in
      let was_tampered = not (Ptg_pte.Line.equal stored_now clean_stored) in
      if was_tampered then begin
        incr tampered;
        match Ptguard.Engine.process_read engine ~addr ~is_pte:true stored_now with
        | { Ptguard.Engine.integrity = Ptguard.Engine.Failed; _ } -> incr detected
        | { integrity = Ptguard.Engine.Corrected _; line = Some l; _ } ->
            if Ptg_pte.Line.equal (mask l) (mask logical) then incr corrected
            else incr escapes
        | { integrity = Ptguard.Engine.Passed; line = Some l; _ } ->
            (* Flips restricted to unprotected bits are benign. *)
            if Ptg_pte.Line.equal (mask l) (mask logical) then ()
            else incr escapes
        | _ -> incr escapes
      end)
    planted;
  {
    attack = scenario.label;
    mitigation = mitigation_name scenario.mitigation;
    rth = scenario.fault_config.Ptg_rowhammer.Fault_model.rth;
    activations;
    mitigation_refreshes =
      Option.fold ~none:0 ~some:Ptg_mitigations.Registry.refreshes_issued
        mitigation;
    bit_flips = !bit_flips;
    pte_lines_tampered = !tampered;
    detected = !detected;
    corrected = !corrected;
    escapes = !escapes;
  }

let run ?(seed = 13L) ?(iterations = 400_000) () =
  { rows = List.map (run_scenario ~seed ~iterations) scenarios }

let header =
  [ "attack"; "mitigation"; "RTH"; "ACTs"; "refreshes"; "flips"; "tampered lines";
    "detected"; "corrected"; "escapes" ]

let to_rows result =
  List.map
    (fun r ->
      [
        r.attack;
        r.mitigation;
        string_of_int r.rth;
        string_of_int r.activations;
        string_of_int r.mitigation_refreshes;
        string_of_int r.bit_flips;
        string_of_int r.pte_lines_tampered;
        string_of_int r.detected;
        string_of_int r.corrected;
        string_of_int r.escapes;
      ])
    result.rows

let to_string result =
  "Rowhammer attacks vs mitigations, with PT-Guard as the backstop\n"
  ^ Table.render
      ~align:[ Table.Left; Left; Right; Right; Right; Right; Right; Right; Right; Right ]
      ~header (to_rows result)
  ^ "Expected shape: TRR stops double-sided but not many-sided or\n\
     half-double; Graphene provisioned for RTH 10K fails at RTH 4.8K;\n\
     PT-Guard detects or corrects every tampered PTE line (escapes = 0).\n"

let to_csv result ~path = Table.save_csv ~path ~header (to_rows result)
