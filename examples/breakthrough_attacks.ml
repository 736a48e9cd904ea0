(* Breakthrough Rowhammer attacks vs deployed mitigations (paper Section II).

   Runs the real access-pattern -> tracker -> victim-refresh -> disturbance
   pipeline on the DRAM model:

   1. double-sided hammering on bare DRAM flips bits;
   2. in-DRAM TRR stops the double-sided pattern;
   3. TRRespass-style many-sided hammering thrashes TRR's 4-entry sampler
      and flips bits anyway;
   4. Half-Double: hammering at distance 2 makes TRR's own victim
      refreshes disturb the real target — the mitigation is the weapon;
   5. PT-Guard detects every PTE-line flip these attacks land.

   Run with: dune exec examples/breakthrough_attacks.exe *)

let scenario ~label ~mitigate ~pattern ~iterations =
  let rng = Ptg_util.Rng.create 3L in
  let dram = Ptg_dram.Dram.create () in
  let config =
    { Ptg_rowhammer.Fault_model.ddr4 with
      Ptg_rowhammer.Fault_model.distance2_weight = 0.01 }
  in
  let fault = Ptg_rowhammer.Fault_model.attach ~config ~rng:(Ptg_util.Rng.split rng) dram in
  let flips = ref 0 in
  Ptg_rowhammer.Fault_model.on_flip fault (fun f ->
      if f.Ptg_rowhammer.Fault_model.row = 1000 && f.Ptg_rowhammer.Fault_model.bank = 3 then
        incr flips);
  let mitigation =
    if mitigate then
      Some
        (Ptg_mitigations.Registry.instantiate_exn "trr"
           (Ptg_mitigations.Registry.ctx dram))
    else None
  in
  (* Victim row 1000 of bank 3 holds a page of PTEs. *)
  let geometry = Ptg_dram.Dram.geometry dram in
  let engine = Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng:(Ptg_util.Rng.split rng) () in
  let victim_lines =
    List.init 16 (fun col ->
        let coords = { Ptg_dram.Geometry.channel = 0; rank = 0; bank = 3; row = 1000; col } in
        let addr = Ptg_dram.Geometry.encode geometry coords in
        let line =
          Ptg_pte.Line.init (fun i ->
              Ptg_pte.X86.make ~writable:true ~user:true
                ~pfn:(Int64.of_int (0x40000 + (col * 8) + i)) ())
        in
        Ptg_dram.Dram.write_line dram addr (Ptguard.Engine.process_write engine ~addr line);
        addr)
  in
  ignore (Ptg_rowhammer.Attack.run dram ~channel:0 ~bank:3 pattern ~iterations ~start_time:0);
  let detected = ref 0 and tampered = ref 0 in
  List.iter
    (fun addr ->
      let stored = Ptg_dram.Dram.read_line dram addr in
      match Ptguard.Engine.process_read engine ~addr ~is_pte:true stored with
      | { integrity = Ptguard.Engine.Passed; _ } -> ()
      | { integrity = Ptguard.Engine.Corrected _; _ } | { integrity = Ptguard.Engine.Failed; _ } ->
          incr tampered;
          incr detected
      | _ -> ())
    victim_lines;
  Printf.printf "%-42s %-14s flips=%-4d refreshes=%-6d PTE lines hit=%d, all detected=%b\n"
    label
    (match mitigation with Some m -> Ptg_mitigations.Registry.instance_name m | None -> "no mitigation")
    !flips
    (match mitigation with Some m -> Ptg_mitigations.Registry.refreshes_issued m | None -> 0)
    !tampered
    (!tampered = !detected)

let () =
  print_endline "Rowhammer vs victim row 1000 (a row of PTE cachelines), RTH = 10K:\n";
  let double_sided = Ptg_rowhammer.Attack.Double_sided { victim = 1000 } in
  let many_sided =
    (* Synchronized with the REF cadence: decoys occupy the sampler's
       observation window, the true aggressors hammer outside it. *)
    Ptg_rowhammer.Attack.Synchronized_many_sided
      {
        aggressors = [ 999; 1001 ];
        decoys = [ 1500; 1502; 1504; 1506 ];
        ref_interval = 166;
        window = 8;
      }
  in
  let half_double = Ptg_rowhammer.Attack.Half_double { victim = 1000; distance = 2 } in
  scenario ~label:"double-sided, bare DRAM" ~mitigate:false ~pattern:double_sided
    ~iterations:20_000;
  scenario ~label:"double-sided vs TRR" ~mitigate:true ~pattern:double_sided
    ~iterations:20_000;
  scenario ~label:"sync many-sided (TRRespass) vs TRR" ~mitigate:true ~pattern:many_sided
    ~iterations:20_000;
  scenario ~label:"half-double (distance 2) vs TRR" ~mitigate:true ~pattern:half_double
    ~iterations:400_000;
  scenario ~label:"half-double, bare DRAM (for contrast)" ~mitigate:false
    ~pattern:half_double ~iterations:400_000;
  (* Blacksmith: no synchronization knowledge, just fuzzing the
     frequency/phase/amplitude space until something slips past TRR. *)
  let rng = Ptg_util.Rng.create 77L in
  let bs = Ptg_mitigations.Blacksmith_campaign.campaign ~tries:20 ~rng ~victim:900 () in
  Format.printf "\nblacksmith fuzzing vs TRR: %a@." Ptg_mitigations.Blacksmith_campaign.pp bs;
  print_endline
    "\nTRR blocks the classic pattern but the breakthrough patterns flip bits\n\
     through or around it; PT-Guard detects every tampered PTE line."
