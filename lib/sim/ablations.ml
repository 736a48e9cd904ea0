open Ptg_util
open Ptguard

(* --- Correction-strategy ablation ------------------------------------ *)

type correction_row = {
  label : string;
  corrected_pct : float;
  avg_guesses_when_corrected : float;
}

type correction_result = {
  p_flip : float;
  lines : int;
  rows : correction_row list;
}

let masks =
  let all = Correction.all_strategies in
  let none = Correction.no_strategies in
  [
    ("all strategies", all);
    ("without soft-MAC", { all with Correction.use_soft_mac = false });
    ("without flip-and-check", { all with Correction.use_flip_and_check = false });
    ("without zero-reset", { all with Correction.use_zero_reset = false });
    ("without flag-vote", { all with Correction.use_flag_vote = false });
    ("without pfn-contiguity", { all with Correction.use_pfn_contiguity = false });
    ("only soft-MAC", { none with Correction.use_soft_mac = true });
    ("only flip-and-check", { none with Correction.use_flip_and_check = true });
    ("only zero-reset", { none with Correction.use_zero_reset = true });
  ]

let correction ?jobs ?(lines = 400) ?(seed = 21L) ?(p_flip = 1.0 /. 256.0) () =
  let rng = Rng.create seed in
  let config = Config.optimized in
  let engine = Engine.create ~config ~rng:(Rng.split rng) () in
  let key = Engine.key engine in
  let mac_zero =
    Ptg_crypto.Mac.truncate ~width:config.Config.mac_bits
      (Ptg_crypto.Mac.compute_zero key)
  in
  let params =
    { (Ptg_vm.Process_model.draw_params rng) with Ptg_vm.Process_model.target_ptes = 32768 }
  in
  let population = Ptg_vm.Process_model.leaf_lines rng params in
  (* Pre-draw a shared set of (stored, faulty) cases so every mask faces
     the same faults. *)
  let cases = ref [] in
  let n = ref 0 in
  let counter = ref 0 in
  while !n < lines do
    incr counter;
    let line = population.(Rng.int rng (Array.length population)) in
    let addr = Int64.of_int (0x200_0000 + (!counter * 64)) in
    let stored = Engine.process_write engine ~addr line in
    let faulty, flips = Ptg_rowhammer.Inject.flip_line rng ~p_flip stored in
    (* Only protected-bit damage is interesting for correction. *)
    if flips <> [] && not (Correction.verify_only config key ~addr faulty) then begin
      incr n;
      cases := (addr, line, faulty) :: !cases
    end
  done;
  (* Every mask replays the same pre-drawn faults; [Correction.correct]
     draws nothing, so fanning the masks across domains is exact. *)
  let rows =
    Array.to_list
      (Pool.parallel_map ?jobs
         (fun (label, strategies) ->
        let corrected = ref 0 and guesses_sum = ref 0 in
        List.iter
          (fun (addr, original, faulty) ->
            let prepared =
              Ptg_pte.Protection.embed_identifier faulty (Engine.identifier engine)
            in
            match Correction.correct ~strategies ~mac_zero config key ~addr prepared with
            | Correction.Corrected { line = fixed; guesses; _ } ->
                let m = Config.masked_for_mac config in
                if Ptg_pte.Line.equal (m fixed) (m original) then begin
                  incr corrected;
                  guesses_sum := !guesses_sum + guesses
                end
            | Correction.Uncorrectable _ -> ())
          !cases;
        {
          label;
          corrected_pct = 100.0 *. float_of_int !corrected /. float_of_int lines;
          avg_guesses_when_corrected =
            (if !corrected = 0 then 0.0
             else float_of_int !guesses_sum /. float_of_int !corrected);
        })
         (Array.of_list masks))
  in
  { p_flip; lines; rows }

let correction_to_string r =
  Printf.sprintf "Correction-strategy ablation (p_flip = %.4f, %d faulty lines):\n"
    r.p_flip r.lines
  ^ Table.render
    ~align:[ Table.Left; Right; Right ]
    ~header:[ "strategy mask"; "corrected"; "avg guesses" ]
    (List.map
       (fun row ->
         [ row.label; Table.fpct row.corrected_pct; Table.f2 row.avg_guesses_when_corrected ])
       r.rows)

(* --- Write-pattern selectivity --------------------------------------- *)

type pattern_result = {
  data_lines_tested : int;
  basic_matches : int;
  extended_matches : int;
  zero_lines : int;
  pte_lines_tested : int;
  pte_basic_matches : int;
  pte_extended_matches : int;
}

let pattern ?(lines = 20_000) ?(seed = 22L) () =
  let rng = Rng.create seed in
  let prot = Ptg_pte.Protection.default in
  (* Realistic data-line mixture: integers of various magnitudes, floats,
     pointers, zero lines — the kinds of payloads DRAM actually holds. *)
  let random_data_line () =
    let kind = Rng.int rng 10 in
    Ptg_pte.Line.init (fun _ ->
        match kind with
        | 0 | 1 -> 0L (* zero line *)
        | 2 | 3 -> Int64.of_int (Rng.int rng 65536) (* small ints *)
        | 4 | 5 ->
            (* Power-of-two doubles (0.5, 1.0, 2.0, ...): zero mantissa,
               so the MAC field is clear, but the exponent occupies the
               identifier field — they match the 96-bit pattern only. *)
            Int64.bits_of_float (Float.pow 2.0 (float_of_int (Rng.int rng 64 - 32)))
        | 6 | 7 -> Int64.logor 0x0000_7F00_0000_0000L
                     (Int64.logand (Rng.next rng) 0xFF_FFFF_FFFFL) (* user pointers *)
        | _ -> Rng.next rng (* uniform noise *))
  in
  let basic = ref 0 and extended = ref 0 and zero = ref 0 in
  for _ = 1 to lines do
    let l = random_data_line () in
    if Ptg_pte.Line.is_zero l then incr zero;
    if Ptg_pte.Protection.matches_basic_pattern prot l then incr basic;
    if Ptg_pte.Protection.matches_extended_pattern prot l then incr extended
  done;
  let params = Ptg_vm.Process_model.draw_params rng in
  let pte_lines = Ptg_vm.Process_model.leaf_lines rng params in
  let pte_basic = ref 0 and pte_extended = ref 0 in
  Array.iter
    (fun l ->
      if Ptg_pte.Protection.matches_basic_pattern prot l then incr pte_basic;
      if Ptg_pte.Protection.matches_extended_pattern prot l then incr pte_extended)
    pte_lines;
  {
    data_lines_tested = lines;
    basic_matches = !basic;
    extended_matches = !extended;
    zero_lines = !zero;
    pte_lines_tested = Array.length pte_lines;
    pte_basic_matches = !pte_basic;
    pte_extended_matches = !pte_extended;
  }

let pattern_to_string r =
  "Write-pattern selectivity (96-bit basic vs 152-bit extended):\n"
  ^ Table.render
    ~align:[ Table.Left; Right; Right ]
    ~header:[ "population"; "96-bit matches"; "152-bit matches" ]
    [
      [ Printf.sprintf "data lines (%d, %d all-zero)" r.data_lines_tested r.zero_lines;
        string_of_int r.basic_matches; string_of_int r.extended_matches ];
      [ Printf.sprintf "PTE lines (%d)" r.pte_lines_tested;
        string_of_int r.pte_basic_matches; string_of_int r.pte_extended_matches ];
    ]
  ^ "Every kernel-written PTE line must match both patterns (they do);\n\
     the extended pattern only sheds data lines, shrinking the set of\n\
     reads that ever need a MAC computation.\n"

(* --- Page-size sensitivity --------------------------------------------- *)

type page_size_row = {
  page : string;
  avg_slowdown_pct : float;
  walks_per_kinstr : float;
}

type page_size_result = { rows : page_size_row list }

let page_size ?jobs ?(instrs = 400_000) ?(seed = 24L)
    ?(workloads = Ptg_workloads.Workload.high_mpki) () =
  let run_config label page_shift =
    (* Each workload simulates from seed-derived generators only, so the
       per-workload fan-out is exact for any job count. The unprotected
       and guarded machines are two lanes of one core over one stream. *)
    let per =
      Pool.parallel_map ?jobs
        (fun spec ->
          let config = { Ptg_cpu.Core.default_config with Ptg_cpu.Core.page_shift } in
          let stream = Ptg_workloads.Workload.stream (Rng.create seed) spec in
          let guard =
            Ptg_cpu.Guard_timing.of_config Config.baseline
              ~rng:(Rng.create (Int64.add seed 1L))
          in
          let core =
            Ptg_cpu.Core.create_lanes ~config
              ~guards:[| Ptg_cpu.Guard_timing.unprotected; guard |] ()
          in
          ignore (Ptg_cpu.Core.run_lanes core ~instrs:(instrs / 4) ~stream);
          let lanes = Ptg_cpu.Core.run_lanes core ~instrs ~stream in
          let base = lanes.(0) and guarded = lanes.(1) in
          ( 100.0 *. (1.0 -. (guarded.Ptg_cpu.Core.ipc /. base.Ptg_cpu.Core.ipc)),
            1000.0 *. float_of_int base.Ptg_cpu.Core.walks /. float_of_int instrs ))
        (Array.of_list workloads)
    in
    {
      page = label;
      avg_slowdown_pct = Ptg_util.Stats.mean (Array.map fst per);
      walks_per_kinstr = Ptg_util.Stats.mean (Array.map snd per);
    }
  in
  { rows = [ run_config "4K" 12; run_config "2M" 21 ] }

let page_size_to_string r =
  "Page-size sensitivity (PT-Guard baseline, high-MPKI workloads):\n"
  ^ Table.render
    ~align:[ Table.Left; Right; Right ]
    ~header:[ "page size"; "avg slowdown"; "walks/Kinstr" ]
    (List.map
       (fun row ->
         [ row.page; Table.fpct row.avg_slowdown_pct; Table.f2 row.walks_per_kinstr ])
       r.rows)
  ^ "Paper (Section III): larger pages reduce walk frequency and hence \
     PT-Guard's already-small overhead.\n"

(* --- CTB overflow via the known-plaintext MAC leak -------------------- *)

type ctb_result = {
  collisions_planted : int;
  ctb_entries_before : int;
  overflow_signalled : bool;
  rekeys : int;
  collisions_after_rekey : int;
  reads_correct_after_rekey : bool;
}

let ctb_overflow ?(seed = 23L) () =
  let rng = Rng.create seed in
  let dram = Ptg_dram.Dram.create () in
  let engine = Engine.create ~config:Config.optimized ~rng:(Rng.split rng) () in
  let mc = Ptg_memctrl.Memctrl.create ~engine dram in
  let overflow = ref false and collisions = ref 0 in
  Engine.on_os_event engine (function
    | Engine.Ctb_overflow -> overflow := true
    | Engine.Collision_detected _ -> incr collisions
    | Engine.Pte_integrity_failure _ | Engine.Rekey_completed _ -> ());
  (* The Section IV-G known-plaintext leak, once per target address:
     (1) write attacker data that matches the extended pattern, so the
         engine embeds a MAC in it;
     (2) hammer one protected bit of the stored line (the MAC now
         mismatches);
     (3) read it back as data: the line is forwarded raw, MAC included —
         the attacker has learned MAC(faulty data, addr);
     (4) write the faulty data with the leaked MAC pre-placed: the
         pattern no longer matches, the collision check fires, the CTB
         gains an entry. *)
  let leak_and_collide i =
    let addr = Int64.of_int (0x9000_0000 + (64 * i)) in
    let payload =
      Ptg_pte.Line.init (fun j ->
          (* attacker-chosen data, zero in the MAC/identifier fields *)
          Int64.of_int ((i * 1000) + j))
    in
    ignore (Ptg_memctrl.Memctrl.write_line mc ~addr payload ());
    Ptg_dram.Dram.flip_stored_bit dram ~addr ~bit:1 (* flip a protected bit *);
    let leaked =
      match Ptg_memctrl.Memctrl.read_line mc ~addr ~is_pte:false () with
      | { Ptg_memctrl.Memctrl.data = Some l; _ } -> l
      | { data = None; _ } ->
          (* Only a failed page-walk read withholds its line. *)
          failwith
            (Printf.sprintf
               "Ablations.ctb_overflow: data read of 0x%Lx was not forwarded"
               addr)
    in
    (* The leaked line carries MAC(payload, addr) and the identifier in
       the clear (the flip broke the data, not the MAC). Recombine the
       attacker's original payload with the leaked metadata fields: its
       MAC now matches its data — a crafted collision. *)
    let meta =
      Int64.logor Ptg_pte.Protection.mac_field_mask
        Ptg_pte.Protection.identifier_field_mask
    in
    let crafted =
      Ptg_pte.Line.init (fun j ->
          Int64.logor
            (Int64.logand (Ptg_pte.Line.get payload j) (Int64.lognot meta))
            (Int64.logand (Ptg_pte.Line.get leaked j) meta))
    in
    ignore (Ptg_memctrl.Memctrl.write_line mc ~addr crafted ())
  in
  for i = 1 to 5 do
    leak_and_collide i
  done;
  let ctb_entries_before = Ctb.size (Engine.ctb engine) in
  let overflow_signalled = !overflow in
  (* OS response: full-memory re-keying. *)
  Ptg_memctrl.Memctrl.rekey mc ~rng:(Rng.split rng);
  let collisions_after = Ctb.size (Engine.ctb engine) in
  (* Data must still read back correctly after re-keying. *)
  let ok = ref true in
  for i = 1 to 5 do
    let addr = Int64.of_int (0x9000_0000 + (64 * i)) in
    match Ptg_memctrl.Memctrl.read_line mc ~addr ~is_pte:false () with
    | { Ptg_memctrl.Memctrl.data = Some _; _ } -> ()
    | _ -> ok := false
  done;
  {
    collisions_planted = !collisions;
    ctb_entries_before;
    overflow_signalled;
    rekeys = (Engine.stats engine).Engine.rekeys;
    collisions_after_rekey = collisions_after;
    reads_correct_after_rekey = !ok;
  }

let ctb_to_string r =
  Printf.sprintf
    "CTB overflow via known-plaintext collisions (Section VII-B):\n\
    \  collisions planted:        %d\n\
    \  CTB entries before rekey:  %d (capacity 4)\n\
    \  overflow signalled to OS:  %b\n\
    \  re-key sweeps performed:   %d\n\
    \  CTB entries after rekey:   %d\n\
    \  reads correct after rekey: %b\n"
    r.collisions_planted r.ctb_entries_before r.overflow_signalled r.rekeys
    r.collisions_after_rekey r.reads_correct_after_rekey

(* --- All four, as the ablations subcommand prints them ----------------- *)

type result = {
  correction : correction_result;
  pattern : pattern_result;
  ctb : ctb_result;
  page_size : page_size_result;
}

let run ?jobs ~lines ~instrs ~seed () =
  {
    correction = correction ?jobs ~lines ~seed ();
    pattern = pattern ~seed ();
    ctb = ctb_overflow ~seed ();
    page_size = page_size ?jobs ~instrs ~seed ();
  }

let to_string r =
  String.concat "\n"
    [ correction_to_string r.correction; pattern_to_string r.pattern; ctb_to_string r.ctb;
      page_size_to_string r.page_size ]
