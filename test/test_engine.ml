open Ptguard

let mk ?(config = Config.baseline) seed = Engine.create ~config ~rng:(Ptg_util.Rng.create seed) ()

let pte_line () =
  Ptg_pte.Line.init (fun i ->
      Ptg_pte.X86.make ~writable:true ~user:true ~accessed:(i = 2)
        ~pfn:(Int64.of_int (0x6000 + i)) ())

let data_line_unmatched () =
  (* random-looking data that does not match any pattern *)
  Ptg_pte.Line.init (fun i -> Int64.logor 0xDEAD_0000_0000_0000L (Int64.of_int i))

let masked = Ptg_pte.Protection.masked_for_mac Ptg_pte.Protection.default

(* --- write path ------------------------------------------------------- *)

let test_write_embeds_mac () =
  let e = mk 1L in
  let line = pte_line () in
  let stored = Engine.process_write e ~addr:0x40L line in
  Alcotest.(check bool) "stored differs (MAC embedded)" false
    (Ptg_pte.Line.equal stored line);
  Alcotest.(check bool) "protected bits untouched" true
    (Ptg_pte.Line.equal (masked stored) (masked line));
  Alcotest.(check int) "stats: protected write" 1 (Engine.stats e).Engine.writes_protected

let test_write_data_passthrough () =
  let e = mk 1L in
  let line = data_line_unmatched () in
  let stored = Engine.process_write e ~addr:0x40L line in
  Alcotest.(check bool) "unmatched data unmodified" true (Ptg_pte.Line.equal stored line);
  Alcotest.(check int) "not counted protected" 0 (Engine.stats e).Engine.writes_protected

let test_write_optimized_identifier () =
  let e = mk ~config:Config.optimized 2L in
  let stored = Engine.process_write e ~addr:0x80L (pte_line ()) in
  Alcotest.(check int64) "identifier embedded" (Engine.identifier e)
    (Ptg_pte.Protection.extract_identifier stored)

let test_write_mac_zero_stat () =
  let e = mk ~config:Config.optimized 3L in
  ignore (Engine.process_write e ~addr:0xC0L (Ptg_pte.Line.create ()));
  Alcotest.(check int) "mac-zero fast path used" 1 (Engine.stats e).Engine.writes_mac_zero

let test_baseline_identifier_is_zero () =
  let e = mk 4L in
  Alcotest.(check int64) "no identifier in baseline" 0L (Engine.identifier e)

(* --- read path: PTE --------------------------------------------------- *)

let test_pte_read_clean () =
  let e = mk 5L in
  let line = pte_line () in
  let stored = Engine.process_write e ~addr:0x100L line in
  match Engine.process_read e ~addr:0x100L ~is_pte:true stored with
  | { Engine.integrity = Engine.Passed; line = Some out; extra_latency; _ } ->
      Alcotest.(check bool) "MAC stripped, line restored" true (Ptg_pte.Line.equal out line);
      Alcotest.(check int) "MAC latency charged" 10 extra_latency
  | _ -> Alcotest.fail "clean PTE read must pass"

let test_pte_read_wrong_address_fails () =
  (* The MAC binds the physical address: replaying a valid PTE line at a
     different address must not verify. *)
  let e = Engine.create ~config:(Config.with_correction Config.baseline false)
      ~rng:(Ptg_util.Rng.create 6L) () in
  let stored = Engine.process_write e ~addr:0x100L (pte_line ()) in
  match Engine.process_read e ~addr:0x140L ~is_pte:true stored with
  | { Engine.integrity = Engine.Failed; line = None; _ } -> ()
  | _ -> Alcotest.fail "relocation attack must be detected"

let test_pte_read_corrected () =
  let e = mk 7L in
  let line = pte_line () in
  let stored = Engine.process_write e ~addr:0x140L line in
  let faulty = Ptg_pte.Line.flip_bit stored ((4 * 64) + 1) (* writable bit *) in
  match Engine.process_read e ~addr:0x140L ~is_pte:true faulty with
  | { Engine.integrity = Engine.Corrected { guesses; _ }; line = Some out; extra_latency; _ } ->
      Alcotest.(check bool) "healed" true (Ptg_pte.Line.equal out line);
      Alcotest.(check bool) "correction latency scales with guesses" true
        (extra_latency >= 10 * guesses);
      Alcotest.(check int) "stats" 1 (Engine.stats e).Engine.corrections_succeeded
  | _ -> Alcotest.fail "single flip must be corrected"

let test_pte_read_failed_event () =
  let e = Engine.create ~config:(Config.with_correction Config.baseline false)
      ~rng:(Ptg_util.Rng.create 8L) () in
  let events = ref [] in
  Engine.on_os_event e (fun ev -> events := ev :: !events);
  let stored = Engine.process_write e ~addr:0x180L (pte_line ()) in
  let faulty = Ptg_pte.Line.flip_bit stored 1 in
  (match Engine.process_read e ~addr:0x180L ~is_pte:true faulty with
  | { Engine.integrity = Engine.Failed; line = None; raw_line; _ } ->
      Alcotest.(check bool) "raw line available for OS" true
        (Ptg_pte.Line.equal raw_line faulty)
  | _ -> Alcotest.fail "must fail without correction");
  match !events with
  | [ Engine.Pte_integrity_failure { addr } ] ->
      Alcotest.(check int64) "exception address" 0x180L addr
  | _ -> Alcotest.fail "expected exactly one integrity-failure event"

let test_accessed_bit_flip_invisible () =
  (* Table IV: the accessed bit is unprotected, so flipping it neither
     fails nor alters the check. *)
  let e = mk 9L in
  let line = pte_line () in
  let stored = Engine.process_write e ~addr:0x1C0L line in
  let faulty = Ptg_pte.Line.flip_bit stored ((5 * 64) + 5) in
  match Engine.process_read e ~addr:0x1C0L ~is_pte:true faulty with
  | { Engine.integrity = Engine.Passed; line = Some out; _ } ->
      Alcotest.(check bool) "protected content intact" true
        (Ptg_pte.Line.equal (masked out) (masked line))
  | _ -> Alcotest.fail "accessed-bit flip must pass"

let test_zero_line_pte_read_optimized () =
  let e = mk ~config:Config.optimized 10L in
  let stored = Engine.process_write e ~addr:0x200L (Ptg_pte.Line.create ()) in
  match Engine.process_read e ~addr:0x200L ~is_pte:true stored with
  | { Engine.integrity = Engine.Passed; line = Some out; extra_latency; _ } ->
      Alcotest.(check bool) "zero line restored" true (Ptg_pte.Line.is_zero out);
      Alcotest.(check int) "MAC-zero shortcut: no cipher latency" 0 extra_latency
  | _ -> Alcotest.fail "zero PTE line must pass via MAC-zero"

(* --- read path: data --------------------------------------------------- *)

let test_data_read_protected_stripped () =
  let e = mk 11L in
  let line = pte_line () in
  let stored = Engine.process_write e ~addr:0x240L line in
  match Engine.process_read e ~addr:0x240L ~is_pte:false stored with
  | { Engine.integrity = Engine.Data_protected; line = Some out; _ } ->
      Alcotest.(check bool) "MAC stripped on data read" true (Ptg_pte.Line.equal out line)
  | _ -> Alcotest.fail "protected data read must strip"

let test_data_read_passthrough () =
  let e = mk 12L in
  let line = data_line_unmatched () in
  let stored = Engine.process_write e ~addr:0x280L line in
  match Engine.process_read e ~addr:0x280L ~is_pte:false stored with
  | { Engine.integrity = Engine.Data_passthrough; line = Some out; _ } ->
      Alcotest.(check bool) "unchanged" true (Ptg_pte.Line.equal out line)
  | _ -> Alcotest.fail "unprotected data must pass through"

let test_data_read_tampered_forwarded_raw () =
  (* Section IV-E: a flipped protected data line is forwarded as-is; the
     OS bounds check can spot the stranded MAC. *)
  let e = mk 13L in
  let stored = Engine.process_write e ~addr:0x2C0L (pte_line ()) in
  let faulty = Ptg_pte.Line.flip_bit stored 0 in
  match Engine.process_read e ~addr:0x2C0L ~is_pte:false faulty with
  | { Engine.integrity = Engine.Data_passthrough; line = Some out; _ } ->
      Alcotest.(check bool) "raw bits forwarded" true (Ptg_pte.Line.equal out faulty);
      Alcotest.(check bool) "OS bounds check trips" true (Engine.pte_bounds_check e out)
  | _ -> Alcotest.fail "tampered protected line forwards raw on data reads"

let test_optimized_data_read_skips_mac () =
  let e = mk ~config:Config.optimized 14L in
  let line = data_line_unmatched () in
  let stored = Engine.process_write e ~addr:0x300L line in
  let before = (Engine.stats e).Engine.mac_computations in
  (match Engine.process_read e ~addr:0x300L ~is_pte:false stored with
  | { Engine.extra_latency = 0; _ } -> ()
  | _ -> Alcotest.fail "no identifier, no latency");
  Alcotest.(check int) "no MAC computation" before (Engine.stats e).Engine.mac_computations

(* --- collisions -------------------------------------------------------- *)

let craft_collision e ~addr =
  (* Build a data line whose bits at the MAC/identifier fields equal the
     MAC the engine would compute — the write path must CTB-track it. *)
  let payload = Ptg_pte.Line.init (fun i -> Int64.of_int (i + 1)) in
  let stored = Engine.process_write e ~addr payload in
  (* [stored] is the protected version (pattern matched). Re-writing those
     exact bits as data (pattern no longer matches because the MAC field
     is non-zero) makes a perfect collision. *)
  stored

let test_collision_tracked_and_passthrough () =
  let e = mk 15L in
  let events = ref 0 in
  Engine.on_os_event e (function Engine.Collision_detected _ -> incr events | _ -> ());
  let crafted = craft_collision e ~addr:0x340L in
  let stored = Engine.process_write e ~addr:0x340L crafted in
  Alcotest.(check bool) "collision stored verbatim" true (Ptg_pte.Line.equal stored crafted);
  Alcotest.(check int) "CTB entry" 1 (Ctb.size (Engine.ctb e));
  Alcotest.(check int) "event emitted" 1 !events;
  (* reads of the colliding line are forwarded untouched *)
  match Engine.process_read e ~addr:0x340L ~is_pte:false stored with
  | { Engine.integrity = Engine.Data_passthrough; line = Some out; extra_latency = 0; _ } ->
      Alcotest.(check bool) "collision passthrough" true (Ptg_pte.Line.equal out crafted)
  | _ -> Alcotest.fail "colliding line must bypass MAC removal"

let test_collision_cleared_by_rewrite () =
  let e = mk 16L in
  let crafted = craft_collision e ~addr:0x380L in
  ignore (Engine.process_write e ~addr:0x380L crafted);
  Alcotest.(check int) "tracked" 1 (Ctb.size (Engine.ctb e));
  (* benign rewrite clears the entry (Section VII-B) *)
  ignore (Engine.process_write e ~addr:0x380L (data_line_unmatched ()));
  Alcotest.(check int) "cleared" 0 (Ctb.size (Engine.ctb e))

let test_ctb_overflow_event () =
  let e = mk 17L in
  let overflow = ref false in
  Engine.on_os_event e (function Engine.Ctb_overflow -> overflow := true | _ -> ());
  for i = 0 to 4 do
    let addr = Int64.of_int (0x1000 + (i * 64)) in
    let crafted = craft_collision e ~addr in
    ignore (Engine.process_write e ~addr crafted)
  done;
  Alcotest.(check int) "CTB at capacity" 4 (Ctb.size (Engine.ctb e));
  Alcotest.(check bool) "overflow signalled" true !overflow

(* --- rekey -------------------------------------------------------------- *)

let test_rekey () =
  let e = mk 18L in
  let store : (int64, Ptg_pte.Line.t) Hashtbl.t = Hashtbl.create 8 in
  let line = pte_line () in
  Hashtbl.replace store 0x400L (Engine.process_write e ~addr:0x400L line);
  Hashtbl.replace store 0x440L
    (Engine.process_write e ~addr:0x440L (data_line_unmatched ()));
  let old_stored = Hashtbl.find store 0x400L in
  Engine.rekey e ~rng:(Ptg_util.Rng.create 99L)
    ~iter_lines:(fun visit ->
      Hashtbl.iter (fun addr l -> visit ~addr l) (Hashtbl.copy store))
    ~write:(fun ~addr line -> Hashtbl.replace store addr line);
  let new_stored = Hashtbl.find store 0x400L in
  Alcotest.(check bool) "MAC changed under new key" false
    (Ptg_pte.Line.equal old_stored new_stored);
  (* and the re-embedded line verifies under the new key *)
  (match Engine.process_read e ~addr:0x400L ~is_pte:true new_stored with
  | { Engine.integrity = Engine.Passed; line = Some out; _ } ->
      Alcotest.(check bool) "content preserved across rekey" true
        (Ptg_pte.Line.equal out line)
  | _ -> Alcotest.fail "rekeyed line must verify");
  Alcotest.(check int) "rekey counted" 1 (Engine.stats e).Engine.rekeys

let test_stats_consistency () =
  let e = mk 19L in
  for i = 0 to 9 do
    let addr = Int64.of_int (0x2000 + (i * 64)) in
    let stored = Engine.process_write e ~addr (pte_line ()) in
    ignore (Engine.process_read e ~addr ~is_pte:(i mod 2 = 0) stored)
  done;
  let s = Engine.stats e in
  Alcotest.(check int) "writes" 10 s.Engine.writes_total;
  Alcotest.(check int) "reads" 10 s.Engine.reads_total;
  Alcotest.(check int) "pte reads" 5 s.Engine.reads_pte;
  Alcotest.(check bool) "strips counted" true (s.Engine.macs_stripped = 10)

let suite =
  [
    Alcotest.test_case "write embeds MAC" `Quick test_write_embeds_mac;
    Alcotest.test_case "write data passthrough" `Quick test_write_data_passthrough;
    Alcotest.test_case "write identifier (optimized)" `Quick test_write_optimized_identifier;
    Alcotest.test_case "write mac-zero stat" `Quick test_write_mac_zero_stat;
    Alcotest.test_case "baseline identifier zero" `Quick test_baseline_identifier_is_zero;
    Alcotest.test_case "pte read clean" `Quick test_pte_read_clean;
    Alcotest.test_case "pte read wrong address" `Quick test_pte_read_wrong_address_fails;
    Alcotest.test_case "pte read corrected" `Quick test_pte_read_corrected;
    Alcotest.test_case "pte read failed + event" `Quick test_pte_read_failed_event;
    Alcotest.test_case "accessed bit invisible" `Quick test_accessed_bit_flip_invisible;
    Alcotest.test_case "zero-line PTE read (optimized)" `Quick test_zero_line_pte_read_optimized;
    Alcotest.test_case "data read strips" `Quick test_data_read_protected_stripped;
    Alcotest.test_case "data read passthrough" `Quick test_data_read_passthrough;
    Alcotest.test_case "tampered data raw + bounds" `Quick test_data_read_tampered_forwarded_raw;
    Alcotest.test_case "optimized data skips MAC" `Quick test_optimized_data_read_skips_mac;
    Alcotest.test_case "collision tracked" `Quick test_collision_tracked_and_passthrough;
    Alcotest.test_case "collision cleared by rewrite" `Quick test_collision_cleared_by_rewrite;
    Alcotest.test_case "ctb overflow event" `Quick test_ctb_overflow_event;
    Alcotest.test_case "rekey" `Quick test_rekey;
    Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
  ]
