open Ptg_util
open Ptg_baselines

type outcome_counts = {
  trials : int;
  blocked : int;
  detected : int;
  corrected : int;
  escaped : int;
}

type threat =
  | Pfn_true_cell
  | Pfn_anti_cell
  | Us_bit
  | Random_flips
  | Surgical_forge
  | Relocation_replay

type defense =
  | Undefended
  | Monotonic_pointers
  | Secwalk_edc
  | Pte_encryption
  | Pt_guard

type row = { threat : threat; defense : defense; counts : outcome_counts }
type result = { rows : row list }

type outcome = Blocked | Detected | Corrected | Escaped

let threats =
  [ Pfn_true_cell; Pfn_anti_cell; Us_bit; Random_flips; Surgical_forge; Relocation_replay ]

let threat_name = function
  | Pfn_true_cell -> "PFN flip (true cell, 1->0)"
  | Pfn_anti_cell -> "PFN flip (anti cell, 0->1)"
  | Us_bit -> "U/S privilege-bit flip"
  | Random_flips -> "5 random flips"
  | Surgical_forge -> "surgical forge (keyless)"
  | Relocation_replay -> "PTE relocation/replay"

let defenses = [ Undefended; Monotonic_pointers; Secwalk_edc; Pte_encryption; Pt_guard ]

let defense_name = function
  | Undefended -> "none"
  | Monotonic_pointers -> "Monotonic"
  | Secwalk_edc -> "SecWalk-EDC"
  | Pte_encryption -> "PTE-encryption"
  | Pt_guard -> "PT-Guard"

(* Victim environment shared by all trials: page tables live above the
   watermark frame; the attacker's PTEs point below it. *)
let watermark_pfn = 0x80000L

let make_line rng =
  let base = Int64.add 0x2000L (Int64.of_int (Rng.int rng 0x6000)) in
  Ptg_pte.Line.init (fun i ->
      if Rng.bernoulli rng 0.25 then 0L
      else
        Ptg_pte.X86.make ~writable:true ~user:true
          ~pfn:(Int64.add base (Int64.of_int i))
          ())

(* --- the threats, expressed on (line, target PTE index) ---------------- *)

(* A random one of the low [width] PFN bits that currently reads [value]. *)
let pick_pfn_bit rng pte ~width ~value =
  match List.filter (fun b -> Bits.get pte (12 + b) = value) (List.init width Fun.id) with
  | [] -> None
  | l -> Some (List.nth l (Rng.int rng (List.length l)))

(* --- per-defense evaluation ------------------------------------------- *)

let eval_none ~changed = if changed then Escaped else Blocked

let eval_monotonic_pfn ~pfn_bit ~anti_cell ~pte =
  let mono = Monotonic.create ~watermark_pfn in
  let pfn = Ptg_pte.X86.pfn pte in
  match pfn_bit with
  | None -> Blocked
  | Some bit ->
      if Monotonic.pfn_flip_blocked mono ~pfn ~bit ~anti_cell then Blocked
      else Escaped

let eval_secwalk ~tampered_protected =
  if Secwalk.verify tampered_protected then Escaped else Detected

let eval_ptguard engine ~addr ~original ~faulty_stored =
  let masked = Ptg_pte.Protection.masked_for_mac Ptg_pte.Protection.default in
  match Ptguard.Engine.process_read engine ~addr ~is_pte:true faulty_stored with
  | { Ptguard.Engine.integrity = Ptguard.Engine.Failed; _ } -> Detected
  | { integrity = Ptguard.Engine.Corrected _; line = Some l; _ } ->
      if Ptg_pte.Line.equal (masked l) (masked original) then Corrected else Escaped
  | { integrity = Ptguard.Engine.Passed; line = Some l; _ } ->
      if Ptg_pte.Line.equal (masked l) (masked original) then Blocked else Escaped
  | _ -> Escaped

let run ?(trials = 500) ?(seed = 33L) () =
  let rng = Rng.create seed in
  let engine =
    Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng:(Rng.split rng) ()
  in
  let enc = Encrypted_pte.create ~rng:(Rng.split rng) in
  let addr_counter = ref 0 in
  let cell threat defense =
    let counts = { trials; blocked = 0; detected = 0; corrected = 0; escaped = 0 } in
    let acc = ref counts in
    for _ = 1 to trials do
      incr addr_counter;
      let addr = Int64.of_int (0x5000_0000 + (!addr_counter * 64)) in
      let line = make_line rng in
      let idx =
        let nonzero =
          List.filter (fun i -> not (Int64.equal (Ptg_pte.Line.get line i) 0L)) (List.init 8 Fun.id)
        in
        List.nth nonzero (Rng.int rng (List.length nonzero))
      in
      let pte = Ptg_pte.Line.get line idx in
      (* Build the tampered PTE each defense sees. *)
      let tampered_pte, pfn_bit =
        match threat with
        | Pfn_true_cell -> (
            match pick_pfn_bit rng pte ~width:19 ~value:true with
            | Some b -> (Bits.clear pte (12 + b), Some b)
            | None -> (pte, None))
        | Pfn_anti_cell -> (
            match pick_pfn_bit rng pte ~width:28 ~value:false with
            | Some b -> (Bits.set pte (12 + b), Some b)
            | None -> (pte, None))
        | Us_bit -> (Bits.flip pte 2, None)
        | Random_flips ->
            let p = ref pte in
            for _ = 1 to 5 do
              (* flips across flags and PFN *)
              p := Bits.flip !p (Rng.int rng 40)
            done;
            (!p, None)
        | Surgical_forge ->
            (* attacker-chosen PTE: kernel frame, user-accessible *)
            ( Ptg_pte.X86.make ~writable:true ~user:true
                ~pfn:(Int64.add watermark_pfn 7L) (),
              None )
        | Relocation_replay -> (pte, None)
      in
      let changed = not (Int64.equal tampered_pte pte) in
      let outcome =
        match defense with
        | Undefended -> eval_none ~changed:(changed || threat = Relocation_replay)
        | Monotonic_pointers -> (
            match threat with
            | Pfn_true_cell -> eval_monotonic_pfn ~pfn_bit ~anti_cell:false ~pte
            | Pfn_anti_cell -> eval_monotonic_pfn ~pfn_bit ~anti_cell:true ~pte
            | Surgical_forge | Relocation_replay ->
                (* the OS placement check rejects PFNs above the watermark
                   at map time, but the attacker writes via DRAM, not via
                   the OS *)
                Escaped
            | Us_bit | Random_flips -> eval_none ~changed)
        | Secwalk_edc -> (
            let protected_pte = Secwalk.protect pte in
            match threat with
            | Surgical_forge ->
                eval_secwalk
                  ~tampered_protected:(Secwalk.forge protected_pte ~target:tampered_pte)
            | Relocation_replay ->
                (* a validly protected PTE copied to another slot still
                   verifies: no address binding *)
                eval_secwalk ~tampered_protected:protected_pte
            | Pfn_true_cell | Pfn_anti_cell | Us_bit | Random_flips ->
                if not changed then Blocked
                else
                  let t =
                    Int64.logor
                      (Int64.logand tampered_pte (Bits.mask 40))
                      (Int64.logand protected_pte (Int64.lognot (Bits.mask 40)))
                  in
                  eval_secwalk ~tampered_protected:t)
        | Pte_encryption -> (
            (* No authentication: any physical tampering decrypts to
               garbage that is consumed undetected (counted as escaped —
               the walk proceeds on meaningless PTEs or crashes). *)
            let stored = Encrypted_pte.encrypt_line enc ~addr line in
            let consume faulty =
              match Encrypted_pte.consume enc ~addr ~original:line ~stored:faulty with
              | Encrypted_pte.Intact -> Blocked
              | Encrypted_pte.Garbage_consumed _ -> Escaped
            in
            match threat with
            | Pfn_true_cell | Pfn_anti_cell | Us_bit | Random_flips ->
                if not changed then Blocked
                else
                  (* the attacker's flip lands on ciphertext bits *)
                  consume (Ptg_pte.Line.flip_bit stored ((idx * 64) + 12))
            | Surgical_forge ->
                (* attacker-written bits decrypt to uncontrolled garbage *)
                consume (Ptg_pte.Line.map (fun w -> Int64.logxor w 0x1234L) stored)
            | Relocation_replay -> (
                (* ciphertext replayed at another address: the tweak makes
                   it decrypt to garbage, silently *)
                match
                  Encrypted_pte.consume enc ~addr:(Int64.add addr 0x40L)
                    ~original:line ~stored
                with
                | Encrypted_pte.Intact -> Escaped (* would mean replay worked *)
                | Encrypted_pte.Garbage_consumed _ -> Escaped))
        | Pt_guard -> (
            let stored = Ptguard.Engine.process_write engine ~addr line in
            let forged () =
              (* the tampered PTE lands straight in DRAM *)
              let faulty = Ptg_pte.Line.copy stored in
              Ptg_pte.Line.set faulty idx
                (Int64.logor
                   (Int64.logand tampered_pte (Bits.mask 40))
                   (Int64.logand (Ptg_pte.Line.get stored idx) (Int64.lognot (Bits.mask 40))));
              eval_ptguard engine ~addr ~original:line ~faulty_stored:faulty
            in
            match threat with
            | Surgical_forge -> forged ()
            | Relocation_replay -> (
                (* replay the whole protected line at a different physical
                   address: the MAC tweak catches it *)
                let other = Int64.add addr 0x40L in
                match
                  Ptguard.Engine.process_read engine ~addr:other ~is_pte:true stored
                with
                | { Ptguard.Engine.integrity = Ptguard.Engine.Failed; _ } -> Detected
                | { integrity = Ptguard.Engine.Corrected _; line = Some l; _ } ->
                    (* only acceptable if it reconstructed the line that
                       legitimately belongs at [other] — it cannot, so any
                       correction yielding the replayed content escaped *)
                    let masked =
                      Ptg_pte.Protection.masked_for_mac Ptg_pte.Protection.default
                    in
                    if Ptg_pte.Line.equal (masked l) (masked line) then Escaped
                    else Detected
                | _ -> Escaped)
            | Pfn_true_cell | Pfn_anti_cell | Us_bit | Random_flips ->
                if not changed then Blocked else forged ())
      in
      acc :=
        (match outcome with
        | Blocked -> { !acc with blocked = !acc.blocked + 1 }
        | Detected -> { !acc with detected = !acc.detected + 1 }
        | Corrected -> { !acc with corrected = !acc.corrected + 1 }
        | Escaped -> { !acc with escaped = !acc.escaped + 1 })
    done;
    !acc
  in
  let rows =
    List.concat_map
      (fun threat ->
        List.map (fun defense -> { threat; defense; counts = cell threat defense }) defenses)
      threats
  in
  { rows }

let header = [ "threat"; "defense"; "blocked"; "detected"; "corrected"; "ESCAPED" ]

let to_rows result =
  List.map
    (fun r ->
      let pct n = Table.fpct (100.0 *. float_of_int n /. float_of_int r.counts.trials) in
      [
        threat_name r.threat; defense_name r.defense; pct r.counts.blocked; pct r.counts.detected;
        pct r.counts.corrected; pct r.counts.escaped;
      ])
    result.rows

let to_string result =
  "Prior page-table defenses vs PT-Guard (Sections II-E, VIII-C):\n"
  ^ Table.render ~align:[ Table.Left; Left; Right; Right; Right; Right ] ~header
      (to_rows result)
  ^ "Expected shape: Monotonic only constrains true-cell PFN flips; the\n\
     keyless EDC is forged and replayed at will; encryption denies the\n\
     attacker control but consumes undetected garbage (counted escaped)\n\
     and can correct nothing; PT-Guard never lets a tampered PTE through\n\
     and corrects most faults.\n"

let to_csv result ~path = Table.save_csv ~path ~header (to_rows result)
