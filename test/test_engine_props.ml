(* Property tests over the engine's end-to-end invariants, driven by the
   realistic process-model line population and by adversarial random data. *)

open Ptguard

let engine_of ~design seed =
  let config = match design with `B -> Config.baseline | `O -> Config.optimized in
  Engine.create ~config ~rng:(Ptg_util.Rng.create seed) ()

(* A pool of realistic PTE cachelines shared across properties. *)
let line_pool =
  lazy
    (let rng = Ptg_util.Rng.create 314L in
     let params =
       { (Ptg_vm.Process_model.draw_params rng) with Ptg_vm.Process_model.target_ptes = 8192 }
     in
     Ptg_vm.Process_model.leaf_lines rng params)

let gen_pool_line =
  QCheck2.Gen.map
    (fun i ->
      let pool = Lazy.force line_pool in
      Ptg_pte.Line.copy pool.(i mod Array.length pool))
    QCheck2.Gen.(int_bound 100_000)

let gen_addr =
  QCheck2.Gen.map
    (fun a -> Int64.mul 64L (Int64.of_int (1 + abs (a mod 1_000_000))))
    QCheck2.Gen.int

let masked = Config.masked_for_mac Config.baseline

let prop_roundtrip_baseline =
  QCheck2.Test.make ~name:"write/read roundtrip restores any PTE line (baseline)"
    ~count:60
    QCheck2.Gen.(pair gen_pool_line gen_addr)
    (fun (line, addr) ->
      let e = engine_of ~design:`B 1L in
      let stored = Engine.process_write e ~addr line in
      match Engine.process_read e ~addr ~is_pte:true stored with
      | { Engine.integrity = Engine.Passed; line = Some out; _ } ->
          Ptg_pte.Line.equal out line
      | _ -> false)

let prop_roundtrip_optimized =
  QCheck2.Test.make ~name:"write/read roundtrip restores any PTE line (optimized)"
    ~count:60
    QCheck2.Gen.(pair gen_pool_line gen_addr)
    (fun (line, addr) ->
      let e = engine_of ~design:`O 2L in
      let stored = Engine.process_write e ~addr line in
      match Engine.process_read e ~addr ~is_pte:true stored with
      | { Engine.integrity = Engine.Passed; line = Some out; _ } ->
          Ptg_pte.Line.equal out line
      | _ -> false)

let prop_data_reads_preserve_content =
  (* Whatever a data read forwards, the program-visible content equals
     what was written: either the MAC was stripped (protected line) or the
     line passed through untouched. *)
  QCheck2.Test.make ~name:"data write/read never alters program-visible data"
    ~count:80
    QCheck2.Gen.(triple (array_size (QCheck2.Gen.return 8) int64) gen_addr bool)
    (fun (words, addr, optimized) ->
      let line = Ptg_pte.Line.of_words words in
      let e = engine_of ~design:(if optimized then `O else `B) 3L in
      let stored = Engine.process_write e ~addr line in
      match Engine.process_read e ~addr ~is_pte:false stored with
      | { Engine.line = Some out; _ } -> Ptg_pte.Line.equal out line
      | { Engine.line = None; _ } -> false)

let prop_no_silent_consumption =
  (* The core invariant under arbitrary damage: a PTE read either passes
     with the protected content intact, corrects faithfully, or fails —
     never forwards altered protected bits. *)
  QCheck2.Test.make ~name:"tampered protected bits never consumed on walks"
    ~count:60
    QCheck2.Gen.(triple gen_pool_line gen_addr (int_range 1 20))
    (fun (line, addr, nflips) ->
      let e = engine_of ~design:`O 4L in
      let stored = Engine.process_write e ~addr line in
      let rng = Ptg_util.Rng.create (Int64.of_int nflips) in
      let faulty, _ = Ptg_rowhammer.Inject.flip_exactly rng ~n:nflips stored in
      match Engine.process_read e ~addr ~is_pte:true faulty with
      | { Engine.integrity = Engine.Passed; line = Some out; _ }
      | { Engine.integrity = Engine.Corrected _; line = Some out; _ } ->
          Ptg_pte.Line.equal (masked out) (masked line)
      | { Engine.integrity = Engine.Failed; line = None; _ } -> true
      | _ -> false)

let prop_verify_only_agrees_with_engine =
  QCheck2.Test.make ~name:"verify_only matches the engine's clean-read verdict"
    ~count:50
    QCheck2.Gen.(pair gen_pool_line gen_addr)
    (fun (line, addr) ->
      let e = engine_of ~design:`B 5L in
      let stored = Engine.process_write e ~addr line in
      Correction.verify_only Config.baseline (Engine.key e) ~addr stored)

let prop_stats_monotone =
  QCheck2.Test.make ~name:"reads_total counts every process_read" ~count:30
    QCheck2.Gen.(int_range 1 20)
    (fun n ->
      let e = engine_of ~design:`B 6L in
      let line = Ptg_pte.Line.create () in
      for i = 1 to n do
        ignore (Engine.process_read e ~addr:(Int64.of_int (i * 64)) ~is_pte:false line)
      done;
      (Engine.stats e).Engine.reads_total = n)


(* {2 The MAC memo against a cold engine}

   One long-lived engine runs a random sequence of operations. Before each
   one, a cold engine (empty memo) is rebuilt from the long-lived engine's
   [state]; both run the operation and must agree on every result, every
   stored line and the whole state, stats included. *)

let memo_seed = 77L

(* The memo is direct-mapped on the line address: 0x1000 and
   0x1000 + 2^32 (and 0x1040 and 0x1040 + 2^32) share a slot for any
   power-of-two slot count up to 2^26. *)
let memo_addrs =
  [| 0x1000L; 0x1040L; Int64.add 0x1000L 0x1_0000_0000L; Int64.add 0x1040L 0x1_0000_0000L;
     0x2000L |]

let pte_line salt =
  Ptg_pte.Line.init (fun i ->
      Ptg_pte.X86.make ~writable:true ~user:(salt mod 2 = 0) ~accessed:(i = salt)
        ~pfn:(Int64.of_int (0x6000 + (salt * 8) + i))
        ())

type op =
  | Write_pte of int * int  (** address index, content salt *)
  | Write_data of int * int64  (** address index, fill word *)
  | Write_stored of int * int  (** write address j's stored bits to address i as data *)
  | Read of int * bool  (** address index, is_pte *)
  | Data_read of int  (** through [process_data_read] *)
  | Flip of int * int list  (** stored-line bits to flip *)
  | Rekey of int64
  | Capture
  | Restore  (** [set_state] back to the last [Capture] *)

let show_op = function
  | Write_pte (i, s) -> Printf.sprintf "Write_pte(%d,%d)" i s
  | Write_data (i, w) -> Printf.sprintf "Write_data(%d,%Lx)" i w
  | Write_stored (i, j) -> Printf.sprintf "Write_stored(%d,%d)" i j
  | Read (i, p) -> Printf.sprintf "Read(%d,%b)" i p
  | Data_read i -> Printf.sprintf "Data_read(%d)" i
  | Flip (i, bits) ->
      Printf.sprintf "Flip(%d,[%s])" i (String.concat ";" (List.map string_of_int bits))
  | Rekey s -> Printf.sprintf "Rekey(%Ld)" s
  | Capture -> "Capture"
  | Restore -> "Restore"

let gen_op =
  let idx = QCheck2.Gen.int_bound (Array.length memo_addrs - 1) in
  QCheck2.Gen.(
    frequency
      [
        (3, map2 (fun i s -> Write_pte (i, s)) idx (int_bound 3));
        (1, map2 (fun i w -> Write_data (i, w)) idx int64);
        (1, map2 (fun i j -> Write_stored (i, j)) idx idx);
        (4, map2 (fun i p -> Read (i, p)) idx bool);
        (1, map (fun i -> Data_read i) idx);
        (2, map2 (fun i bits -> Flip (i, bits)) idx (list_size (int_range 1 3) (int_bound 511)));
        (1, map (fun s -> Rekey s) int64);
        (1, return Capture);
        (1, return Restore);
      ])

(* Every design x MAC width x layout: the memo holds truncated MACs and
   masks lines with the layout's protected bits, so each must be covered. *)
let memo_configs =
  List.concat_map
    (fun design ->
      List.concat_map
        (fun bits ->
          List.map
            (fun layout -> Config.with_layout (Config.with_mac_bits design bits) layout)
            [ Layout.default; Layout.armv8 () ])
        [ 96; 64 ])
    [ Config.baseline; Config.optimized ]
  |> Array.of_list

let run_memo_case (c, ops) =
  let config = memo_configs.(c) in
  let fresh () = Engine.create ~config ~rng:(Ptg_util.Rng.create memo_seed) () in
  let long = fresh () in
  let memory = Hashtbl.create 8 in
  let stored i = Option.value ~default:(Ptg_pte.Line.create ()) (Hashtbl.find_opt memory i) in
  let captured = ref None in
  let step op =
    let cold = fresh () in
    Engine.set_state cold (Engine.state long);
    let write i line =
      let addr = memo_addrs.(i) in
      let a = Engine.process_write long ~addr line and b = Engine.process_write cold ~addr line in
      Hashtbl.replace memory i a;
      Ptg_pte.Line.equal a b
    in
    let agree =
      match op with
      | Write_pte (i, salt) -> write i (pte_line salt)
      | Write_data (i, w) -> write i (Ptg_pte.Line.init (fun k -> Int64.add w (Int64.of_int k)))
      | Write_stored (i, j) -> write i (Ptg_pte.Line.copy (stored j))
      | Read (i, is_pte) ->
          let addr = memo_addrs.(i) in
          Engine.process_read long ~addr ~is_pte (stored i)
          = Engine.process_read cold ~addr ~is_pte (stored i)
      | Data_read i ->
          let addr = memo_addrs.(i) in
          let data, latency = Engine.process_data_read long ~addr (stored i) in
          let r = Engine.process_read cold ~addr ~is_pte:false (stored i) in
          r.Engine.line = Some data && r.Engine.extra_latency = latency
      | Flip (i, bits) ->
          Hashtbl.replace memory i (List.fold_left Ptg_pte.Line.flip_bit (stored i) bits);
          true
      | Rekey seed ->
          let rekey e =
            let out = ref [] in
            let lines =
              List.sort compare (Hashtbl.fold (fun i l acc -> (i, l) :: acc) memory [])
            in
            Engine.rekey e ~rng:(Ptg_util.Rng.create seed)
              ~iter_lines:(fun visit ->
                List.iter (fun (i, l) -> visit ~addr:memo_addrs.(i) l) lines)
              ~write:(fun ~addr l -> out := (addr, l) :: !out);
            List.rev !out
          in
          let a = rekey long and b = rekey cold in
          List.iter
            (fun (addr, l) ->
              let i = ref 0 in
              while memo_addrs.(!i) <> addr do incr i done;
              Hashtbl.replace memory !i l)
            a;
          a = b
      | Capture ->
          captured := Some (Engine.state long);
          true
      | Restore ->
          Option.iter (fun s -> Engine.set_state long s; Engine.set_state cold s) !captured;
          true
    in
    agree && Engine.state long = Engine.state cold
  in
  List.for_all step ops

let prop_memo_matches_cold_engine =
  QCheck2.Test.make ~name:"memo: long-lived engine = cold engine per op" ~count:150
    ~print:(fun (c, ops) ->
      Format.asprintf "%a: %s" Config.pp memo_configs.(c)
        (String.concat " " (List.map show_op ops)))
    QCheck2.Gen.(
      pair (int_bound (Array.length memo_configs - 1)) (list_size (int_range 1 40) gen_op))
    run_memo_case

(* {2 Chunk reuse against the MAC itself}

   A miss at the address a memo slot already holds re-enciphers only the
   chunks whose masked words changed. Every protected write's embedded
   MAC must equal [Mac.compute] of the masked line under the engine's
   current key, whatever the memo held: one word or several changed,
   the same line written again, two addresses 64 KiB apart sharing a
   slot, a rekey in between. *)

module Mac = Ptg_crypto.Mac

(* 0x1000 and 0x11000 (and 0x1040 and 0x11040) share a slot of the
   1024-slot memo. *)
let chunk_addrs = [| 0x1000L; 0x1040L; 0x11000L; 0x11040L; 0x2000L |]

type chunk_op =
  | Set_words of int * (int * int64) list  (** address index, (word, value)s *)
  | Rewrite of int  (** write the address's line again, unchanged *)
  | Verify of int  (** a page-walk read of the stored line *)
  | Rekey_all of int64

let show_chunk_op = function
  | Set_words (i, ws) ->
      Printf.sprintf "Set_words(%d,[%s])" i
        (String.concat ";" (List.map (fun (w, v) -> Printf.sprintf "%d:%Lx" w v) ws))
  | Rewrite i -> Printf.sprintf "Rewrite(%d)" i
  | Verify i -> Printf.sprintf "Verify(%d)" i
  | Rekey_all s -> Printf.sprintf "Rekey_all(%Ld)" s

let gen_chunk_op =
  let idx = QCheck2.Gen.int_bound (Array.length chunk_addrs - 1) in
  let word = QCheck2.Gen.(pair (int_bound 7) (oneof [ return 0L; int64 ])) in
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun i w -> Set_words (i, [ w ])) idx word);
        (2, map2 (fun i ws -> Set_words (i, ws)) idx (list_size (int_range 2 8) word));
        (2, map (fun i -> Rewrite i) idx);
        (2, map (fun i -> Verify i) idx);
        (1, map (fun s -> Rekey_all s) int64);
      ])

let chunk_configs =
  Array.of_list
    (List.concat_map
       (fun design -> List.map (Config.with_layout design) [ Layout.default; Layout.armv8 () ])
       [ Config.baseline; Config.optimized ])

let run_chunk_case (c, ops) =
  let config = chunk_configs.(c) in
  let module L = (val config.Config.layout : Layout.S) in
  let e = Engine.create ~config ~rng:(Ptg_util.Rng.create 91L) () in
  let n = Array.length chunk_addrs in
  (* The kernel's view of each line, and what DRAM holds. *)
  let logical = Array.init n (fun _ -> Ptg_pte.Line.create ()) in
  let stored = Array.init n (fun _ -> None) in
  (* Words that keep the line a protected write: every spare field clear. *)
  let spare = Int64.logor L.mac_field_mask L.identifier_field_mask in
  let mac_of ~addr line =
    let width = config.Config.mac_bits in
    if config.Config.design = Config.Optimized && Ptg_pte.Line.is_zero line then
      Mac.truncate ~width (Mac.compute_zero (Engine.key e))
    else Mac.truncate ~width (Mac.compute (Engine.key e) ~addr (L.masked_for_mac line))
  in
  let write i =
    let addr = chunk_addrs.(i) in
    let s = Engine.process_write e ~addr logical.(i) in
    stored.(i) <- Some s;
    Mac.equal (L.extract_mac s) (mac_of ~addr logical.(i))
  in
  let step = function
    | Set_words (i, ws) ->
        List.iter
          (fun (w, v) ->
            Ptg_pte.Line.set logical.(i) w (Int64.logand v (Int64.lognot spare)))
          ws;
        write i
    | Rewrite i -> write i
    | Verify i -> (
        match stored.(i) with
        | None -> true
        | Some s ->
            (Engine.process_read e ~addr:chunk_addrs.(i) ~is_pte:true s).Engine.integrity
            = Engine.Passed)
    | Rekey_all seed ->
        (* The rekey sweep's own output is the cold-engine property's
           business; here every slot must be forgotten, so the writes
           after it are checked under the new key, and [Verify] only
           reads lines written since. *)
        Engine.rekey e ~rng:(Ptg_util.Rng.create seed)
          ~iter_lines:(fun visit ->
            Array.iteri
              (fun i s -> Option.iter (fun s -> visit ~addr:chunk_addrs.(i) s) s)
              stored)
          ~write:(fun ~addr:_ _ -> ());
        Array.fill stored 0 n None;
        true
  in
  List.for_all step ops

let prop_memo_chunks_match_mac =
  QCheck2.Test.make ~name:"memo: chunk reuse = Mac.compute over write sequences" ~count:200
    ~print:(fun (c, ops) ->
      Format.asprintf "%a: %s" Config.pp chunk_configs.(c)
        (String.concat " " (List.map show_chunk_op ops)))
    QCheck2.Gen.(
      pair (int_bound (Array.length chunk_configs - 1)) (list_size (int_range 1 60) gen_chunk_op))
    run_chunk_case

let expect_integrity name want (r : Engine.read_result) =
  if r.Engine.integrity <> want then Alcotest.failf "%s: unexpected integrity" name

let test_memo_key_change () =
  let addr = 0x3000L in
  let line = pte_line 1 in
  let move_by_set_state e =
    Engine.set_state e (Engine.state (engine_of ~design:`B 43L))
  in
  let move_by_rekey e =
    Engine.rekey e ~rng:(Ptg_util.Rng.create 44L) ~iter_lines:(fun _ -> ())
      ~write:(fun ~addr:_ _ -> ())
  in
  List.iter
    (fun (how, move) ->
      let e = engine_of ~design:`B 42L in
      let stored = Engine.process_write e ~addr line in
      expect_integrity (how ^ ": key A walk") Engine.Passed
        (Engine.process_read e ~addr ~is_pte:true stored);
      expect_integrity (how ^ ": key A data") Engine.Data_protected
        (Engine.process_read e ~addr ~is_pte:false stored);
      move e;
      expect_integrity (how ^ ": key B walk") Engine.Failed
        (Engine.process_read e ~addr ~is_pte:true stored);
      expect_integrity (how ^ ": key B data") Engine.Data_passthrough
        (Engine.process_read e ~addr ~is_pte:false stored))
    [ ("set_state", move_by_set_state); ("rekey", move_by_rekey) ]

let test_memo_colliding_addresses () =
  let a = memo_addrs.(0) and b = memo_addrs.(2) in
  let e = engine_of ~design:`O 45L in
  for salt = 0 to 3 do
    let line = pte_line salt in
    let sa = Engine.process_write e ~addr:a line in
    let sb = Engine.process_write e ~addr:b line in
    Alcotest.(check bool) "same content, different MACs" false (Ptg_pte.Line.equal sa sb);
    for _ = 1 to 2 do
      expect_integrity "a at a" Engine.Passed (Engine.process_read e ~addr:a ~is_pte:true sa);
      expect_integrity "b at a" Engine.Failed (Engine.process_read e ~addr:a ~is_pte:true sb);
      expect_integrity "b at b" Engine.Passed (Engine.process_read e ~addr:b ~is_pte:true sb);
      expect_integrity "a at b" Engine.Failed (Engine.process_read e ~addr:b ~is_pte:true sa)
    done
  done

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip_baseline;
      prop_roundtrip_optimized;
      prop_data_reads_preserve_content;
      prop_no_silent_consumption;
      prop_verify_only_agrees_with_engine;
      prop_stats_monotone;
      prop_memo_matches_cold_engine;
      prop_memo_chunks_match_mac;
    ]
  @ [
      Alcotest.test_case "memo: key change drops MACs" `Quick test_memo_key_change;
      Alcotest.test_case "memo: colliding addresses" `Quick test_memo_colliding_addresses;
    ]
