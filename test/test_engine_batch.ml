(* Differential tests for Engine.Batch: staging reads and flushing must be
   observably identical — results, stats, trace events — to calling
   [process_read] sequentially in stage order on a twin engine built from
   the same RNG seed. The batch only amortizes cipher work. *)

open Ptguard

let mk ?(config = Config.baseline) seed =
  Engine.create ~config ~rng:(Ptg_util.Rng.create seed) ()

let pte_line salt =
  Array.init 8 (fun i ->
      Ptg_pte.X86.make ~writable:true ~user:(salt mod 2 = 0) ~accessed:(i = salt mod 8)
        ~pfn:(Int64.of_int (0x6000 + (salt * 8) + i))
        ())

let data_line_unmatched () =
  Array.init 8 (fun i -> Int64.logor 0xDEAD_0000_0000_0000L (Int64.of_int i))

let check_result_equal i (a : Engine.read_result) (b : Engine.read_result) =
  let show r =
    match r.Engine.integrity with
    | Engine.Passed -> "Passed"
    | Engine.Corrected { guesses; _ } -> Printf.sprintf "Corrected(%d)" guesses
    | Engine.Failed -> "Failed"
    | Engine.Data_protected -> "Data_protected"
    | Engine.Data_passthrough -> "Data_passthrough"
  in
  if a.Engine.integrity <> b.Engine.integrity then
    Alcotest.failf "read %d: integrity %s vs %s" i (show a) (show b);
  Alcotest.(check int) (Printf.sprintf "read %d extra_latency" i) a.Engine.extra_latency
    b.Engine.extra_latency;
  (match (a.Engine.line, b.Engine.line) with
  | Some la, Some lb ->
      Alcotest.(check bool)
        (Printf.sprintf "read %d forwarded line" i)
        true (Ptg_pte.Line.equal la lb)
  | None, None -> ()
  | _ -> Alcotest.failf "read %d: one side forwarded, the other did not" i);
  Alcotest.(check bool)
    (Printf.sprintf "read %d raw line" i)
    true (Ptg_pte.Line.equal a.Engine.raw_line b.Engine.raw_line)

let check_stats_equal (a : Engine.stats) (b : Engine.stats) =
  Alcotest.(check int) "reads_total" a.Engine.reads_total b.Engine.reads_total;
  Alcotest.(check int) "reads_pte" a.Engine.reads_pte b.Engine.reads_pte;
  Alcotest.(check int) "mac_computations" a.Engine.mac_computations b.Engine.mac_computations;
  Alcotest.(check int) "macs_stripped" a.Engine.macs_stripped b.Engine.macs_stripped;
  Alcotest.(check int) "integrity_failures" a.Engine.integrity_failures
    b.Engine.integrity_failures;
  Alcotest.(check int) "corrections_attempted" a.Engine.corrections_attempted
    b.Engine.corrections_attempted;
  Alcotest.(check int) "corrections_succeeded" a.Engine.corrections_succeeded
    b.Engine.corrections_succeeded

(* Build the read workload on both engines: returns (addr, is_pte, line as
   read from DRAM). Tampering covers the interesting integrity paths:
   clean PTE, single-bit flip (correctable), multi-word corruption
   (failure), protected data read, passthrough data, all-zero line. *)
let build_workload e =
  let reads = ref [] in
  let add r = reads := r :: !reads in
  for salt = 0 to 5 do
    let addr = Int64.of_int (0x1000 + (salt * 64)) in
    let stored = Engine.process_write e ~addr (pte_line salt) in
    (* clean PTE walk *)
    add (addr, true, Array.copy stored);
    (* single-bit flip in a protected word: correctable *)
    let flipped = Array.copy stored in
    flipped.(salt mod 8) <- Int64.logxor flipped.(salt mod 8) (Int64.shift_left 1L (salt * 7 mod 50));
    add (addr, true, flipped);
    (* wholesale corruption: unrecoverable *)
    let smashed = Array.map (fun w -> Int64.logxor w 0x5A5A_5A5A_5A5A_5A5AL) stored in
    add (addr, true, smashed);
    (* data read of the protected line: MAC strip path *)
    add (addr, false, Array.copy stored);
    (* data passthrough *)
    add (addr, false, data_line_unmatched ())
  done;
  (* mac-zero line *)
  let z = Engine.process_write e ~addr:0x8000L (Array.make 8 0L) in
  add (0x8000L, true, z);
  add (0x8000L, false, z);
  List.rev !reads

let run_differential ~config ~capacity () =
  let ea = mk ~config 11L and eb = mk ~config 11L in
  let wa = build_workload ea and wb = build_workload eb in
  Alcotest.(check int) "twin engines see the same workload" (List.length wa)
    (List.length wb);
  (* Oracle: sequential process_read in stage order. *)
  let oracle =
    List.map (fun (addr, is_pte, line) -> Engine.process_read ea ~addr ~is_pte line) wa
  in
  (* Batched: stage everything, flush (auto-flush will fire en route). *)
  let batch = Engine.Batch.create ~capacity eb in
  let got = Array.make (List.length wb) None in
  List.iteri
    (fun i (addr, is_pte, line) ->
      Engine.Batch.stage batch ~addr ~is_pte line (fun r -> got.(i) <- Some r))
    wb;
  Engine.Batch.flush batch;
  Alcotest.(check int) "all callbacks fired" 0 (Engine.Batch.pending batch);
  List.iteri
    (fun i want ->
      match got.(i) with
      | None -> Alcotest.failf "read %d: callback never invoked" i
      | Some r -> check_result_equal i want r)
    oracle;
  check_stats_equal (Engine.stats ea) (Engine.stats eb)

let test_differential_baseline () =
  run_differential ~config:Config.baseline ~capacity:Engine.Batch.default_capacity ()

let test_differential_optimized () =
  run_differential ~config:Config.optimized ~capacity:Engine.Batch.default_capacity ()

let test_differential_ragged_capacities () =
  (* Capacities that do not divide the workload size force auto-flush at
     every boundary plus a ragged final flush. Capacity 1 degenerates to
     the scalar path staged one read at a time. *)
  List.iter (fun capacity -> run_differential ~config:Config.baseline ~capacity ()) [ 1; 3; 7 ]

let test_auto_flush_at_capacity () =
  let e = mk 21L in
  let stored = Engine.process_write e ~addr:0x40L (pte_line 0) in
  let batch = Engine.Batch.create ~capacity:4 e in
  let fired = ref 0 in
  for _ = 1 to 7 do
    Engine.Batch.stage batch ~addr:0x40L ~is_pte:true (Array.copy stored) (fun r ->
        (match r.Engine.integrity with
        | Engine.Passed -> ()
        | _ -> Alcotest.fail "clean staged read must pass");
        incr fired)
  done;
  Alcotest.(check int) "first 4 resolved by auto-flush" 4 !fired;
  Alcotest.(check int) "3 still pending" 3 (Engine.Batch.pending batch);
  Engine.Batch.flush batch;
  Alcotest.(check int) "explicit flush resolves the tail" 7 !fired;
  Engine.Batch.flush batch;
  Alcotest.(check int) "flush on empty batch is a no-op" 7 !fired

let test_stage_copies_line () =
  (* The staged line is copied: mutating the caller's buffer after staging
     must not affect the verification. *)
  let e = mk 22L in
  let stored = Engine.process_write e ~addr:0x40L (pte_line 1) in
  let batch = Engine.Batch.create ~capacity:8 e in
  let buf = Array.copy stored in
  let result = ref None in
  Engine.Batch.stage batch ~addr:0x40L ~is_pte:true buf (fun r -> result := Some r);
  Array.fill buf 0 8 0xFFFF_FFFFL;
  Engine.Batch.flush batch;
  match !result with
  | Some { Engine.integrity = Engine.Passed; _ } -> ()
  | _ -> Alcotest.fail "mutation after stage must not corrupt the staged read"

let suite =
  [
    Alcotest.test_case "batch = sequential oracle (baseline)" `Quick
      test_differential_baseline;
    Alcotest.test_case "batch = sequential oracle (optimized)" `Quick
      test_differential_optimized;
    Alcotest.test_case "batch = oracle at ragged capacities" `Quick
      test_differential_ragged_capacities;
    Alcotest.test_case "auto-flush at capacity" `Quick test_auto_flush_at_capacity;
    Alcotest.test_case "stage copies the line" `Quick test_stage_copies_line;
  ]
