open Ptg_cpu

let tiny = { Cache.size_bytes = 512; assoc = 2; line_bytes = 64; latency = 3 }
(* 512 B / (2 * 64) = 4 sets *)

(* Hit, or a miss carrying the dirty victim's line address if the fill
   evicted one, read off the access_fast writeback protocol. *)
type outcome = Hit | Miss of int64 option

let access c ~addr ~is_write =
  if Cache.access_fast c ~addr ~is_write then Hit
  else Miss (if Cache.writeback_pending c then Some (Cache.writeback_addr c) else None)

let is_hit = function Hit -> true | Miss _ -> false

let test_geometry_validation () =
  Alcotest.check_raises "bad geometry"
    (Invalid_argument "Cache.create: geometry does not divide") (fun () ->
      ignore (Cache.create { tiny with Cache.size_bytes = 500 }))

let test_miss_then_hit () =
  let c = Cache.create tiny in
  Alcotest.(check bool) "cold miss" false (is_hit (access c ~addr:0L ~is_write:false));
  Alcotest.(check bool) "then hit" true (is_hit (access c ~addr:0L ~is_write:false));
  Alcotest.(check bool) "same line hit" true
    (is_hit (access c ~addr:63L ~is_write:false));
  Alcotest.(check bool) "next line miss" false
    (is_hit (access c ~addr:64L ~is_write:false))

let test_lru_eviction () =
  let c = Cache.create tiny in
  (* 4 sets: addresses 0, 256, 512 all map to set 0 (line/4 mod 4). *)
  let set0 n = Int64.of_int (n * 4 * 64) in
  ignore (access c ~addr:(set0 0) ~is_write:false);
  ignore (access c ~addr:(set0 1) ~is_write:false);
  (* touch 0 so 1 becomes LRU *)
  ignore (access c ~addr:(set0 0) ~is_write:false);
  ignore (access c ~addr:(set0 2) ~is_write:false) (* evicts 1 *);
  Alcotest.(check bool) "0 survives" true (Cache.probe c ~addr:(set0 0));
  Alcotest.(check bool) "1 evicted" false (Cache.probe c ~addr:(set0 1));
  Alcotest.(check bool) "2 present" true (Cache.probe c ~addr:(set0 2))

let test_writeback () =
  let c = Cache.create tiny in
  let set0 n = Int64.of_int (n * 4 * 64) in
  ignore (access c ~addr:(set0 0) ~is_write:true) (* dirty *);
  ignore (access c ~addr:(set0 1) ~is_write:false);
  (match access c ~addr:(set0 2) ~is_write:false with
  | Miss (Some addr) ->
      Alcotest.(check int64) "dirty victim address" (set0 0) addr
  | Miss None -> Alcotest.fail "expected writeback"
  | Hit -> Alcotest.fail "expected miss");
  (* clean eviction has no writeback *)
  match access c ~addr:(set0 3) ~is_write:false with
  | Miss None -> ()
  | _ -> Alcotest.fail "expected clean miss"

let test_probe_no_side_effect () =
  let c = Cache.create tiny in
  Alcotest.(check bool) "probe miss" false (Cache.probe c ~addr:0L);
  Alcotest.(check int) "probe not counted" 0 (Cache.accesses c)

let test_invalidate () =
  let c = Cache.create tiny in
  ignore (access c ~addr:0L ~is_write:false);
  Cache.invalidate c ~addr:0L;
  Alcotest.(check bool) "gone" false (Cache.probe c ~addr:0L)

let test_stats () =
  let sink = Ptg_obs.Sink.create () in
  let c = Cache.create ~obs:sink ~name:"l1" tiny in
  ignore (access c ~addr:0L ~is_write:false);
  ignore (access c ~addr:0L ~is_write:false);
  Alcotest.(check int) "accesses" 2 (Cache.accesses c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  Alcotest.(check (float 1e-9)) "miss rate" 0.5 (Cache.miss_rate c);
  (* The registry reads the cache's own counts. *)
  let exported name =
    Ptg_obs.Registry.find (Ptg_obs.Sink.metrics sink) (Printf.sprintf {|cache_%s{cache="l1"}|} name)
  in
  Alcotest.(check (option (float 0.0))) "exported accesses" (Some 2.0) (exported "accesses");
  Alcotest.(check (option (float 0.0))) "exported misses" (Some 1.0) (exported "misses")

let test_presets_sizes () =
  (* Table III *)
  Alcotest.(check int) "L1 32K" (32 * 1024) Cache.l1d_32k.Cache.size_bytes;
  Alcotest.(check int) "L1 8-way" 8 Cache.l1d_32k.Cache.assoc;
  Alcotest.(check int) "L2 256K" (256 * 1024) Cache.l2_256k.Cache.size_bytes;
  Alcotest.(check int) "L2 16-way" 16 Cache.l2_256k.Cache.assoc;
  Alcotest.(check int) "L3 2M" (2 * 1024 * 1024) Cache.l3_2m.Cache.size_bytes;
  Alcotest.(check int) "MMU 8K" (8 * 1024) Cache.mmu_8k.Cache.size_bytes;
  Alcotest.(check int) "MMU 4-way" 4 Cache.mmu_8k.Cache.assoc

let test_pow2_validation () =
  Alcotest.check_raises "non-pow2 set count"
    (Invalid_argument "Cache.create: set count must be a power of two") (fun () ->
      ignore (Cache.create { Cache.size_bytes = 384; assoc = 2; line_bytes = 64; latency = 1 }));
  Alcotest.check_raises "non-pow2 line size"
    (Invalid_argument "Cache.create: line_bytes must be a power of two") (fun () ->
      ignore (Cache.create { Cache.size_bytes = 384; assoc = 2; line_bytes = 48; latency = 1 }))

let test_access_fast_protocol () =
  let c = Cache.create tiny in
  let set0 n = Int64.of_int (n * 4 * 64) in
  Alcotest.(check bool) "cold miss" false (Cache.access_fast c ~addr:(set0 0) ~is_write:true);
  Alcotest.(check bool) "no writeback on cold miss" false (Cache.writeback_pending c);
  Alcotest.(check bool) "then hit" true (Cache.access_fast c ~addr:(set0 0) ~is_write:false);
  ignore (Cache.access_fast c ~addr:(set0 1) ~is_write:false);
  Alcotest.(check bool) "conflict miss" false (Cache.access_fast c ~addr:(set0 2) ~is_write:false);
  Alcotest.(check bool) "dirty victim published" true (Cache.writeback_pending c);
  Alcotest.(check int64) "victim line address" (set0 0) (Cache.writeback_addr c);
  Alcotest.(check bool) "next access clears it" true
    (Cache.access_fast c ~addr:(set0 2) ~is_write:false);
  Alcotest.(check bool) "cleared" false (Cache.writeback_pending c)

(* The shift/mask address split must agree with the div/rem chain it
   replaced. A direct-mapped cache makes the split observable through the
   public API: hit iff same line, dirty-conflict writeback iff same set,
   and the writeback address reconstructs the victim's line address. *)
let gen_addr =
  QCheck2.Gen.map (fun x -> Int64.shift_right_logical x 1) QCheck2.Gen.int64

let prop_split_matches_divrem =
  QCheck2.Test.make ~name:"shift/mask address split agrees with div/rem" ~count:1000
    QCheck2.Gen.(pair gen_addr gen_addr)
    (fun (a1, a2) ->
      let c =
        Cache.create { Cache.size_bytes = 1024; assoc = 1; line_bytes = 64; latency = 1 }
      in
      ignore (access c ~addr:a1 ~is_write:true);
      let line1 = Int64.div a1 64L and line2 = Int64.div a2 64L in
      let set1 = Int64.rem line1 16L and set2 = Int64.rem line2 16L in
      match access c ~addr:a2 ~is_write:false with
      | Hit -> Int64.equal line1 line2
      | Miss (Some wb) ->
          (not (Int64.equal line1 line2))
          && Int64.equal set1 set2
          && Int64.equal wb (Int64.mul line1 64L)
      | Miss None -> not (Int64.equal set1 set2))

let test_tlb () =
  let t = Tlb.create ~entries:2 () in
  Alcotest.(check bool) "cold miss" false (Tlb.lookup t ~vpn:1L);
  Tlb.fill t ~vpn:1L;
  Alcotest.(check bool) "hit after fill" true (Tlb.lookup t ~vpn:1L);
  Tlb.fill t ~vpn:2L;
  (* touch 1 so 2 is LRU, then fill 3: 2 evicted *)
  ignore (Tlb.lookup t ~vpn:1L);
  Tlb.fill t ~vpn:3L;
  Alcotest.(check bool) "1 kept" true (Tlb.lookup t ~vpn:1L);
  Alcotest.(check bool) "2 evicted" false (Tlb.lookup t ~vpn:2L);
  Tlb.flush t;
  Alcotest.(check bool) "flush clears" false (Tlb.lookup t ~vpn:1L);
  Alcotest.(check bool) "miss rate sensible" true (Tlb.miss_rate t > 0.0);
  Alcotest.(check (pair int int)) "hits, misses" (3, 3) (Tlb.hits t, Tlb.misses t)

let test_tlb_fill_idempotent () =
  let t = Tlb.create ~entries:4 () in
  Tlb.fill t ~vpn:9L;
  Tlb.fill t ~vpn:9L;
  Tlb.fill t ~vpn:10L;
  Tlb.fill t ~vpn:11L;
  Tlb.fill t ~vpn:12L;
  (* all four distinct vpns must still fit: the duplicate fill must not
     have consumed a second entry *)
  Alcotest.(check bool) "9 present" true (Tlb.lookup t ~vpn:9L);
  Alcotest.(check bool) "12 present" true (Tlb.lookup t ~vpn:12L)

let suite =
  [
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "writeback" `Quick test_writeback;
    Alcotest.test_case "probe side-effect-free" `Quick test_probe_no_side_effect;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "Table III presets" `Quick test_presets_sizes;
    Alcotest.test_case "power-of-two validation" `Quick test_pow2_validation;
    Alcotest.test_case "access_fast writeback protocol" `Quick test_access_fast_protocol;
    QCheck_alcotest.to_alcotest prop_split_matches_divrem;
    Alcotest.test_case "tlb" `Quick test_tlb;
    Alcotest.test_case "tlb fill idempotent" `Quick test_tlb_fill_idempotent;
  ]
