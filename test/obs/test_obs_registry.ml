(* Unit tests for the metrics registry: handle resolution, the snapshot
   algebra, and the deterministic exporters. *)

open Ptg_obs

let find_exn snap key =
  match Registry.find snap key with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing from snapshot" key

let test_counter_basics () =
  let reg = Registry.create () in
  let c = Registry.counter reg "hits" in
  Alcotest.(check int) "fresh counter" 0 (Registry.counter_value c);
  Registry.incr c;
  Registry.incr c;
  Registry.add c 40;
  Alcotest.(check int) "after updates" 42 (Registry.counter_value c);
  (* Get-or-create: same key resolves to the same cell. *)
  let c' = Registry.counter reg "hits" in
  Registry.incr c';
  Alcotest.(check int) "shared cell" 43 (Registry.counter_value c);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Registry.add: counters are monotonic") (fun () ->
      Registry.add c (-1))

let test_labels () =
  let reg = Registry.create () in
  let a = Registry.counter reg ~labels:[ ("cache", "l1") ] "accesses" in
  let b = Registry.counter reg ~labels:[ ("cache", "l2") ] "accesses" in
  Registry.incr a;
  Registry.incr b;
  Registry.incr b;
  let snap = Registry.snapshot reg in
  Alcotest.(check (float 0.0))
    "l1" 1.0
    (find_exn snap {|accesses{cache="l1"}|});
  Alcotest.(check (float 0.0))
    "l2" 2.0
    (find_exn snap {|accesses{cache="l2"}|});
  (* Label order must not matter: sorted at key-construction time. *)
  let x = Registry.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "m" in
  let y = Registry.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "m" in
  Registry.incr x;
  Registry.incr y;
  Alcotest.(check int) "sorted labels share a cell" 2 (Registry.counter_value x)

let test_kind_conflict () =
  let reg = Registry.create () in
  let (_ : Registry.counter) = Registry.counter reg "m" in
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument "Registry.gauge: m is not a gauge") (fun () ->
      ignore (Registry.gauge reg "m"))

let test_gauge () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "temp" in
  Registry.set_gauge g 3.5;
  Alcotest.(check (float 0.0)) "gauge value" 3.5 (Registry.gauge_value g);
  Registry.set_gauge g (-1.0);
  Alcotest.(check (float 0.0))
    "gauge in snapshot" (-1.0)
    (find_exn (Registry.snapshot reg) "temp")

let test_histogram () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~buckets:[| 10.0; 100.0 |] "lat" in
  List.iter (Registry.observe h) [ 5.0; 10.0; 50.0; 1000.0 ];
  let snap = Registry.snapshot reg in
  Alcotest.(check (float 0.0)) "count" 4.0 (find_exn snap "lat_count");
  Alcotest.(check (float 0.0)) "sum" 1065.0 (find_exn snap "lat_sum");
  (* Cumulative buckets: le_10 counts 5.0 and the boundary value 10.0. *)
  Alcotest.(check (float 0.0)) "le_10" 2.0 (find_exn snap "lat_le_10");
  Alcotest.(check (float 0.0)) "le_100" 3.0 (find_exn snap "lat_le_100");
  Alcotest.(check (float 0.0)) "le_inf" 4.0 (find_exn snap "lat_le_inf");
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Registry.histogram: buckets must strictly increase")
    (fun () -> ignore (Registry.histogram reg ~buckets:[| 5.0; 5.0 |] "bad"))

let test_snapshot_algebra () =
  let reg = Registry.create () in
  let a = Registry.counter reg "a" and b = Registry.counter reg "b" in
  Registry.add a 3;
  let early = Registry.snapshot reg in
  Registry.add a 2;
  Registry.add b 7;
  let late = Registry.snapshot reg in
  let d = Registry.diff late early in
  Alcotest.(check (float 0.0)) "diff a" 2.0 (find_exn d "a");
  Alcotest.(check (float 0.0)) "diff b" 7.0 (find_exn d "b");
  let m = Registry.merge early d in
  Alcotest.(check bool) "early + diff = late" true (Registry.equal m late);
  (* Rows are sorted by key: the exporters inherit byte-stability. *)
  let keys = List.map fst (Registry.rows late) in
  Alcotest.(check (list string)) "sorted rows" (List.sort compare keys) keys

let test_reset_and_absorb () =
  let parent = Registry.create () in
  let child = Registry.create () in
  let pc = Registry.counter parent "n" in
  let cc = Registry.counter child "n" in
  Registry.add pc 10;
  Registry.add cc 5;
  Registry.absorb parent (Registry.snapshot child);
  Alcotest.(check (float 0.0))
    "absorb sums pointwise" 15.0
    (find_exn (Registry.snapshot parent) "n");
  Registry.reset parent;
  Alcotest.(check (float 0.0))
    "reset zeroes and drops absorbed" 0.0
    (find_exn (Registry.snapshot parent) "n");
  (* Handles survive a reset. *)
  Registry.incr pc;
  Alcotest.(check int) "handle valid after reset" 1 (Registry.counter_value pc)

let test_exports () =
  let reg = Registry.create () in
  Registry.add (Registry.counter reg "b") 2;
  Registry.add (Registry.counter reg "a") 1;
  let snap = Registry.snapshot reg in
  Alcotest.(check string)
    "csv" "metric,value\na,1\nb,2\n" (Registry.to_csv snap);
  Alcotest.(check string)
    "jsonl" "{\"metric\":\"a\",\"value\":1}\n{\"metric\":\"b\",\"value\":2}\n"
    (Registry.to_jsonl snap);
  Alcotest.(check string)
    "json escaping" {|a\"b\\c|} (Ptg_util.Json.escape {|a"b\c|})

let test_sources () =
  let reg = Registry.create () in
  let a = ref 3 and b = ref 4 in
  Registry.source reg "events" (fun () -> !a);
  (* Several owners under one key sum, with the key's own increments. *)
  Registry.source reg "events" (fun () -> !b);
  let c = Registry.counter reg "events" in
  Registry.incr c;
  Alcotest.(check int) "sum of sources and own count" 8 (Registry.counter_value c);
  a := 10;
  Alcotest.(check (float 0.0)) "read at snapshot" 15.0
    (find_exn (Registry.snapshot reg) "events");
  (* Reset rebases: the counter reads 0, then only what its owners add. *)
  Registry.reset reg;
  Alcotest.(check int) "rebased" 0 (Registry.counter_value c);
  b := 6;
  Alcotest.(check int) "counts after reset" 2 (Registry.counter_value c);
  Alcotest.check_raises "sources are counters"
    (Invalid_argument "Registry.gauge: events is not a gauge") (fun () ->
      ignore (Registry.gauge reg "events"))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "labels" `Quick test_labels;
    Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "snapshot algebra" `Quick test_snapshot_algebra;
    Alcotest.test_case "reset and absorb" `Quick test_reset_and_absorb;
    Alcotest.test_case "sources" `Quick test_sources;
    Alcotest.test_case "exports" `Quick test_exports;
  ]
