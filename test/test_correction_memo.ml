(* The engine's correction memo must be invisible: a long-lived engine
   reading a sequence of damaged PTE lines, with repeats, gives for
   each read the result a fresh engine (same key, empty memo) gives,
   and ends with the statistics, observability counters and trace
   events of all those fresh engines together. A key change empties the
   memo, and no line the engine hands out can be mutated into a later
   hit. *)

open Ptguard
module Line = Ptg_pte.Line
module Sink = Ptg_obs.Sink

let seed = 11L

let config = function `B -> Config.baseline | `O -> Config.optimized

let engine ?obs design =
  Engine.create ~config:(config design) ?obs ~rng:(Ptg_util.Rng.create seed) ()

let pte_lines =
  lazy
    (let rng = Ptg_util.Rng.create 271L in
     let params =
       { (Ptg_vm.Process_model.draw_params rng) with Ptg_vm.Process_model.target_ptes = 2048 }
     in
     Ptg_vm.Process_model.leaf_lines rng params)

(* Line addresses 1 MiB apart share a slot of any direct-mapped memo of
   up to 16384 lines, so entries evict each other too. *)
let addrs = [| 0x40000L; 0x140000L; 0x240000L; 0x40040L; 0x7fc0L |]

(* A stored line damaged by [bits] flips: what a Rowhammer victim holds. *)
let damaged design ~addr ~line bits =
  let writer = engine design in
  let lines = Lazy.force pte_lines in
  let stored = Engine.process_write writer ~addr lines.(line mod Array.length lines) in
  List.fold_left Line.flip_bit stored bits

type case = {
  design : [ `B | `O ];
  pool : (int * int * int list) list;  (** address index, PTE line, flipped bits *)
  reads : int list;  (** indices into [pool] *)
}

let gen =
  let open QCheck2.Gen in
  let entry =
    triple (int_bound (Array.length addrs - 1)) (int_bound 10_000)
      (list_size (int_range 0 3) (int_bound 511))
  in
  map3
    (fun design pool reads -> { design; pool; reads })
    (oneofl [ `B; `O ]) (list_size (int_range 1 5) entry)
    (list_size (int_range 1 24) (int_bound 4))

let print c =
  Printf.sprintf "%s pool [%s] reads [%s]"
    (match c.design with `B -> "baseline" | `O -> "optimized")
    (String.concat "; "
       (List.map
          (fun (a, l, bits) ->
            Printf.sprintf "(%d,%d,{%s})" a l (String.concat "," (List.map string_of_int bits)))
          c.pool))
    (String.concat "," (List.map string_of_int c.reads))

let sum_stats (a : Engine.stats) (b : Engine.stats) =
  {
    Engine.writes_total = a.writes_total + b.writes_total;
    writes_protected = a.writes_protected + b.writes_protected;
    writes_mac_zero = a.writes_mac_zero + b.writes_mac_zero;
    collisions_tracked = a.collisions_tracked + b.collisions_tracked;
    reads_total = a.reads_total + b.reads_total;
    reads_pte = a.reads_pte + b.reads_pte;
    mac_computations = a.mac_computations + b.mac_computations;
    macs_stripped = a.macs_stripped + b.macs_stripped;
    integrity_failures = a.integrity_failures + b.integrity_failures;
    corrections_attempted = a.corrections_attempted + b.corrections_attempted;
    corrections_succeeded = a.corrections_succeeded + b.corrections_succeeded;
    rekeys = a.rekeys + b.rekeys;
  }

let prop_memo_invisible =
  QCheck2.Test.make ~name:"correction memo: every read and the totals as fresh engines give"
    ~count:40 ~print gen (fun c ->
      let pool =
        Array.of_list
          (List.map
             (fun (a, line, bits) ->
               let addr = addrs.(a) in
               (addr, damaged c.design ~addr ~line bits))
             c.pool)
      in
      let memo_sink = Sink.create () and fresh_sink = Sink.create () in
      let e = engine ~obs:memo_sink c.design in
      let fresh_stats = ref (Engine.stats (engine c.design)) in
      List.iteri
        (fun i r ->
          let addr, line = pool.(r mod Array.length pool) in
          let got = Engine.process_read e ~addr ~is_pte:true (Line.copy line) in
          let f = engine ~obs:fresh_sink c.design in
          let want = Engine.process_read f ~addr ~is_pte:true (Line.copy line) in
          fresh_stats := sum_stats !fresh_stats (Engine.stats f);
          if got <> want then QCheck2.Test.fail_reportf "read %d (pool %d) differs" i r)
        c.reads;
      if Engine.stats e <> !fresh_stats then QCheck2.Test.fail_report "stats differ";
      if not (Ptg_obs.Registry.equal (Sink.metrics memo_sink) (Sink.metrics fresh_sink)) then
        QCheck2.Test.fail_report "obs counters differ";
      if Ptg_obs.Trace.events (Sink.trace memo_sink) <> Ptg_obs.Trace.events (Sink.trace fresh_sink)
      then QCheck2.Test.fail_report "trace events differ";
      true)

(* A writable-bit flip in one PTE: corrected by flip-and-check under the
   key that wrote it, and not under another. *)
let addr = addrs.(0)
let victim design = damaged design ~addr ~line:3 [ (4 * 64) + 1 ]

let is_corrected (r : Engine.read_result) =
  match r.Engine.integrity with Engine.Corrected _ -> true | _ -> false

(* The read a fresh engine holding [e]'s current key gives. *)
let fresh_read design e line =
  let f = engine design in
  Engine.set_state f (Engine.state e);
  Engine.process_read f ~addr ~is_pte:true (Line.copy line)

let test_key_change_empties () =
  List.iter
    (fun design ->
      let line = victim design in
      let read e = Engine.process_read e ~addr ~is_pte:true (Line.copy line) in
      let e = engine design in
      Alcotest.(check bool) "corrected under the writing key" true (is_corrected (read e));
      let other = Engine.create ~config:(config design) ~rng:(Ptg_util.Rng.create 99L) () in
      Engine.set_state e (Engine.state other);
      let after_set_state = read e in
      Alcotest.(check bool) "set_state: as a fresh engine" true
        (after_set_state = fresh_read design e line);
      Alcotest.(check bool) "set_state: not corrected under another key" false
        (is_corrected after_set_state);
      let e = engine design in
      ignore (read e);
      Engine.rekey e ~rng:(Ptg_util.Rng.create 5L)
        ~iter_lines:(fun _ -> ())
        ~write:(fun ~addr:_ _ -> ());
      let after_rekey = read e in
      Alcotest.(check bool) "rekey: as a fresh engine" true
        (after_rekey = fresh_read design e line);
      Alcotest.(check bool) "rekey: not corrected under the new key" false
        (is_corrected after_rekey))
    [ `B; `O ]

let test_returned_lines_do_not_alias () =
  List.iter
    (fun design ->
      let line = victim design in
      let e = engine design in
      let input = Line.copy line in
      let first = Engine.process_read e ~addr ~is_pte:true input in
      let saved =
        {
          first with
          Engine.line = Option.map Line.copy first.Engine.line;
          raw_line = Line.copy line;
        }
      in
      (* Scribble over the forwarded line: the next hit is unchanged. *)
      Option.iter (fun l -> Bytes.fill l 0 Line.size_bytes '\255') first.Engine.line;
      Alcotest.(check bool) "hit after the forwarded line is mutated" true
        (Engine.process_read e ~addr ~is_pte:true (Line.copy line) = saved);
      (* Turn the caller's input (the returned raw line) into another
         damaged line at the same address: reading that line must not
         hit the first one's entry. *)
      let other = damaged design ~addr ~line:3 [ (2 * 64) + 1 ] in
      Bytes.blit other 0 first.Engine.raw_line 0 Line.size_bytes;
      Alcotest.(check bool) "mutated input is not a later hit" true
        (Engine.process_read e ~addr ~is_pte:true (Line.copy other)
        = Engine.process_read (engine design) ~addr ~is_pte:true (Line.copy other)))
    [ `B; `O ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_memo_invisible;
    Alcotest.test_case "key change empties the memo" `Quick test_key_change_empties;
    Alcotest.test_case "returned lines do not alias the memo" `Quick
      test_returned_lines_do_not_alias;
  ]
