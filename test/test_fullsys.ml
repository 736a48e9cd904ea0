let run ~guarded ~attack ~seed =
  let config = { Ptg_sim.Fullsys.default_config with guarded; attack } in
  let t = Ptg_sim.Fullsys.create ~config ~pages:1024 ~seed () in
  Ptg_sim.Fullsys.run t ~instrs:25_000

let test_clean_run () =
  let r = run ~guarded:true ~attack:false ~seed:1L in
  Alcotest.(check int) "no flips without attacker" 0 r.Ptg_sim.Fullsys.flips_landed;
  Alcotest.(check int) "no corrections" 0 r.Ptg_sim.Fullsys.walk_corrections;
  Alcotest.(check int) "no exceptions" 0 r.Ptg_sim.Fullsys.walk_exceptions;
  Alcotest.(check int) "no wrong translations" 0 r.Ptg_sim.Fullsys.wrong_translations;
  Alcotest.(check bool) "walks happened" true (r.Ptg_sim.Fullsys.walks > 100)

let test_guarded_under_attack () =
  let r = run ~guarded:true ~attack:true ~seed:2L in
  Alcotest.(check bool) "attack landed flips" true (r.Ptg_sim.Fullsys.flips_landed > 0);
  Alcotest.(check bool) "PT-Guard worked (corrections or exceptions)" true
    (r.Ptg_sim.Fullsys.walk_corrections + r.Ptg_sim.Fullsys.walk_exceptions > 0);
  (* the invariant of Section IV-G: no tampered PTE is ever consumed *)
  Alcotest.(check int) "ZERO wrong translations when guarded" 0
    r.Ptg_sim.Fullsys.wrong_translations;
  (* exceptions were serviced: the process kept running *)
  Alcotest.(check int) "every exception re-faulted" r.Ptg_sim.Fullsys.walk_exceptions
    r.Ptg_sim.Fullsys.refaults

let test_unguarded_consumes_garbage () =
  let r = run ~guarded:false ~attack:true ~seed:2L in
  Alcotest.(check bool) "attack landed flips" true (r.Ptg_sim.Fullsys.flips_landed > 0);
  Alcotest.(check bool) "unprotected machine consumes wrong translations" true
    (r.Ptg_sim.Fullsys.wrong_translations > 0)

let test_attack_costs_performance () =
  let clean = run ~guarded:true ~attack:false ~seed:3L in
  let attacked = run ~guarded:true ~attack:true ~seed:3L in
  Alcotest.(check bool) "corrections/exceptions cost cycles" true
    (attacked.Ptg_sim.Fullsys.ipc < clean.Ptg_sim.Fullsys.ipc)

let test_determinism () =
  let a = run ~guarded:true ~attack:true ~seed:9L in
  let b = run ~guarded:true ~attack:true ~seed:9L in
  Alcotest.(check int) "cycles reproducible" a.Ptg_sim.Fullsys.cycles
    b.Ptg_sim.Fullsys.cycles;
  Alcotest.(check int) "corrections reproducible" a.Ptg_sim.Fullsys.walk_corrections
    b.Ptg_sim.Fullsys.walk_corrections

(* A machine needs at least one mapped page: the attacker aims at the
   first leaf table, and there is none without a mapping. *)
let test_rejects_no_pages () =
  List.iter
    (fun pages ->
      Alcotest.(check bool)
        (Printf.sprintf "pages=%d rejected" pages)
        true
        (match Ptg_sim.Fullsys.create ~pages ~seed:1L () with
        | _ -> false
        | exception Invalid_argument msg ->
            String.starts_with ~prefix:"Fullsys.create: pages" msg))
    [ 0; -1 ]

(* A machine built from a state without constructing its page tables
   through the controller is the machine [create] then [set_state]
   gives: the same state at once, and the same state and result after
   running on, at depth 0 and mid-run, guarded or not. *)
let test_of_state_equals_create_then_restore () =
  let module F = Ptg_sim.Fullsys in
  List.iter
    (fun (guarded, seed, depth) ->
      let config = { F.default_config with guarded } in
      let what = Printf.sprintf "guarded=%b seed=%Ld depth=%d" guarded seed depth in
      let m = F.create ~config ~pages:1024 ~seed () in
      ignore (F.run m ~instrs:depth);
      let s = F.state m in
      let r = F.of_state ~config ~pages:1024 ~seed s in
      Alcotest.(check bool) (what ^ ": same state") true (F.state r = s);
      let a = F.run m ~instrs:5_000 and b = F.run r ~instrs:5_000 in
      Alcotest.(check bool) (what ^ ": same result after running on") true (a = b);
      Alcotest.(check bool) (what ^ ": same state after running on") true
        (F.state m = F.state r))
    [ (true, 2L, 0); (true, 2L, 6_000); (false, 5L, 6_000) ]

let suite =
  [
    Alcotest.test_case "clean run" `Slow test_clean_run;
    Alcotest.test_case "guarded under attack: zero escapes" `Slow
      test_guarded_under_attack;
    Alcotest.test_case "unguarded consumes garbage" `Slow test_unguarded_consumes_garbage;
    Alcotest.test_case "attack costs performance" `Slow test_attack_costs_performance;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "rejects pages < 1" `Quick test_rejects_no_pages;
    Alcotest.test_case "of_state = create then set_state" `Quick
      test_of_state_equals_create_then_restore;
  ]
