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

let suite =
  [
    Alcotest.test_case "clean run" `Slow test_clean_run;
    Alcotest.test_case "guarded under attack: zero escapes" `Slow
      test_guarded_under_attack;
    Alcotest.test_case "unguarded consumes garbage" `Slow test_unguarded_consumes_garbage;
    Alcotest.test_case "attack costs performance" `Slow test_attack_costs_performance;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "rejects pages < 1" `Quick test_rejects_no_pages;
  ]
