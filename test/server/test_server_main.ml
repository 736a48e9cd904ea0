(* Serving tier: `dune build @server` runs just this binary. *)

let () =
  Alcotest.run "ptg_server"
    [
      ("server.json", Test_server_json.suite);
      ("server.lru", Test_server_lru.suite);
      ("server.protocol", Test_server_protocol.suite);
      ("server.scenario", Test_server_scenario.suite);
      ("server.golden", Test_server_golden.suite);
      ("server.e2e", Test_server_e2e.suite);
      ("server.v2", Test_server_v2.suite);
      ("server.router", Test_server_router.suite);
      ("server.stats", Test_server_stats.suite);
      ("server.slices", Test_server_slices.suite);
      ( "server.chaos",
        Test_server_faults.suite @ Test_server_router.chaos_suite
        @ Test_server_v2.chaos_suite @ Test_server_slices.chaos_suite );
    ]
