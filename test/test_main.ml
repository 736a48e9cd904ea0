(* Test runner: every module contributes a [suite] of alcotest cases
   (qcheck properties are wrapped via QCheck_alcotest). *)

let () =
  Alcotest.run "ptguard"
    [
      ("util.bits", Test_bits.suite);
      ("util.rng", Test_rng.suite);
      ("util.stats", Test_stats.suite);
      ("util.clock", Test_clock.suite);
      ("util.pool", Test_pool.suite);
      ("util.binomial", Test_binomial.suite);
      ("util.table", Test_table.suite);
      ("crypto.block128", Test_block128.suite);
      ("crypto.qarma", Test_qarma.suite);
      ("crypto.mac", Test_mac.suite);
      ("crypto.security", Test_security.suite);
      ("pte.x86", Test_x86.suite);
      ("pte.armv8", Test_armv8.suite);
      ("pte.line", Test_line.suite);
      ("pte.protection", Test_protection.suite);
      ("pte.protection_armv8", Test_protection_armv8.suite);
      ("dram.geometry", Test_geometry.suite);
      ("dram.device", Test_dram.suite);
      ("dram.sparse_vs_dense", Test_dram_diff.suite);
      ("rowhammer", Test_rowhammer.suite);
      ("rowhammer.vs_hashtbl", Test_fault_model_diff.suite);
      ("rowhammer.attack", Test_attack.suite);
      ("rowhammer.blacksmith", Test_blacksmith.suite);
      ("mitigations", Test_mitigation.suite);
      ("mitigations.registry", Test_registry.suite);
      ("vm.core", Test_vm.suite);
      ("vm.process_model", Test_process_model.suite);
      ("vm.profile", Test_profile.suite);
      ("cpu.cache", Test_cache.suite);
      ("cpu.timing", Test_cpu.suite);
      ("workloads", Test_workload.suite);
      ("core.ctb", Test_ctb.suite);
      ("core.config", Test_config.suite);
      ("core.correction", Test_correction.suite);
      ("core.engine", Test_engine.suite);
      ("core.cost", Test_cost.suite);
      ("core.engine_armv8", Test_engine_armv8.suite);
      ("core.engine_props", Test_engine_props.suite);
      ("core.correction_memo", Test_correction_memo.suite);
      ("memctrl", Test_memctrl.suite);
      ("experiments", Test_experiments.suite);
      ("baselines", Test_baselines.suite);
      ("os", Test_os.suite);
      ("walk_trace", Test_walk_trace.suite);
      ("mem_trace", Test_mem_trace.suite);
      ("fullsys", Test_fullsys.suite);
      ("obs.integration", Test_obs_integration.suite);
      ("obs.golden", Test_obs_golden.suite);
      ("cli", Test_cli.suite);
    ]
