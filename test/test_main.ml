let () =
  Alcotest.run "simbridge"
    [
      ("util", Test_util.suite);
      ("isa", Test_isa.suite);
      ("prog", Test_prog.suite);
      ("branch", Test_branch.suite);
      ("cache", Test_cache.suite);
      ("dram", Test_dram.suite);
      ("interconnect", Test_interconnect.suite);
      ("uarch", Test_uarch.suite);
      ("trace", Test_trace.suite);
      ("smpi", Test_smpi.suite);
      ("platform", Test_platform.suite);
      ("firesim", Test_firesim.suite);
      ("tlb", Test_tlb.suite);
      ("scan", Test_scan.suite);
      ("multinode", Test_multinode.suite);
      ("workloads", Test_workloads.suite);
      ("app-streams", Test_app_streams.suite);
      ("report", Test_report.suite);
      ("telemetry", Test_telemetry.suite);
      ("ledger", Test_ledger.suite);
      ("parallel", Test_parallel.suite);
      ("simbridge", Test_simbridge.suite);
      ("validate", Test_validate.suite);
      ("integration", Test_integration.suite);
      ("serve", Test_serve.suite);
      ("cli", Test_cli.suite);
    ]
