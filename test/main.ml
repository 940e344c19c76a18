let () =
  Alcotest.run "threephase"
    [ ("cell_lib", Test_cell_lib.suite);
      ("netlist", Test_netlist.suite);
      ("netlist_io", Test_netlist_io.suite);
      ("lp", Test_lp.suite);
      ("ilp", Test_ilp.suite);
      ("jobs", Test_jobs.suite);
      ("sim", Test_sim.suite);
      ("kernel", Test_kernel.suite);
      ("sta", Test_sta.suite);
      ("phase3", Test_phase3.suite);
      ("physical", Test_physical.suite);
      ("power", Test_power.suite);
      ("circuits", Test_circuits.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("qor", Test_qor.suite);
      ("elab", Test_elab.suite);
      ("lint", Test_lint.suite);
      ("artifacts", Test_artifacts.suite);
      ("fuzz", Test_fuzz.suite) ]
