(* Test entry point: one alcotest run aggregating every module suite. *)

let () =
  Alcotest.run "heimdall"
    [
      ("net", Test_net.suite);
      ("json", Test_json.suite);
      ("config", Test_config.suite);
      ("control", Test_control.suite);
      ("verify", Test_verify.suite);
      ("privilege", Test_privilege.suite);
      ("lint", Test_lint.suite);
      ("sem", Test_sem.suite);
      ("plan", Test_plan.suite);
      ("poltree", Test_poltree.suite);
      ("obs", Test_obs.suite);
      ("watchtower", Test_watchtower.suite);
      ("twin", Test_twin.suite);
      ("enforcer", Test_enforcer.suite);
      ("faults", Test_faults.suite);
      ("msp", Test_msp.suite);
      ("scenarios", Test_scenarios.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("reach-audit", Test_reach_audit.suite);
      ("surface", Test_surface.suite);
      ("university", Test_university.suite);
      ("enterprise", Test_enterprise.suite);
      ("fleet", Test_fleet.suite);
    ]
