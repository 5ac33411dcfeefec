(* Benchmark harness: reproduces every table and figure of the paper's
   evaluation (printed in the paper's shape), and measures the
   computational kernels behind each one with Bechamel.

   Usage:
     dune exec bench/main.exe             # all reports + micro-benchmarks
     dune exec bench/main.exe -- NAME...  # the named reports ([reports]
                                          # below; a bad name lists them) *)

open Bechamel
open Toolkit
open Heimdall_scenarios

(* ------------------------------------------------------------------ *)
(* Perf-report persistence                                             *)
(* ------------------------------------------------------------------ *)

let report_path = "bench/report.json"

(* Read-merge-write by top-level key: each report section owns one key
   in bench/report.json, so running `bench sem` never clobbers the engine
   section written by a previous `bench engine` (and vice versa).
   An unreadable or malformed existing file degrades to a fresh one. *)
let persist_report ~key json =
  let open Heimdall_json in
  let existing =
    if Sys.file_exists report_path then
      try
        In_channel.with_open_text report_path (fun ic ->
            Json.of_string_opt (In_channel.input_all ic))
      with Sys_error _ -> None
    else None
  in
  let fields =
    match existing with Some (Json.Obj fields) -> fields | _ -> []
  in
  let merged = (key, json) :: List.remove_assoc key fields in
  let merged = List.sort (fun (a, _) (b, _) -> compare a b) merged in
  try
    Out_channel.with_open_text report_path (fun oc ->
        Out_channel.output_string oc (Json.to_string ~pretty:true (Json.Obj merged));
        Out_channel.output_char oc '\n');
    Printf.printf "  wrote %S section of %s\n" key report_path
  with Sys_error m -> Printf.printf "  could not write %s: %s\n" report_path m

(* ------------------------------------------------------------------ *)
(* Paper-shaped reports                                                *)
(* ------------------------------------------------------------------ *)

(* A fresh single-domain engine: each timed run does the same
   from-scratch work instead of answering from a warm cache. *)
let fresh_engine () = Heimdall_verify.Engine.create ~domains:1 ()

let report_table1 () =
  print_string "== Table 1: evaluation networks ==\n";
  print_string (Experiments.render_table1 (Experiments.table1 ()));
  print_newline ()

let report_fig7 network () =
  (match network with
  | `Enterprise ->
      print_string "== Figure 7: time to solve three real issues (enterprise) ==\n"
  | `University ->
      print_string
        "== Figure 7 (university variant; the paper omits it \"due to similarity\") ==\n");
  let cells = Experiments.fig7 ~engine:(fresh_engine ()) ~network () in
  print_string (Experiments.render_fig7 cells);
  let overheads = Experiments.fig7_overhead cells in
  List.iter
    (fun (issue, o) -> Printf.printf "Heimdall overhead on %s: +%.1f s\n" issue o)
    overheads;
  if network = `Enterprise then
    Printf.printf "average overhead: +%.1f s (paper: +28 s)\n"
      (List.fold_left (fun acc (_, o) -> acc +. o) 0.0 overheads
      /. float_of_int (List.length overheads));
  print_newline ()

let report_sweep ~title sweep () =
  print_string ("== " ^ title ^ " ==\n");
  let engine = Heimdall_verify.Engine.create () in
  print_string
    (Experiments.render_sweep ~title:"bring down each interface; All vs Neighbor vs Heimdall"
       (sweep ~engine ()));
  print_string (Heimdall_verify.Engine.render_stats (Heimdall_verify.Engine.stats engine));
  print_newline ()

(* Set when a report's gate trips; the entry point turns it into a
   non-zero exit so the smoke targets (and CI) fail. *)
let gate_failed = ref false

let gate name passed =
  Printf.printf "%s gate: %s\n" name (if passed then "PASS" else "FAIL");
  if not passed then gate_failed := true

(* Run [f dir] in a fresh temporary directory, removed with its contents
   afterwards, also when [f] raises. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

(* The N of every 1-vs-N comparison: at least 2, so the parallel path
   runs even on a 1-core host (where no speedup can be expected). *)
let n_domains = max 2 (Heimdall_verify.Engine.default_domains ())

(* [f] on a fresh engine of [domains], shut down afterwards. *)
let with_engine ?obs ?cache_dir domains f =
  let engine = Heimdall_verify.Engine.create ~domains ?obs ?cache_dir () in
  Fun.protect
    ~finally:(fun () -> Heimdall_verify.Engine.shutdown engine)
    (fun () -> f engine)

type 'a pair = { one : 'a; wall_1 : float; n : 'a; wall_n : float; identical : bool }

(* Run and time [f] at 1 domain and at [n_domains], each on a fresh
   engine, and compare the two results with [equal]. *)
let one_vs_n ~equal f =
  let run domains =
    with_engine domains (fun e -> Heimdall_obs.Clock.elapsed (fun () -> f e))
  in
  let one, wall_1 = run 1 in
  let n, wall_n = run n_domains in
  { one; wall_1; n; wall_n; identical = equal one n }

let report_engine () =
  let open Heimdall_verify in
  print_string "== Verify engine: 1-domain vs N-domain university sweep ==\n";
  let net, policies = Experiments.university () in
  with_temp_dir "heimdall-dpcache" @@ fun cache_dir ->
  (* Each run is one engine doing the sweep twice: the cold pass builds
     and caches, the warm pass must be answered from the caches.  The
     engine is shut down so its helper domains don't linger. *)
  let run ?cache_dir domains =
    let obs = Heimdall_obs.Obs.create () in
    with_engine ~obs ?cache_dir domains @@ fun engine ->
    let cold_s, cold =
      Heimdall_obs.Clock.elapsed (fun () ->
          Metrics.sweep_all ~engine ~production:net ~policies ())
    in
    let warm_s, warm =
      Heimdall_obs.Clock.elapsed (fun () ->
          Metrics.sweep_all ~engine ~production:net ~policies ())
    in
    (cold_s, warm_s, cold, warm, Engine.stats engine, obs)
  in
  let s1, s1w, cold1, warm1, stats1, _ = run ~cache_dir 1 in
  let n = n_domains in
  let sn, snw, coldn, warmn, statsn, obsn = run n in
  (* A fresh engine pointed at the populated on-disk cache must answer
     every dataplane from disk — zero builds. *)
  let sp, _, coldp, _, statsp, _ = run ~cache_dir 1 in
  let speedup = cold1 /. Float.max 1e-9 coldn in
  Printf.printf "1 domain : cold %.3f s, warm %.3f s\n%s" cold1 warm1
    (Engine.render_stats stats1);
  Printf.printf "%d domains: cold %.3f s, warm %.3f s  (%.2fx cold speedup)\n%s" n
    coldn warmn speedup
    (Engine.render_stats statsn);
  Printf.printf "persistent-cache run: cold %.3f s\n%s" coldp
    (Engine.render_stats statsp);
  (* ---- gate ---- *)
  let verdicts_ok = s1 = sn && s1 = s1w && sn = snw && s1 = sp in
  let cache_hits_ok = statsn.Engine.dataplane_cache_hits > 0 in
  let persistent_ok =
    statsp.Engine.dataplanes_built = 0 && statsp.Engine.dataplane_persistent_hits > 0
  in
  let single_core = Engine.default_domains () < 2 in
  let speedup_ok = speedup > 1.0 in
  let passed =
    verdicts_ok && cache_hits_ok && persistent_ok && (speedup_ok || single_core)
  in
  Printf.printf "verdicts identical across domain counts and cache states: %b\n"
    verdicts_ok;
  Printf.printf "dataplane cache hits > 0: %b\n" cache_hits_ok;
  Printf.printf "warm persistent cache rebuilds nothing: %b\n" persistent_ok;
  if single_core && not speedup_ok then
    Printf.printf "speedup gate skipped: single-core host (%.2fx measured)\n" speedup
  else Printf.printf "N-domain speedup > 1.0: %b (%.2fx)\n" speedup_ok speedup;
  gate "engine" passed;
  let open Heimdall_json in
  persist_report ~key:"engine"
    (Json.Obj
       [
         ("wall_s_1_domain", Json.Float cold1);
         ("wall_s_1_domain_warm", Json.Float warm1);
         ("wall_s_n_domains", Json.Float coldn);
         ("wall_s_n_domains_warm", Json.Float warmn);
         ("wall_s_persistent_cold", Json.Float coldp);
         ("domains", Json.Int n);
         ("speedup", Json.Float speedup);
         ("verdicts_identical", Json.Bool verdicts_ok);
         ( "gate",
           Json.Obj
             [
               ("passed", Json.Bool passed);
               ("verdicts_identical", Json.Bool verdicts_ok);
               ("dataplane_cache_hits_positive", Json.Bool cache_hits_ok);
               ("persistent_cache_rebuilds_nothing", Json.Bool persistent_ok);
               ("speedup_above_1", Json.Bool speedup_ok);
               ("speedup_gate_skipped_single_core", Json.Bool (single_core && not speedup_ok));
             ] );
         ("stats_1_domain", Engine.stats_to_json stats1);
         ("stats_n_domains", Engine.stats_to_json statsn);
         ("stats_persistent", Engine.stats_to_json statsp);
         ("metrics_n_domains", Heimdall_obs.Metrics.to_json obsn.Heimdall_obs.Obs.metrics);
       ]);
  print_newline ()

let report_sem () =
  print_string "== Semantic analysis: packet-set algebra + network-wide pass ==\n";
  let measure name net =
    let open Heimdall_control in
    let acls =
      List.concat_map
        (fun (_, (cfg : Heimdall_config.Ast.t)) -> cfg.acls)
        (Network.configs net)
    in
    let rules =
      List.fold_left (fun acc (a : Heimdall_net.Acl.t) -> acc + List.length a.rules) 0 acls
    in
    (* Algebra kernel: compile every ACL to its exact permit set, then
       run the exact dead-rule analysis (ACL004/ACL005 backbone). *)
    let sets, t_permit =
      Heimdall_obs.Clock.elapsed (fun () ->
          List.map Heimdall_sem.Acl_sem.permit_set acls)
    in
    let cubes =
      List.fold_left (fun acc s -> acc + Heimdall_net.Packet_set.cube_count s) 0 sets
    in
    let _, t_dead =
      Heimdall_obs.Clock.elapsed (fun () ->
          List.map Heimdall_sem.Acl_sem.dead_rules acls)
    in
    (* Whole-network semantic pass through the engine fan-out, 1 domain
       vs N — the report must be byte-identical across domain counts. *)
    let pass =
      one_vs_n ~equal:(List.equal Heimdall_lint.Diagnostic.equal) (fun engine ->
          Heimdall_lint.Lint.check_network ~engine net)
    in
    Printf.printf
      "  %-10s %d ACLs / %d rules -> %d cubes; permit-sets %.4f s; dead-rules %.4f s\n"
      name (List.length acls) rules cubes t_permit t_dead;
    Printf.printf
      "  %-10s network pass: %d findings; 1 domain %.4f s; %d domains %.4f s; identical: %b\n"
      name (List.length pass.one) pass.wall_1 n_domains pass.wall_n pass.identical;
    let open Heimdall_json in
    Json.Obj
      [
        ("network", Json.String name);
        ("acls", Json.Int (List.length acls));
        ("rules", Json.Int rules);
        ("permit_set_cubes", Json.Int cubes);
        ("findings", Json.Int (List.length pass.one));
        ("wall_s_permit_sets", Json.Float t_permit);
        ("wall_s_dead_rules", Json.Float t_dead);
        ("wall_s_pass_1_domain", Json.Float pass.wall_1);
        ("wall_s_pass_n_domains", Json.Float pass.wall_n);
        ("identical_across_domains", Json.Bool pass.identical);
      ]
  in
  let enterprise = measure "enterprise" (fst (Experiments.enterprise ())) in
  let university = measure "university" (fst (Experiments.university ())) in
  let rows = [ enterprise; university ] in
  (* Plan analyzer: static pre-flight over every scenario ticket, 1
     domain vs N (byte-identical), plus the soundness tally — on how
     many tickets the predicted delta contains the exact replay diff. *)
  print_string "== Plan analysis: static pre-flight over scenario tickets ==\n";
  let measure_plan name =
    let sc = Result.get_ok (Experiments.scenario_of_name name) in
    let replays = List.map (Selfcheck.replay sc.Experiments.net) sc.Experiments.issues in
    let tickets =
      List.map
        (fun (r : Selfcheck.replay) -> Selfcheck.plan_ticket r.issue ~slice:r.slice r.spec)
        replays
    in
    let plans =
      one_vs_n ~equal:(List.equal Heimdall_lint.Diagnostic.equal) (fun engine ->
          Heimdall_lint.Lint.check_plans ~engine ~network:sc.Experiments.net
            ~policies:sc.Experiments.policies tickets)
    in
    let sound =
      List.length
        (List.filter
           (fun r -> (Selfcheck.plan_soundness r).Selfcheck.delta_sound)
           replays)
    in
    Printf.printf
      "  %-10s %d tickets, %d findings; 1 domain %.4f s; %d domains %.4f s; identical: %b; delta sound: %d/%d\n"
      name (List.length tickets) (List.length plans.one) plans.wall_1 n_domains
      plans.wall_n plans.identical sound (List.length tickets);
    let open Heimdall_json in
    Json.Obj
      [
        ("network", Json.String name);
        ("tickets", Json.Int (List.length tickets));
        ("findings", Json.Int (List.length plans.one));
        ("wall_s_1_domain", Json.Float plans.wall_1);
        ("wall_s_n_domains", Json.Float plans.wall_n);
        ("identical_across_domains", Json.Bool plans.identical);
        ("delta_sound", Json.Int sound);
      ]
  in
  let plan_enterprise = measure_plan "enterprise" in
  let plan_rows = [ plan_enterprise; measure_plan "university" ] in
  let open Heimdall_json in
  persist_report ~key:"sem"
    (Json.Obj
       [
         ("domains", Json.Int n_domains);
         ("networks", Json.List rows);
         ("plan", Json.List plan_rows);
       ]);
  print_newline ()

let report_ablation_verify () =
  print_string "== Ablation A1: continuous vs batch policy verification ==\n";
  print_string (Experiments.render_ablation_verify (Experiments.ablation_verify ()));
  print_newline ()

let report_ablation_slicer () =
  print_string "== Ablation A2: twin slicing strategies (Figure 5 design space) ==\n";
  print_string (Experiments.render_ablation_slicer (Experiments.ablation_slicer ()));
  print_newline ()

let report_ablation_audit () =
  print_string "== Ablation A3: audit trail and enclave overhead ==\n";
  print_string (Experiments.render_ablation_audit (Experiments.ablation_audit ()));
  print_newline ()

let report_campaign () =
  print_string
    "== Campaign: 40 tickets, 20% hostile, same event stream under both models ==\n";
  print_string (Campaign.render (Experiments.campaign ~engine:(fresh_engine ()) ()));
  print_newline ()

let report_chaos () =
  print_string "== Chaos: seeded fault injection over the enterprise issues ==\n";
  let seed = 42 in
  let sc = Result.get_ok (Experiments.scenario_of_name "enterprise") in
  let head (r : Chaos.result) =
    Heimdall_enforcer.Audit.head r.Chaos.outcome.Heimdall_enforcer.Enforcer.audit
  in
  let runs =
    one_vs_n ~equal:(List.equal (fun a b -> head a = head b)) (fun engine ->
        List.map
          (fun issue -> Chaos.run ~engine ~scenario:sc ~issue ~seed ())
          sc.Experiments.issues)
  in
  List.iter (fun r -> print_string (Chaos.render r)) runs.n;
  Printf.printf
    "1 domain: %.3f s; %d domains: %.3f s; audit heads identical: %b\n" runs.wall_1
    n_domains runs.wall_n runs.identical;
  let open Heimdall_json in
  persist_report ~key:"chaos"
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ("wall_s_1_domain", Json.Float runs.wall_1);
         ("wall_s_n_domains", Json.Float runs.wall_n);
         ("domains", Json.Int n_domains);
         ("deterministic_across_domains", Json.Bool runs.identical);
         ( "issues",
           Json.List
             (List.map
                (fun (r : Chaos.result) ->
                  let retries, rolled_back =
                    match r.Chaos.outcome.Heimdall_enforcer.Enforcer.apply with
                    | Some a ->
                        ( List.length a.Heimdall_enforcer.Applier.retries,
                          a.Heimdall_enforcer.Applier.rollback <> None )
                    | None -> (0, false)
                  in
                  Json.Obj
                    [
                      ("issue", Json.String r.Chaos.issue);
                      ("faults_fired", Json.Int (List.length r.Chaos.occurrences));
                      ( "kinds",
                        Json.List
                          (List.map (fun k -> Json.String k) r.Chaos.kinds) );
                      ("twin_retries", Json.Int r.Chaos.twin_retries);
                      ("apply_retries", Json.Int retries);
                      ("rolled_back", Json.Bool rolled_back);
                      ( "surviving_violations",
                        Json.Int (List.length r.Chaos.surviving_violations) );
                      ("audit_head", Json.String (head r));
                      ("passed", Json.Bool (Chaos.passed r));
                    ])
                runs.n) );
       ]);
  print_newline ()

let report_obs () =
  print_string "== Observability: workflow overhead with the Watchtower on vs off ==\n";
  let open Heimdall_verify in
  let sc = Result.get_ok (Experiments.scenario_of_name "enterprise") in
  (* One replay = every enterprise issue through the Heimdall workflow on
     a single-domain engine (so the measurement is not at the mercy of
     pool scheduling).  With obs on, the full Watchtower surface is live:
     spans, labeled metrics, events, plus one runtime-sampler tick. *)
  let replay ?obs () =
    with_engine ?obs 1 @@ fun engine ->
    let runs =
      List.map
        (fun issue ->
          Heimdall_msp.Workflow.run_heimdall ~engine
            ~production:sc.Experiments.net ~policies:sc.Experiments.policies
            ~issue ())
        sc.Experiments.issues
    in
    (match obs with
    | Some o ->
        let runtime = Heimdall_obs.Runtime.create o in
        Heimdall_obs.Runtime.add_sampler runtime (Engine.runtime_sampler engine);
        Heimdall_obs.Runtime.sample runtime
    | None -> ());
    runs
  in
  (* Verdict fingerprint: what must be byte-identical with obs on/off.
     (Audit heads legitimately differ — the enforcer appends the span
     correlation record only when a tracer is present.) *)
  let fingerprint runs =
    List.map
      (fun (r : Heimdall_msp.Workflow.run) ->
        ( r.Heimdall_msp.Workflow.issue,
          r.Heimdall_msp.Workflow.resolved,
          r.Heimdall_msp.Workflow.denied,
          Heimdall_control.Network.digest r.Heimdall_msp.Workflow.final_network ))
      runs
  in
  let reps = 5 in
  (* Min-of-N: the least noisy location estimator for short walls. *)
  let min_wall f =
    let rec go best i =
      if i = 0 then best
      else
        let _, t = Heimdall_obs.Clock.elapsed (fun () -> ignore (f ())) in
        go (Float.min best t) (i - 1)
    in
    go infinity reps
  in
  let fp_off = fingerprint (replay ()) in
  let fp_on = fingerprint (replay ~obs:(Heimdall_obs.Obs.create ()) ()) in
  let off_wall = min_wall (fun () -> replay ()) in
  let on_wall = min_wall (fun () -> replay ~obs:(Heimdall_obs.Obs.create ()) ()) in
  let overhead =
    if off_wall <= 0.0 then 0.0 else (on_wall -. off_wall) /. off_wall
  in
  let verdicts_ok = fp_off = fp_on in
  (* Gate: instrumentation must stay under 10% — with a 10 ms absolute
     noise floor so a sub-100 ms baseline cannot flake the gate on
     scheduler jitter. *)
  let within_budget = overhead <= 0.10 || on_wall -. off_wall < 0.010 in
  let passed = verdicts_ok && within_budget in
  Printf.printf "obs off: %.4f s (min of %d); obs on: %.4f s (min of %d)\n" off_wall
    reps on_wall reps;
  Printf.printf "overhead: %+.1f%% (budget: 10%%)\n" (overhead *. 100.0);
  Printf.printf "verdicts identical with obs on/off: %b\n" verdicts_ok;
  gate "obs" passed;
  let open Heimdall_json in
  persist_report ~key:"obs"
    (Json.Obj
       [
         ("reps", Json.Int reps);
         ("wall_s_obs_off", Json.Float off_wall);
         ("wall_s_obs_on", Json.Float on_wall);
         ("overhead_fraction", Json.Float overhead);
         ("verdicts_identical", Json.Bool verdicts_ok);
         ( "gate",
           Json.Obj
             [
               ("passed", Json.Bool passed);
               ("verdicts_identical", Json.Bool verdicts_ok);
               ("overhead_within_10_percent", Json.Bool within_budget);
             ] );
       ]);
  print_newline ()

let report_containment () =
  print_string "== Attack containment (motivating incidents, paper section 2.2) ==\n";
  print_string
    (Experiments.render_containment (Experiments.attack_containment ~engine:(fresh_engine ()) ()));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel    *)
(* ------------------------------------------------------------------ *)

let bench_table1 =
  (* Kernel behind Table 1: build a network and mine its policies. *)
  Test.make ~name:"table1/build+mine-enterprise"
    (Staged.stage (fun () ->
         let net = Enterprise.build () in
         ignore (Enterprise.policies net)))

let bench_fig7 =
  (* Kernel behind Figure 7: one full Heimdall workflow (vlan issue). *)
  let net, policies = Experiments.enterprise () in
  let issue = List.hd (Enterprise.issues net) in
  Test.make ~name:"fig7/heimdall-workflow-vlan"
    (Staged.stage (fun () ->
         ignore
           (Heimdall_msp.Workflow.run_heimdall ~engine:(fresh_engine ()) ~production:net
              ~policies ~issue ())))

let bench_fig8 =
  let net, policies = Experiments.enterprise () in
  Test.make ~name:"fig8/sweep-enterprise"
    (Staged.stage (fun () ->
         ignore (Metrics.sweep_all ~engine:(fresh_engine ()) ~production:net ~policies ())))

let bench_fig9 =
  let net, policies = Experiments.university () in
  Test.make ~name:"fig9/sweep-university-heimdall"
    (Staged.stage (fun () ->
         ignore
           (Metrics.sweep ~engine:(fresh_engine ()) ~production:net ~policies
              Metrics.Heimdall_twin)))

let bench_verify =
  let net, policies = Experiments.university () in
  Test.make ~name:"ablation-verify/check-175-policies"
    (Staged.stage (fun () ->
         let engine = fresh_engine () in
         let dp = Heimdall_verify.Engine.dataplane engine net in
         ignore (Heimdall_verify.Policy.check_all ~engine dp policies)))

let bench_slicer =
  let net, _ = Experiments.university () in
  Test.make ~name:"ablation-slicer/task-slice"
    (Staged.stage (fun () ->
         ignore
           (Heimdall_twin.Slicer.slice Heimdall_twin.Slicer.Task net
              ~endpoints:[ "dorm1"; "cs1" ])))

let bench_audit =
  Test.make ~name:"ablation-audit/append100+verify"
    (Staged.stage (fun () ->
         let open Heimdall_enforcer in
         let audit = ref Audit.empty in
         for i = 1 to 100 do
           audit :=
             Audit.append ~actor:"t" ~action:"acl.rule" ~resource:"r"
               ~detail:(string_of_int i) ~verdict:"allowed" !audit
         done;
         assert (Audit.verify !audit = Ok ())))

let bench_dataplane =
  let net, _ = Experiments.university () in
  Test.make ~name:"micro/dataplane-university"
    (Staged.stage (fun () -> ignore (Heimdall_control.Dataplane.compute net)))

let bench_trace =
  let net, _ = Experiments.enterprise () in
  let dp = Heimdall_control.Dataplane.compute net in
  let flow =
    Heimdall_net.Flow.icmp
      (Heimdall_net.Ipv4.of_string "10.1.10.11")
      (Heimdall_net.Ipv4.of_string "10.2.20.11")
  in
  Test.make ~name:"micro/trace-one-flow"
    (Staged.stage (fun () -> ignore (Heimdall_verify.Trace.trace dp flow)))

let bench_privilege =
  let spec =
    Heimdall_privilege.Dsl.parse
      "allow show.*, diag.* on *;\nallow interface.up on r1, r2;\ndeny system.* on *;\n"
  in
  Test.make ~name:"micro/privilege-eval"
    (Staged.stage (fun () ->
         ignore
           (Heimdall_privilege.Privilege.allows spec
              (Heimdall_privilege.Privilege.request "interface.up" "r2"))))

let bench_sha256 =
  let payload = String.make 4096 'x' in
  Test.make ~name:"micro/sha256-4KiB"
    (Staged.stage (fun () -> ignore (Heimdall_enforcer.Sha256.hex payload)))

let all_benches () =
  [
    bench_table1;
    bench_fig7;
    bench_fig8;
    bench_fig9;
    bench_verify;
    bench_slicer;
    bench_audit;
    bench_dataplane;
    bench_trace;
    bench_privilege;
    bench_sha256;
  ]

let run_benchmarks () =
  print_string "== Bechamel micro-benchmarks (time per run) ==\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (ns_per_run :: _) ->
              let s = ns_per_run /. 1e9 in
              if s >= 0.1 then Printf.printf "  %-42s %10.3f s/run\n" name s
              else if s >= 1e-4 then Printf.printf "  %-42s %10.3f ms/run\n" name (s *. 1e3)
              else Printf.printf "  %-42s %10.3f us/run\n" name (s *. 1e6)
          | Some [] | None -> Printf.printf "  %-42s (no estimate)\n" name)
        analyzed)
    (all_benches ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fleet scale                                                         *)
(* ------------------------------------------------------------------ *)

(* Generated fleets at three sizes (largest 500+ devices), each through
   the shared fleet-scale gate ({!Selfcheck.scale}): regeneration,
   validation, lint, 1-vs-N-domain verdict identity and every injected
   issue through the full workflow, with wall times, peak RSS and the
   N-domain engine's stats.  Any failed gate fails the bench (and CI). *)
let report_scale () =
  print_string "== Fleet scale: generated fleets vs device count ==\n";
  let sizes =
    List.map
      (fun spec ->
        let params = Result.get_ok (Fleetgen.spec_of_string spec) in
        let s =
          with_engine 1 (fun engine1 ->
              with_engine n_domains (fun engine_n ->
                  Selfcheck.scale ~engine1 ~engine_n ~issues:true params))
        in
        List.iter prerr_endline (Selfcheck.scale_problems s);
        print_string (Selfcheck.render_scale s);
        s)
      [ "fat-tree:k=4"; "fat-tree:k=8"; "multi-campus:campuses=20:buildings=8" ]
  in
  let passed = List.for_all Selfcheck.scale_passed sizes in
  gate "scale (all sizes)" passed;
  let open Heimdall_json in
  persist_report ~key:"scale"
    (Json.Obj
       [
         ("domains", Json.Int n_domains);
         ("passed", Json.Bool passed);
         ("sizes", Json.List (List.map Selfcheck.scale_to_json sizes));
       ]);
  print_newline ()

let report_poltree () =
  let open Heimdall_poltree in
  print_string "== Policy tree: compile + POL analysis vs fleet size ==\n";
  let all_ok = ref true in
  let rule_registry =
    List.filter
      (fun (r : Heimdall_lint.Lint.rule) -> r.family = Heimdall_lint.Lint.Pol)
      Heimdall_lint.Lint.rules
  in
  let sections =
    List.map
      (fun spec ->
        let fleet = Fleetgen.generate (Result.get_ok (Fleetgen.spec_of_string spec)) in
        let compiled, compile_s =
          Heimdall_obs.Clock.elapsed (fun () ->
              Compile.compile_exn fleet.Fleetgen.poltree)
        in
        let checks =
          one_vs_n ~equal:( = ) (fun engine ->
              Analysis.check ~engine ~policies:fleet.Fleetgen.policies compiled)
        in
        let findings1 = checks.one and identical = checks.identical in
        let pol004_errors =
          List.length
            (List.filter
               (fun (d : Heimdall_lint.Diagnostic.t) ->
                 d.code = "POL004" && d.severity = Heimdall_lint.Diagnostic.Error)
               findings1)
        in
        let per_code code =
          List.length
            (List.filter
               (fun (d : Heimdall_lint.Diagnostic.t) -> d.code = code)
               findings1)
        in
        let ok = identical && pol004_errors = 0 in
        if not ok then all_ok := false;
        Printf.printf
          "%-38s %3d nodes %3d leaves  compile %6.3f s  check(1) %6.3f s  \
           check(%d) %6.3f s\n"
          spec
          (List.length compiled.Compile.nodes)
          (List.length compiled.Compile.leaves)
          compile_s checks.wall_1 n_domains checks.wall_n;
        Printf.printf
          "  verdicts 1=%d domains: %b  POL004 errors: %d  findings: %d\n" n_domains
          identical pol004_errors (List.length findings1);
        let open Heimdall_json in
        Json.Obj
          [
            ("spec", Json.String spec);
            ("nodes", Json.Int (List.length compiled.Compile.nodes));
            ("leaves", Json.Int (List.length compiled.Compile.leaves));
            ("rules", Json.Int (Poltree.rule_count fleet.Fleetgen.poltree));
            ("wall_s_compile", Json.Float compile_s);
            ("wall_s_check_1_domain", Json.Float checks.wall_1);
            ("wall_s_check_n_domains", Json.Float checks.wall_n);
            ("findings_identical_across_domains", Json.Bool identical);
            ("pol004_errors", Json.Int pol004_errors);
            ( "findings_per_rule",
              Json.Obj
                (List.map
                   (fun (r : Heimdall_lint.Lint.rule) ->
                     (r.code, Json.Int (per_code r.code)))
                   rule_registry) );
          ])
      [ "fat-tree:k=4"; "fat-tree:k=8"; "multi-campus:campuses=20:buildings=8" ]
  in
  gate "poltree" !all_ok;
  let open Heimdall_json in
  persist_report ~key:"poltree"
    (Json.Obj
       [
         ("domains", Json.Int n_domains);
         ("passed", Json.Bool !all_ok);
         ("rule_registry_total", Json.Int (List.length Heimdall_lint.Lint.rules));
         ("rule_registry_families", Json.Int (List.length Heimdall_lint.Lint.families));
         ("rule_registry_pol", Json.Int (List.length rule_registry));
         ("fleets", Json.List sections);
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let reports =
  [
    ("table1", report_table1);
    ("fig7", report_fig7 `Enterprise);
    ("fig7-university", report_fig7 `University);
    ( "fig8",
      report_sweep ~title:"Figure 8: feasibility and attack surface (enterprise)"
        Experiments.fig8 );
    ( "fig9",
      report_sweep ~title:"Figure 9: feasibility and attack surface (university)"
        Experiments.fig9 );
    ("engine", report_engine);
    ("sem", report_sem);
    ("ablation-verify", report_ablation_verify);
    ("ablation-slicer", report_ablation_slicer);
    ("ablation-audit", report_ablation_audit);
    ("containment", report_containment);
    ("campaign", report_campaign);
    ("chaos", report_chaos);
    ("scale", report_scale);
    ("poltree", report_poltree);
    ("obs", report_obs);
    ("micro", run_benchmarks);
  ]

let () =
  (match Array.to_list Sys.argv with
  | _ :: [] -> List.iter (fun (_, f) -> f ()) reports
  | _ :: names ->
      List.iter
        (fun name ->
          match List.assoc_opt name reports with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown report %S; available: %s\n" name
                (String.concat ", " (List.map fst reports));
              exit 1)
        names
  | [] -> assert false);
  if !gate_failed then exit 1
