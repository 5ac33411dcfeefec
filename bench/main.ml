(* Benchmark harness: reproduces every table and figure of the paper's
   evaluation (printed in the paper's shape), and measures the
   computational kernels behind each one with Bechamel.

   Usage:
     dune exec bench/main.exe            # all reports + micro-benchmarks
     dune exec bench/main.exe -- table1  # one artifact
     dune exec bench/main.exe -- fig7 | fig8 | fig9 | engine | lint
                                 | sem | ablation-verify | ablation-slicer
                                 | ablation-audit | containment | chaos
                                 | scale | poltree | obs | micro *)

open Bechamel
open Toolkit
open Heimdall_scenarios

(* ------------------------------------------------------------------ *)
(* Perf-report persistence                                             *)
(* ------------------------------------------------------------------ *)

let report_path = "bench/report.json"

(* Read-merge-write by top-level key: each report section owns one key
   in bench/report.json, so running `bench lint` no longer clobbers the
   engine section written by a previous `bench engine` (and vice versa).
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

let report_fig7 () =
  print_string "== Figure 7: time to solve three real issues (enterprise) ==\n";
  let cells = Experiments.fig7 ~engine:(fresh_engine ()) () in
  print_string (Experiments.render_fig7 cells);
  List.iter
    (fun (issue, o) -> Printf.printf "Heimdall overhead on %s: +%.1f s\n" issue o)
    (Experiments.fig7_overhead cells);
  let overheads = List.map snd (Experiments.fig7_overhead cells) in
  Printf.printf "average overhead: +%.1f s (paper: +28 s)\n\n"
    (List.fold_left ( +. ) 0.0 overheads /. float_of_int (List.length overheads))

let report_fig7_university () =
  print_string
    "== Figure 7 (university variant; the paper omits it \"due to similarity\") ==\n";
  let cells = Experiments.fig7 ~engine:(fresh_engine ()) ~network:`University () in
  print_string (Experiments.render_fig7 cells);
  List.iter
    (fun (issue, o) -> Printf.printf "Heimdall overhead on %s: +%.1f s\n" issue o)
    (Experiments.fig7_overhead cells);
  print_newline ()

let report_fig8 () =
  print_string "== Figure 8: feasibility and attack surface (enterprise) ==\n";
  let engine = Heimdall_verify.Engine.create () in
  print_string
    (Experiments.render_sweep ~title:"bring down each interface; All vs Neighbor vs Heimdall"
       (Experiments.fig8 ~engine ()));
  print_string (Heimdall_verify.Engine.render_stats (Heimdall_verify.Engine.stats engine));
  print_newline ()

let report_fig9 () =
  print_string "== Figure 9: feasibility and attack surface (university) ==\n";
  let engine = Heimdall_verify.Engine.create () in
  print_string
    (Experiments.render_sweep ~title:"bring down each interface; All vs Neighbor vs Heimdall"
       (Experiments.fig9 ~engine ()));
  print_string (Heimdall_verify.Engine.render_stats (Heimdall_verify.Engine.stats engine));
  print_newline ()

(* Set by [report_engine] when its pass/fail gate trips; the entry point
   turns it into a non-zero exit so `make bench-smoke` (and CI) fail. *)
let gate_failed = ref false

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
    let engine = Engine.create ~domains ~obs ?cache_dir () in
    let cold_s, cold =
      Heimdall_obs.Clock.elapsed (fun () ->
          Metrics.sweep_all ~engine ~production:net ~policies ())
    in
    let warm_s, warm =
      Heimdall_obs.Clock.elapsed (fun () ->
          Metrics.sweep_all ~engine ~production:net ~policies ())
    in
    let stats = Engine.stats engine in
    Engine.shutdown engine;
    (cold_s, warm_s, cold, warm, stats, obs)
  in
  let s1, s1w, cold1, warm1, stats1, _ = run ~cache_dir 1 in
  (* At least 2 so the parallel path is exercised even on a 1-core host
     (where no speedup can be expected). *)
  let n = max 2 (Engine.default_domains ()) in
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
  Printf.printf "engine gate: %s\n" (if passed then "PASS" else "FAIL");
  if not passed then gate_failed := true;
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

let report_lint () =
  print_string "== Lint: static-analysis wall time (1 domain vs N domains) ==\n";
  let n = max 2 (Heimdall_verify.Engine.default_domains ()) in
  let measure name net =
    let run domains =
      let engine = Heimdall_verify.Engine.create ~domains () in
      Heimdall_obs.Clock.elapsed (fun () ->
          Heimdall_lint.Lint.check_network ~engine net)
    in
    let f1, t1 = run 1 in
    let fn, tn = run n in
    Printf.printf
      "  %-10s %d findings; 1 domain: %.4f s; %d domains: %.4f s; identical: %b\n"
      name (List.length f1) t1 n tn
      (List.equal Heimdall_lint.Diagnostic.equal f1 fn);
    (name, List.length f1, t1, tn)
  in
  let enterprise = measure "enterprise" (fst (Experiments.enterprise ())) in
  let university = measure "university" (fst (Experiments.university ())) in
  let rows = [ enterprise; university ] in
  (* Persist into the JSON perf report so the trajectory accrues per run. *)
  let open Heimdall_json in
  persist_report ~key:"lint"
    (Json.Obj
       [
         ("domains", Json.Int n);
         ( "networks",
           Json.List
             (List.map
                (fun (name, findings, t1, tn) ->
                  Json.Obj
                    [
                      ("network", Json.String name);
                      ("findings", Json.Int findings);
                      ("wall_s_1_domain", Json.Float t1);
                      ("wall_s_n_domains", Json.Float tn);
                    ])
                rows) );
       ]);
  print_newline ()

let report_sem () =
  print_string "== Semantic analysis: packet-set algebra + network-wide pass ==\n";
  let n = max 2 (Heimdall_verify.Engine.default_domains ()) in
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
    let run domains =
      let engine = Heimdall_verify.Engine.create ~domains () in
      Heimdall_obs.Clock.elapsed (fun () ->
          Heimdall_lint.Lint.check_network ~engine net)
    in
    let f1, t1 = run 1 in
    let fn, tn = run n in
    let identical = List.equal Heimdall_lint.Diagnostic.equal f1 fn in
    Printf.printf
      "  %-10s %d ACLs / %d rules -> %d cubes; permit-sets %.4f s; dead-rules %.4f s\n"
      name (List.length acls) rules cubes t_permit t_dead;
    Printf.printf
      "  %-10s network pass: 1 domain %.4f s; %d domains %.4f s; identical: %b\n"
      name t1 n tn identical;
    let open Heimdall_json in
    Json.Obj
      [
        ("network", Json.String name);
        ("acls", Json.Int (List.length acls));
        ("rules", Json.Int rules);
        ("permit_set_cubes", Json.Int cubes);
        ("wall_s_permit_sets", Json.Float t_permit);
        ("wall_s_dead_rules", Json.Float t_dead);
        ("wall_s_pass_1_domain", Json.Float t1);
        ("wall_s_pass_n_domains", Json.Float tn);
        ("identical_across_domains", Json.Bool identical);
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
    let open Heimdall_sem in
    let module Packet_set = Heimdall_net.Packet_set in
    let sc = Option.get (Experiments.scenario_of_name name) in
    let tickets =
      List.map
        (fun (issue : Heimdall_msp.Issue.t) ->
          let broken = issue.Heimdall_msp.Issue.inject sc.Experiments.net in
          let slice =
            Heimdall_twin.Twin.slice_nodes ~production:broken
              ~endpoints:issue.Heimdall_msp.Issue.ticket.Heimdall_msp.Ticket.endpoints
              ()
          in
          let spec =
            Heimdall_msp.Priv_gen.for_ticket ~network:broken ~slice
              issue.Heimdall_msp.Issue.ticket
          in
          {
            Heimdall_lint.Plan_lint.label = issue.Heimdall_msp.Issue.name;
            spec;
            scope = slice;
            commands = issue.Heimdall_msp.Issue.fix_commands;
          })
        sc.Experiments.issues
    in
    let run domains =
      let engine = Heimdall_verify.Engine.create ~domains () in
      Heimdall_obs.Clock.elapsed (fun () ->
          Heimdall_lint.Lint.check_plans ~engine ~network:sc.Experiments.net
            ~policies:sc.Experiments.policies tickets)
    in
    let f1, t1 = run 1 in
    let fn, tn = run n in
    let identical = List.equal Heimdall_lint.Diagnostic.equal f1 fn in
    (* Soundness tally: predicted static delta vs the exact ACL diff the
       twin replay produces. *)
    let agree =
      List.fold_left
        (fun acc (issue : Heimdall_msp.Issue.t) ->
          let broken = issue.Heimdall_msp.Issue.inject sc.Experiments.net in
          let em =
            Heimdall_twin.Twin.build ~production:broken
              ~endpoints:issue.Heimdall_msp.Issue.ticket.Heimdall_msp.Ticket.endpoints
              ()
          in
          let session =
            Heimdall_twin.Twin.open_session
              ~privilege:Heimdall_privilege.Privilege.allow_all em
          in
          ignore
            (Heimdall_twin.Session.exec_many session
               issue.Heimdall_msp.Issue.fix_commands);
          let script =
            Plan_sem.script_of_commands issue.Heimdall_msp.Issue.fix_commands
          in
          let a = Plan_sem.analyze ~network:broken script.Plan_sem.script_changes in
          let before = Heimdall_twin.Emulation.baseline em in
          let after = Heimdall_twin.Emulation.network em in
          let open Heimdall_control in
          let exact =
            List.fold_left
              (fun acc node ->
                let find net =
                  Option.bind (Network.config node net) (fun cfg ->
                      Some (cfg : Heimdall_config.Ast.t).acls)
                  |> Option.value ~default:[]
                in
                let names =
                  List.sort_uniq String.compare
                    (List.map
                       (fun (acl : Heimdall_net.Acl.t) -> acl.name)
                       (find before @ find after))
                in
                List.fold_left
                  (fun acc acl_name ->
                    let acl_of net =
                      match Network.config node net with
                      | Some cfg ->
                          Option.value
                            (Heimdall_config.Ast.find_acl acl_name cfg)
                            ~default:(Heimdall_net.Acl.empty acl_name)
                      | None -> Heimdall_net.Acl.empty acl_name
                    in
                    let d =
                      Acl_sem.diff ~before:(acl_of before) ~after:(acl_of after)
                    in
                    Packet_set.union acc
                      (Packet_set.union d.Acl_sem.newly_permitted
                         d.Acl_sem.newly_denied))
                  acc names)
              Packet_set.empty (Network.node_names before)
          in
          if Packet_set.subset exact a.Plan_sem.delta then acc + 1 else acc)
        0 sc.Experiments.issues
    in
    Printf.printf
      "  %-10s %d tickets, %d findings; 1 domain %.4f s; %d domains %.4f s; identical: %b; delta sound: %d/%d\n"
      name (List.length tickets) (List.length f1) t1 n tn identical agree
      (List.length tickets);
    let open Heimdall_json in
    Json.Obj
      [
        ("network", Json.String name);
        ("tickets", Json.Int (List.length tickets));
        ("findings", Json.Int (List.length f1));
        ("wall_s_1_domain", Json.Float t1);
        ("wall_s_n_domains", Json.Float tn);
        ("identical_across_domains", Json.Bool identical);
        ("delta_sound", Json.Int agree);
      ]
  in
  let plan_enterprise = measure_plan "enterprise" in
  let plan_university = measure_plan "university" in
  let plan_rows = [ plan_enterprise; plan_university ] in
  let open Heimdall_json in
  persist_report ~key:"sem"
    (Json.Obj
       [
         ("domains", Json.Int (max 2 (Heimdall_verify.Engine.default_domains ())));
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
  let sc =
    match Experiments.scenario_of_name "enterprise" with
    | Some sc -> sc
    | None -> assert false
  in
  let run_all domains =
    let engine = Heimdall_verify.Engine.create ~domains () in
    Heimdall_obs.Clock.elapsed (fun () ->
        List.map
          (fun issue -> Chaos.run ~engine ~scenario:sc ~issue ~seed ())
          sc.Experiments.issues)
  in
  let results1, wall1 = run_all 1 in
  let n = max 2 (Heimdall_verify.Engine.default_domains ()) in
  let resultsn, walln = run_all n in
  List.iter (fun r -> print_string (Chaos.render r)) resultsn;
  let head (r : Chaos.result) =
    Heimdall_enforcer.Audit.head r.Chaos.outcome.Heimdall_enforcer.Enforcer.audit
  in
  let deterministic =
    List.equal (fun a b -> head a = head b) results1 resultsn
  in
  Printf.printf
    "1 domain: %.3f s; %d domains: %.3f s; audit heads identical: %b\n" wall1 n
    walln deterministic;
  let open Heimdall_json in
  persist_report ~key:"chaos"
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ("wall_s_1_domain", Json.Float wall1);
         ("wall_s_n_domains", Json.Float walln);
         ("domains", Json.Int n);
         ("deterministic_across_domains", Json.Bool deterministic);
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
                resultsn) );
       ]);
  print_newline ()

let report_obs () =
  print_string "== Observability: workflow overhead with the Watchtower on vs off ==\n";
  let open Heimdall_verify in
  let sc =
    match Experiments.scenario_of_name "enterprise" with
    | Some sc -> sc
    | None -> assert false
  in
  (* One replay = every enterprise issue through the Heimdall workflow on
     a single-domain engine (so the measurement is not at the mercy of
     pool scheduling).  With obs on, the full Watchtower surface is live:
     spans, labeled metrics, events, plus one runtime-sampler tick. *)
  let replay ?obs () =
    let engine = Engine.create ~domains:1 ?obs () in
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
    Engine.shutdown engine;
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
  Printf.printf "obs gate: %s\n" (if passed then "PASS" else "FAIL");
  if not passed then gate_failed := true;
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
   generation, dataplane, policy check and lint with wall times, peak
   RSS, engine cache stats, and a 1-vs-N-domain verdict identity check;
   the two smaller fleets also push an injected issue through the full
   workflow.  Everything gates: a nondeterministic generator, a policy
   violation, a lint error or a cross-domain verdict drift fails the
   bench (and CI). *)
let report_scale () =
  let open Heimdall_verify in
  let open Heimdall_control in
  print_string "== Fleet scale: generated fleets vs device count ==\n";
  let n = max 2 (Engine.default_domains ()) in
  let single_core = Engine.default_domains () < 2 in
  let all_ok = ref true in
  let sections =
    List.map
      (fun (spec, run_issue) ->
        let params =
          match Fleetgen.spec_of_string spec with
          | Ok p -> p
          | Error m -> failwith ("bad bench spec " ^ spec ^ ": " ^ m)
        in
        let fleet, gen_s =
          Heimdall_obs.Clock.elapsed (fun () -> Fleetgen.generate params)
        in
        let devices = Fleetgen.device_count fleet in
        let links = Fleetgen.link_count fleet in
        let deterministic =
          Network.digest fleet.Fleetgen.net
          = Network.digest (Fleetgen.generate params).Fleetgen.net
        in
        let run domains =
          let engine = Engine.create ~domains () in
          let dp, dp_s =
            Heimdall_obs.Clock.elapsed (fun () ->
                Engine.dataplane engine fleet.Fleetgen.net)
          in
          let report, check_s =
            Heimdall_obs.Clock.elapsed (fun () ->
                Policy.check_all ~engine dp fleet.Fleetgen.policies)
          in
          let stats = Engine.stats engine in
          Engine.shutdown engine;
          (dp_s, check_s, report, stats)
        in
        let dp_s1, check_s1, report1, _ = run 1 in
        let dp_sn, check_sn, reportn, statsn = run n in
        let fingerprint (r : Policy.report) =
          ( r.Policy.total,
            List.map
              (fun (p, reason) -> (Policy.to_string p, reason))
              r.Policy.violations )
        in
        let verdicts_ok = fingerprint report1 = fingerprint reportn in
        let findings, lint_s =
          Heimdall_obs.Clock.elapsed (fun () ->
              Heimdall_lint.Lint.check_network ~engine:(fresh_engine ()) fleet.Fleetgen.net)
        in
        let lint_errors =
          List.length
            (List.filter
               (fun (d : Heimdall_lint.Diagnostic.t) ->
                 d.severity = Heimdall_lint.Diagnostic.Error)
               findings)
        in
        let workflow_s =
          if not run_issue then None
          else
            let issue = List.hd fleet.Fleetgen.issues in
            let run, s =
              Heimdall_obs.Clock.elapsed (fun () ->
                  Heimdall_msp.Workflow.run_heimdall ~engine:(fresh_engine ())
                    ~production:fleet.Fleetgen.net
                    ~policies:fleet.Fleetgen.policies ~issue ())
            in
            if not run.Heimdall_msp.Workflow.resolved then all_ok := false;
            Some s
        in
        let speedup = dp_s1 /. Float.max 1e-9 dp_sn in
        let rss_kb = Option.value ~default:0 (Fleetgen.peak_rss_kb ()) in
        let ok =
          deterministic && verdicts_ok && lint_errors = 0
          && report1.Policy.violations = []
        in
        if not ok then all_ok := false;
        Printf.printf
          "%-38s %4d dev %4d links  gen %6.3f s  dp %6.3f s  check %6.3f s  \
           lint %6.3f s%s\n"
          spec devices links gen_s dp_s1 check_s1 lint_s
          (match workflow_s with
          | Some s -> Printf.sprintf "  workflow %6.3f s" s
          | None -> "");
        Printf.printf
          "  deterministic: %b  verdicts 1=%d domains: %b  violations: %d  \
           lint errors: %d  dp speedup %.2fx%s  peak RSS %.1f MB\n"
          deterministic n verdicts_ok
          (List.length report1.Policy.violations)
          lint_errors speedup
          (if single_core then " (single-core host)" else "")
          (float_of_int rss_kb /. 1024.);
        let open Heimdall_json in
        Json.Obj
          ([
             ("spec", Json.String spec);
             ("devices", Json.Int devices);
             ("links", Json.Int links);
             ("policies", Json.Int report1.Policy.total);
             ("wall_s_generate", Json.Float gen_s);
             ("wall_s_dataplane_1_domain", Json.Float dp_s1);
             ("wall_s_dataplane_n_domains", Json.Float dp_sn);
             ("wall_s_check_1_domain", Json.Float check_s1);
             ("wall_s_check_n_domains", Json.Float check_sn);
             ("wall_s_lint", Json.Float lint_s);
             ("dataplane_speedup",
              if single_core then Json.String "skipped-single-core"
              else Json.Float speedup);
             ("deterministic", Json.Bool deterministic);
             ("verdicts_identical_across_domains", Json.Bool verdicts_ok);
             ("violations", Json.Int (List.length report1.Policy.violations));
             ("lint_errors", Json.Int lint_errors);
             ("peak_rss_kb", Json.Int rss_kb);
             ("engine_stats_n_domains", Engine.stats_to_json statsn);
           ]
          @
          match workflow_s with
          | Some s -> [ ("wall_s_workflow_one_issue", Json.Float s) ]
          | None -> []))
      [
        ("fat-tree:k=4", true);
        ("fat-tree:k=8", true);
        ("multi-campus:campuses=20:buildings=8", false);
      ]
  in
  Printf.printf "scale gate: %s\n" (if !all_ok then "PASS" else "FAIL");
  if not !all_ok then gate_failed := true;
  let open Heimdall_json in
  persist_report ~key:"scale"
    (Json.Obj
       [
         ("domains", Json.Int n);
         ("passed", Json.Bool !all_ok);
         ("sizes", Json.List sections);
       ]);
  print_newline ()

let report_poltree () =
  let open Heimdall_verify in
  let open Heimdall_poltree in
  print_string "== Policy tree: compile + POL analysis vs fleet size ==\n";
  let n = max 2 (Engine.default_domains ()) in
  let all_ok = ref true in
  let rule_registry =
    List.filter
      (fun (r : Heimdall_lint.Lint.rule) -> r.family = Heimdall_lint.Lint.Pol)
      Heimdall_lint.Lint.rules
  in
  let sections =
    List.map
      (fun spec ->
        let params =
          match Fleetgen.spec_of_string spec with
          | Ok p -> p
          | Error m -> failwith ("bad bench spec " ^ spec ^ ": " ^ m)
        in
        let fleet = Fleetgen.generate params in
        let compiled, compile_s =
          Heimdall_obs.Clock.elapsed (fun () ->
              Compile.compile_exn fleet.Fleetgen.poltree)
        in
        let run domains =
          let engine = Engine.create ~domains () in
          let findings, s =
            Heimdall_obs.Clock.elapsed (fun () ->
                Analysis.check ~engine ~policies:fleet.Fleetgen.policies compiled)
          in
          Engine.shutdown engine;
          (findings, s)
        in
        let findings1, check_s1 = run 1 in
        let findingsn, check_sn = run n in
        let identical = findings1 = findingsn in
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
          compile_s check_s1 n check_sn;
        Printf.printf
          "  verdicts 1=%d domains: %b  POL004 errors: %d  findings: %d\n" n
          identical pol004_errors (List.length findings1);
        let open Heimdall_json in
        Json.Obj
          [
            ("spec", Json.String spec);
            ("nodes", Json.Int (List.length compiled.Compile.nodes));
            ("leaves", Json.Int (List.length compiled.Compile.leaves));
            ("rules", Json.Int (Poltree.rule_count fleet.Fleetgen.poltree));
            ("wall_s_compile", Json.Float compile_s);
            ("wall_s_check_1_domain", Json.Float check_s1);
            ("wall_s_check_n_domains", Json.Float check_sn);
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
  Printf.printf "poltree gate: %s\n" (if !all_ok then "PASS" else "FAIL");
  if not !all_ok then gate_failed := true;
  let open Heimdall_json in
  let families =
    List.sort_uniq compare
      (List.map
         (fun (r : Heimdall_lint.Lint.rule) -> r.family)
         Heimdall_lint.Lint.rules)
  in
  persist_report ~key:"poltree"
    (Json.Obj
       [
         ("domains", Json.Int n);
         ("passed", Json.Bool !all_ok);
         ("rule_registry_total", Json.Int (List.length Heimdall_lint.Lint.rules));
         ("rule_registry_families", Json.Int (List.length families));
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
    ("fig7", report_fig7);
    ("fig7-university", report_fig7_university);
    ("fig8", report_fig8);
    ("fig9", report_fig9);
    ("engine", report_engine);
    ("lint", report_lint);
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
