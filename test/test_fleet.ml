(* Tests for the fleet-scale generator: spec parsing, seeded
   determinism (same params ⇒ byte-identical networks and policies),
   shape inventories, and a small fat-tree through the whole
   lint → twin → verify → schedule → audit pipeline. *)

open Heimdall_control
open Heimdall_scenarios

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let params_of spec =
  match Fleetgen.spec_of_string spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "spec %S rejected: %s" spec m

(* ---------------- spec parsing ---------------- *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let p = params_of spec in
      checks "canonical spec survives a round trip"
        (Fleetgen.spec_to_string p)
        (Fleetgen.spec_to_string (params_of (Fleetgen.spec_to_string p))))
    [
      "fat-tree";
      "fat-tree:k=8:seed=7";
      "leaf-spine:spines=4:leaves=8";
      "multi-campus:campuses=3:buildings=2:hosts=1:policies=0:mode=mined";
    ];
  (* The "fleet:" prefix is accepted and ignored. *)
  checks "fleet: prefix"
    (Fleetgen.spec_to_string (params_of "fat-tree:k=6"))
    (Fleetgen.spec_to_string (params_of "fleet:fat-tree:k=6"));
  List.iter
    (fun bad ->
      checkb (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Fleetgen.spec_of_string bad)))
    [ "ring:k=4"; "fat-tree:k=5"; "fat-tree:k=nope"; "fat-tree:frobs=2";
      "leaf-spine:leaves=0"; "multi-campus:campuses=1:buildings=1" ]

(* ---------------- determinism ---------------- *)

let test_determinism () =
  let params = params_of "fat-tree:k=4:seed=42" in
  let f1 = Fleetgen.generate params in
  let f2 = Fleetgen.generate params in
  checks "structural digest identical across generations"
    (Digest.to_hex (Network.digest f1.Fleetgen.net))
    (Digest.to_hex (Network.digest f2.Fleetgen.net));
  checkb "policies identical across generations" true
    (List.equal Heimdall_verify.Policy.equal f1.Fleetgen.policies
       f2.Fleetgen.policies);
  let render f dev =
    match Network.config dev f.Fleetgen.net with
    | Some cfg -> Heimdall_config.Printer.render cfg
    | None -> Alcotest.failf "device %s missing" dev
  in
  List.iter
    (fun dev -> checks ("config of " ^ dev) (render f1 dev) (render f2 dev))
    [ "core-1"; "agg-p0-0"; "edge-p3-1"; "isp" ];
  (* The seed drives issue placement only: a different seed yields the
     same network bytes but may strike elsewhere. *)
  let f7 = Fleetgen.generate (params_of "fat-tree:k=4:seed=7") in
  checks "seed does not leak into the network"
    (Digest.to_hex (Network.digest f1.Fleetgen.net))
    (Digest.to_hex (Network.digest f7.Fleetgen.net))

(* ---------------- shape inventories ---------------- *)

let test_shape_inventories () =
  (* fat-tree k=4: 4 cores + 4 pods × (2 agg + 2 edge) + isp = 21
     infrastructure devices; 8 edge subnets × 2 hosts. *)
  let ft = Fleetgen.generate (params_of "fat-tree:k=4") in
  checki "fat-tree devices" 37 (Fleetgen.device_count ft);
  checki "fat-tree links" 49 (Fleetgen.link_count ft);
  checki "fat-tree edges" 8 (List.length ft.Fleetgen.edges);
  (* leaf-spine: spines + leaves + leaves×hosts + isp. *)
  let ls = Fleetgen.generate (params_of "leaf-spine:spines=2:leaves=4") in
  checki "leaf-spine devices" (2 + 4 + (4 * 2) + 1) (Fleetgen.device_count ls);
  checki "leaf-spine edges" 4 (List.length ls.Fleetgen.edges);
  (* multi-campus: 2 wan + campuses×(1 gw + buildings acc) + hosts + isp. *)
  let mc = Fleetgen.generate (params_of "multi-campus:campuses=2:buildings=3") in
  checki "multi-campus devices"
    (2 + (2 * 4) + (2 * 3 * 2) + 1)
    (Fleetgen.device_count mc);
  List.iter
    (fun (name, f) ->
      checkb (name ^ " validates") true
        (Network.validate f.Fleetgen.net = Ok ());
      checki (name ^ " issues") 3 (List.length f.Fleetgen.issues);
      checkb (name ^ " has policies") true (f.Fleetgen.policies <> []))
    [ ("fat-tree", ft); ("leaf-spine", ls); ("multi-campus", mc) ]

(* ---------------- scenario wiring ---------------- *)

let test_scenario_of_name () =
  match Experiments.scenario_of_name "fleet:fat-tree:k=4:seed=7" with
  | None -> Alcotest.fail "fleet spec not recognised"
  | Some sc ->
      checks "scenario name carries the canonical spec"
        "fleet:fat-tree:k=4:hosts=2:policies=2:mode=closed:seed=7"
        sc.Experiments.scenario_name;
      checki "issues" 3 (List.length sc.Experiments.issues);
      checkb "bad fleet specs are rejected, not crashes" true
        (Experiments.scenario_of_name "fleet:fat-tree:k=5" = None)

(* ---------------- full pipeline on a small fat-tree ---------------- *)

let test_pipeline_fat_tree () =
  let fleet = Fleetgen.generate (params_of "fat-tree:k=4:seed=42") in
  let net = fleet.Fleetgen.net in
  (* Lint: no error-severity findings on a freshly generated fleet. *)
  let errors =
    List.filter
      (fun (d : Heimdall_lint.Diagnostic.t) ->
        d.severity = Heimdall_lint.Diagnostic.Error)
      (Heimdall_lint.Lint.check_network ~engine net)
  in
  checkb "lint clean" true (errors = []);
  (* Verify: every policy holds, and the verdicts are identical whether
     checked on one domain or several. *)
  let check domains =
    let engine = Heimdall_verify.Engine.create ~domains () in
    let dp = Heimdall_verify.Engine.dataplane engine net in
    let report =
      Heimdall_verify.Policy.check_all ~engine dp fleet.Fleetgen.policies
    in
    Heimdall_verify.Engine.shutdown engine;
    List.map
      (fun (p, reason) -> (Heimdall_verify.Policy.to_string p, reason))
      report.Heimdall_verify.Policy.violations
  in
  let v1 = check 1 in
  checkb "zero violations" true (v1 = []);
  checkb "verdicts identical across domain counts" true (v1 = check 2);
  (* Every injected issue resolves through the full workflow with
     nothing denied. *)
  List.iter
    (fun (issue : Heimdall_msp.Issue.t) ->
      let run =
        Heimdall_msp.Workflow.run_heimdall ~engine ~production:net
          ~policies:fleet.Fleetgen.policies ~issue ()
      in
      checkb (issue.Heimdall_msp.Issue.name ^ " resolved") true
        run.Heimdall_msp.Workflow.resolved;
      checki (issue.Heimdall_msp.Issue.name ^ " denied") 0
        run.Heimdall_msp.Workflow.denied)
    fleet.Fleetgen.issues

let suite =
  [
    Alcotest.test_case "spec round trip and rejection" `Quick test_spec_roundtrip;
    Alcotest.test_case "seeded determinism" `Quick test_determinism;
    Alcotest.test_case "shape inventories" `Quick test_shape_inventories;
    Alcotest.test_case "fleet scenario wiring" `Quick test_scenario_of_name;
    Alcotest.test_case "fat-tree k=4 full pipeline" `Slow test_pipeline_fat_tree;
  ]
