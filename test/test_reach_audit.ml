(* Tests for the reachability matrix / impact analysis and for audit
   persistence. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify
open Heimdall_enforcer
module Enterprise = Heimdall_scenarios.Enterprise

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fixture = lazy (Heimdall_scenarios.Experiments.enterprise ())

(* ---------------- Reachability matrix ---------------- *)

let test_matrix_shape () =
  let net, _ = Lazy.force fixture in
  let m = Reachability.compute ~engine (Dataplane.compute net) in
  (* 9 hosts -> 72 ordered pairs. *)
  checki "pairs" 72 (Reachability.pair_count m);
  (* All pairs reachable except the ACL-blocked S1 -> S5 host pairs
     (2 sources x 2 servers = 4). *)
  checki "reachable" 68 (Reachability.reachable_count m);
  checkb "h1 -> h3" true (Reachability.reachable ~src:"h1" ~dst:"h3" m = Some true);
  checkb "h1 -> h8 blocked" true (Reachability.reachable ~src:"h1" ~dst:"h8" m = Some false);
  checkb "unknown host" true (Reachability.reachable ~src:"zz" ~dst:"h3" m = None)

let test_impact_none_on_identity () =
  let net, _ = Lazy.force fixture in
  let m = Reachability.compute ~engine (Dataplane.compute net) in
  let i = Reachability.diff ~before:m ~after:m in
  checkb "no change" true (i.Reachability.gained = [] && i.Reachability.lost = []);
  Alcotest.check Alcotest.string "rendering" "no reachability change"
    (Reachability.impact_to_string i)

let test_impact_detects_loss_and_gain () =
  let net, _ = Lazy.force fixture in
  (* Losing r7's uplink cuts h7 off (backup r6-r7 link is not in the IGP). *)
  let loss_changes =
    [ Change.v "r7" (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) ]
  in
  let impact changes =
    Result.map (Reachability.impact ~engine ~production:net) (Network.apply_changes changes net)
  in
  (match impact loss_changes with
  | Ok i ->
      checkb "lost pairs" true (List.length i.Reachability.lost > 0);
      checkb "h7 affected" true
        (List.exists (fun (a, b) -> a = "h7" || b = "h7") i.Reachability.lost);
      checkb "nothing gained" true (i.Reachability.gained = [])
  | Error m -> Alcotest.fail m);
  (* Permitting the blocked office pair adds reachability. *)
  let gain_changes =
    [
      Change.v "r8"
        (Change.Acl_set_rule
           {
             acl = "SRV_PROT";
             rule =
               Acl.rule ~seq:5 Acl.Permit (Prefix.of_string "10.1.10.0/24")
                 (Prefix.of_string "10.3.10.0/24");
           });
    ]
  in
  match impact gain_changes with
  | Ok i ->
      checki "four pairs gained" 4 (List.length i.Reachability.gained);
      checkb "nothing lost" true (i.Reachability.lost = [])
  | Error m -> Alcotest.fail m

let test_enforcer_reports_impact () =
  let net, policies = Lazy.force fixture in
  let issue = List.nth (Enterprise.issues net) 1 (* ospf *) in
  let run = Heimdall_msp.Workflow.run_heimdall ~engine ~production:net ~policies ~issue () in
  match run.Heimdall_msp.Workflow.outcome with
  | Some o ->
      checkb "approved" true o.Enforcer.approved;
      (match o.Enforcer.impact with
      | Some i ->
          (* The fix restores h7's connectivity. *)
          checkb "gained pairs" true (List.length i.Reachability.gained > 0);
          checkb "nothing lost" true (i.Reachability.lost = [])
      | None -> Alcotest.fail "no impact on approved outcome")
  | None -> Alcotest.fail "no outcome"

(* ---------------- Delta-scoped impact ---------------- *)

(* What [Reachability.impact] must equal: [diff] of two full matrices. *)
let full_impact production updated =
  let engine = Engine.create ~domains:1 () in
  Reachability.diff
    ~before:(Reachability.compute ~engine (Dataplane.compute production))
    ~after:(Reachability.compute ~engine (Dataplane.compute updated))

(* The impact on a fresh engine, with the traces it ran. *)
let counted_impact production updated =
  let engine = Engine.create ~domains:1 () in
  let i = Reachability.impact ~engine ~production updated in
  (i, (Engine.stats engine).Engine.traces_run)

let srv_permit =
  Change.v "r8"
    (Change.Acl_set_rule
       {
         acl = "SRV_PROT";
         rule =
           Acl.rule ~seq:5 Acl.Permit (Prefix.of_string "10.1.10.0/24")
             (Prefix.of_string "10.3.10.0/24");
       })

let test_delta_acl_change () =
  let net, policies = Lazy.force fixture in
  let updated = Result.get_ok (Network.apply_changes [ srv_permit ] net) in
  let i, traces = counted_impact net updated in
  checkb "impact = full diff" true (i = full_impact net updated);
  checki "four pairs gained" 4 (List.length i.Reachability.gained);
  (* 72 pairs traced on production; only those through r8 again.  Two
     full matrices would be 144 traces. *)
  checkb "fewer than two matrices" true (traces < 2 * 72);
  checkb "production matrix traced" true (traces > 72);
  let before = Dataplane.compute net and after = Dataplane.compute updated in
  checkb "check_both = two check_all" true
    (Policy.check_both ~engine ~before ~after policies
    = (Policy.check_all ~engine before policies, Policy.check_all ~engine after policies))

let test_delta_moved_address () =
  let net, _ = Lazy.force fixture in
  (* r4 (first by name) takes r8's SVI address, the default gateway of h8
     and h9: the owner of 10.3.10.1 moves.  h8's path to h3 never visits
     r4, so only branch (d) — nodes forwarding to a moved next hop — marks
     it for re-tracing. *)
  let gw = Ipv4.of_string "10.3.10.1" in
  let r4 = Network.config_exn "r4" net in
  let updated =
    Network.with_config "r4"
      (Ast.update_interface (Ast.interface ~addr:(Ifaddr.of_string "10.3.10.1/32") "lo9") r4)
      net
  in
  let before = Dataplane.compute net in
  let after = Dataplane.recompute ~base:before updated in
  (match Dataplane.delta ~before ~after with
  | Some d ->
      checkb "gateway moved" true (Dataplane.address_moved d gw);
      checkb "h8 forwards to it" true (Dataplane.touches d "h8" (Ipv4.of_string "10.1.20.11"))
  | None -> Alcotest.fail "same topology, delta expected");
  let i, _ = counted_impact net updated in
  checkb "impact = full diff" true (i = full_impact net updated);
  checkb "h8 -> h3 lost" true (List.mem ("h8", "h3") i.Reachability.lost)

let test_delta_node_set_change () =
  let net, _ = Lazy.force fixture in
  let updated = Network.restrict (List.filter (( <> ) "h9") (Network.node_names net)) net in
  checkb "no delta" true
    (Dataplane.delta ~before:(Dataplane.compute net) ~after:(Dataplane.compute updated) = None);
  let i, traces = counted_impact net updated in
  checkb "impact = full diff" true (i = full_impact net updated);
  (* The fallback: both matrices, 9 hosts then 8. *)
  checki "two full matrices" (72 + 56) traces

(* ---------------- Audit persistence ---------------- *)

let sample_audit () =
  let rec go audit i =
    if i > 8 then audit
    else
      go
        (Audit.append ~actor:"tech" ~action:"acl.rule" ~resource:"r8"
           ~detail:(Printf.sprintf "edit %d with \"quotes\" and\nnewline" i)
           ~verdict:"allowed" audit)
        (i + 1)
  in
  go Audit.empty 1

let test_audit_export_import () =
  let audit = sample_audit () in
  let text = Audit.export audit in
  match Audit.import text with
  | Ok imported ->
      checki "length" (Audit.length audit) (Audit.length imported);
      Alcotest.check Alcotest.string "head preserved" (Audit.head audit)
        (Audit.head imported);
      checkb "records equal" true (Audit.records audit = Audit.records imported)
  | Error m -> Alcotest.fail m

let test_audit_import_rejects_tampering () =
  let audit = sample_audit () in
  let text = Audit.export audit in
  let lines = String.split_on_char '\n' text in
  (* Drop a middle record. *)
  let dropped = List.filteri (fun i _ -> i <> 3) lines |> String.concat "\n" in
  checkb "dropped record rejected" true (Result.is_error (Audit.import dropped));
  (* Reorder two records. *)
  let reordered =
    match lines with
    | a :: b :: rest -> String.concat "\n" (b :: a :: rest)
    | _ -> assert false
  in
  checkb "reordered rejected" true (Result.is_error (Audit.import reordered));
  (* Edit a field in place. *)
  let edited =
    String.concat "\n"
      (List.map
         (fun l ->
           if String.length l > 0 && String.contains l '3' then
             String.concat "denied" (String.split_on_char 'a' l)
           else l)
         lines)
  in
  checkb "edited rejected or unparseable" true (Result.is_error (Audit.import edited));
  checkb "garbage rejected" true (Result.is_error (Audit.import "not json\n"))

let test_audit_import_empty () =
  match Audit.import "" with
  | Ok t -> checki "empty trail" 0 (Audit.length t)
  | Error m -> Alcotest.fail m

let test_audit_export_through_enforcer () =
  (* A real enforcer-produced trail round-trips. *)
  let net, policies = Lazy.force fixture in
  let issue = List.hd (Enterprise.issues net) in
  let run = Heimdall_msp.Workflow.run_heimdall ~engine ~production:net ~policies ~issue () in
  match run.Heimdall_msp.Workflow.outcome with
  | Some o -> (
      match Audit.import (Audit.export o.Enforcer.audit) with
      | Ok imported ->
          Alcotest.check Alcotest.string "head" (Audit.head o.Enforcer.audit)
            (Audit.head imported)
      | Error m -> Alcotest.fail m)
  | None -> Alcotest.fail "no outcome"

let suite =
  [
    Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
    Alcotest.test_case "impact identity" `Quick test_impact_none_on_identity;
    Alcotest.test_case "impact loss and gain" `Quick test_impact_detects_loss_and_gain;
    Alcotest.test_case "enforcer reports impact" `Quick test_enforcer_reports_impact;
    Alcotest.test_case "delta impact acl change" `Quick test_delta_acl_change;
    Alcotest.test_case "delta impact moved address" `Quick test_delta_moved_address;
    Alcotest.test_case "delta impact node set change" `Quick test_delta_node_set_change;
    Alcotest.test_case "audit export/import" `Quick test_audit_export_import;
    Alcotest.test_case "audit import rejects tampering" `Quick
      test_audit_import_rejects_tampering;
    Alcotest.test_case "audit import empty" `Quick test_audit_import_empty;
    Alcotest.test_case "audit roundtrip via enforcer" `Quick
      test_audit_export_through_enforcer;
  ]
