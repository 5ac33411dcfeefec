(* Tests for the policy enforcer: SHA-256/HMAC vectors, the hash-chained
   audit trail, the simulated enclave, the verifier and the scheduler. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_privilege
open Heimdall_enforcer
module Enterprise = Heimdall_scenarios.Enterprise

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let ip = Ipv4.of_string
let pfx = Prefix.of_string

(* ---------------- SHA-256 / HMAC (FIPS + RFC 4231 vectors) -------- *)

let test_sha256_vectors () =
  checks "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  checks "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  checks "two blocks" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  checks "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'));
  (* Padding boundary lengths. *)
  checks "55 bytes" (Sha256.hex (String.make 55 'x')) (Sha256.hex (String.make 55 'x'));
  checkb "56 differs" true (Sha256.hex (String.make 56 'x') <> Sha256.hex (String.make 55 'x'))

let test_hmac_vectors () =
  checks "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hmac_hex ~key:(String.make 20 '\x0b') "Hi There");
  checks "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hmac_hex ~key:"Jefe" "what do ya want for nothing?");
  (* Long key (> block size) is hashed first. *)
  checks "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.hmac_hex ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

(* ---------------- Audit ---------------- *)

let sample_audit n =
  let rec go audit i =
    if i > n then audit
    else
      go
        (Audit.append ~actor:"tech" ~action:"acl.rule" ~resource:"r8"
           ~detail:(Printf.sprintf "edit %d" i) ~verdict:"allowed" audit)
        (i + 1)
  in
  go Audit.empty 1

let test_audit_chain_verifies () =
  let audit = sample_audit 10 in
  checki "length" 10 (Audit.length audit);
  checkb "verifies" true (Audit.verify audit = Ok ());
  checkb "empty verifies" true (Audit.verify Audit.empty = Ok ());
  checks "empty head" Audit.genesis_hash (Audit.head Audit.empty)

let test_audit_tamper_detected () =
  let audit = sample_audit 10 in
  let cases =
    [
      ("detail", fun (r : Audit.record) -> { r with Audit.detail = "edited" });
      ("verdict", fun r -> { r with Audit.verdict = "denied" });
      ("actor", fun r -> { r with Audit.actor = "ghost" });
      ("seq", fun r -> { r with Audit.seq = 99 });
    ]
  in
  List.iter
    (fun (label, f) ->
      checkb (label ^ " tamper detected") true (Audit.verify (Audit.tamper 5 f audit) <> Ok ()))
    cases

let test_audit_head_changes () =
  let a1 = sample_audit 5 in
  let a2 = Audit.append ~actor:"x" ~action:"verify" ~resource:"p" ~detail:"" ~verdict:"ok" a1 in
  checkb "head moved" true (Audit.head a1 <> Audit.head a2);
  checkb "prev linked" true
    ((List.nth (Audit.records a2) 5).Audit.prev_hash = Audit.head a1)

let test_audit_of_session_log () =
  let net = Enterprise.build () in
  let em =
    Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h2"; "h3" ] ()
  in
  let session = Heimdall_twin.Twin.open_session ~privilege:Privilege.allow_all em in
  ignore (Heimdall_twin.Session.exec_many session [ "connect r4"; "show vlan" ]);
  let audit = Audit.of_session_log (Heimdall_twin.Session.log session) in
  checki "two records" 2 (Audit.length audit);
  checkb "verifies" true (Audit.verify audit = Ok ());
  checks "actor" "tech" (List.hd (Audit.records audit)).Audit.actor

(* Regression: [Audit.import] used to drop blank lines before numbering,
   so a parse error after a blank reported the wrong line.  Lines are
   now numbered against the original text, and CRLF input imports. *)
let test_audit_import_line_numbers () =
  let audit = sample_audit 2 in
  (match String.split_on_char '\n' (Audit.export audit) with
  | [ l1; l2 ] -> (
      (* Two blank lines push the corrupted record to line 5. *)
      let text = String.concat "\n" [ l1; ""; ""; l2; "{not json" ] in
      match Audit.import text with
      | Error m ->
          let contains sub s =
            let n = String.length sub and m = String.length s in
            let rec go i =
              if i + n > m then false
              else if String.sub s i n = sub then true
              else go (i + 1)
            in
            go 0
          in
          checkb "reports the real line" true (contains "line 5" m)
      | Ok _ -> Alcotest.fail "corrupted trail imported")
  | _ -> Alcotest.fail "expected two exported lines");
  (* Blank-tolerant on the happy path, including CRLF line endings. *)
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' (Audit.export audit)) ^ "\r\n"
  in
  match Audit.import crlf with
  | Ok imported -> checki "all records back" 2 (Audit.length imported)
  | Error m -> Alcotest.fail ("CRLF import failed: " ^ m)

(* qcheck: any single-record mutation of detail breaks verification. *)
let prop_audit_tamper =
  QCheck.Test.make ~count:100 ~name:"audit tamper always detected"
    (QCheck.pair (QCheck.int_range 1 20) QCheck.small_string)
    (fun (pos, garbage) ->
      let audit = sample_audit 20 in
      let tampered =
        Audit.tamper pos (fun r -> { r with Audit.detail = r.Audit.detail ^ "x" ^ garbage }) audit
      in
      Audit.verify tampered <> Ok ())

(* ---------------- Enclave ---------------- *)

let test_enclave_seal_roundtrip () =
  let e = Enclave.load ~code_identity:"enforcer-v1" in
  let blob = Enclave.seal e "attack at dawn" in
  checkb "ciphertext differs" true (blob <> "attack at dawn");
  checkb "roundtrip" true (Enclave.unseal e blob = Ok "attack at dawn");
  checkb "empty plaintext" true (Enclave.unseal e (Enclave.seal e "") = Ok "")

let test_enclave_wrong_identity () =
  let e1 = Enclave.load ~code_identity:"enforcer-v1" in
  let e2 = Enclave.load ~code_identity:"evil-enforcer" in
  let blob = Enclave.seal e1 "secret" in
  checkb "other enclave fails" true (Result.is_error (Enclave.unseal e2 blob))

let test_enclave_tampered_blob () =
  let e = Enclave.load ~code_identity:"enforcer-v1" in
  let blob = Enclave.seal e "secret" in
  let flipped =
    String.mapi (fun i c -> if i = String.length blob - 1 then Char.chr (Char.code c lxor 1) else c) blob
  in
  checkb "tamper rejected" true (Result.is_error (Enclave.unseal e flipped));
  checkb "short blob rejected" true (Result.is_error (Enclave.unseal e "tiny"))

let test_enclave_attestation () =
  let e = Enclave.load ~code_identity:"enforcer-v1" in
  let report = Enclave.attest e ~report_data:"audit-head-123" in
  checkb "verifies" true (Enclave.verify_report report);
  checks "measurement" (Enclave.expected_measurement ~code_identity:"enforcer-v1")
    report.Enclave.body_measurement;
  checkb "forged data rejected" false
    (Enclave.verify_report { report with Enclave.report_data = "other" });
  checkb "forged measurement rejected" false
    (Enclave.verify_report
       { report with Enclave.body_measurement = Enclave.expected_measurement ~code_identity:"evil" })

(* ---------------- Verifier ---------------- *)

let fixture () =
  let net = Enterprise.build () in
  (net, Enterprise.policies net)

let test_verifier_accepts_benign () =
  let net, policies = fixture () in
  let changes =
    [ Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 }) ]
  in
  let outcome =
    Verifier.verify ~engine ~production:net ~policies ~privilege:Privilege.allow_all ~changes ()
  in
  checkb "accepted" true outcome.Verifier.accepted;
  checkb "shadow present" true (outcome.Verifier.shadow <> None)

let test_verifier_rejects_privilege_violation () =
  let net, policies = fixture () in
  let privilege =
    Privilege.of_predicates [ Privilege.allow ~actions:[ "show.*" ] ~nodes:[ "*" ] () ]
  in
  let changes =
    [ Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 }) ]
  in
  let outcome = Verifier.verify ~engine ~production:net ~policies ~privilege ~changes () in
  checkb "rejected" false outcome.Verifier.accepted;
  match outcome.Verifier.rejections with
  | [ Verifier.Privilege_violation { action = "ospf.cost"; _ } ] -> ()
  | _ -> Alcotest.fail "expected privilege violation"

let test_verifier_rejects_policy_violation () =
  let net, policies = fixture () in
  (* Open the protected server subnet to the quarantined office. *)
  let changes =
    [
      Change.v "r8"
        (Change.Acl_set_rule
           {
             acl = "SRV_PROT";
             rule = Acl.rule ~seq:5 Acl.Permit (pfx "10.1.10.0/24") (pfx "10.3.10.0/24");
           });
    ]
  in
  let outcome =
    Verifier.verify ~engine ~production:net ~policies ~privilege:Privilege.allow_all ~changes ()
  in
  checkb "rejected" false outcome.Verifier.accepted;
  checkb "policy violation" true
    (List.exists
       (function Verifier.Policy_violation _ -> true | _ -> false)
       outcome.Verifier.rejections)

let test_verifier_allows_preexisting_violation () =
  (* A policy already broken in production must not block an unrelated
     fix. *)
  let net, policies = fixture () in
  let issue = List.nth (Enterprise.issues net) 1 (* ospf *) in
  let broken = issue.Heimdall_msp.Issue.inject net in
  let changes =
    [ Change.v "r9" (Change.Set_interface_description { iface = "eth0"; description = Some "x" }) ]
  in
  let outcome =
    Verifier.verify ~engine ~production:broken ~policies ~privilege:Privilege.allow_all ~changes ()
  in
  checkb "accepted despite broken policies" true outcome.Verifier.accepted

let test_verifier_reports_fixed_policies () =
  let net, policies = fixture () in
  let issue = List.nth (Enterprise.issues net) 1 (* ospf: r7 area mismatch *) in
  let broken = issue.Heimdall_msp.Issue.inject net in
  let uplink =
    List.find_map
      (fun (l : Topology.link) ->
        if l.a.node = "r7" && l.b.node = "r3" then Some l.a.iface
        else if l.b.node = "r7" && l.a.node = "r3" then Some l.b.iface
        else None)
      (Topology.links (Network.topology net))
    |> Option.get
  in
  let changes = [ Change.v "r7" (Change.Set_ospf_area { iface = uplink; area = Some 0 }) ] in
  let outcome =
    Verifier.verify ~engine ~production:broken ~policies ~privilege:Privilege.allow_all ~changes ()
  in
  checkb "accepted" true outcome.Verifier.accepted;
  checkb "repairs counted" true (List.length outcome.Verifier.fixed_policies > 0)

let test_verifier_apply_error () =
  let net, policies = fixture () in
  let changes = [ Change.v "r4" (Change.Acl_remove { acl = "GHOST" }) ] in
  let outcome =
    Verifier.verify ~engine ~production:net ~policies ~privilege:Privilege.allow_all ~changes ()
  in
  checkb "rejected" false outcome.Verifier.accepted;
  checkb "apply error" true
    (List.exists (function Verifier.Apply_error _ -> true | _ -> false) outcome.Verifier.rejections)

(* ---------------- Scheduler ---------------- *)

let test_scheduler_orders_safely () =
  let net, policies = fixture () in
  (* Two changes where naive order breaks reachability transiently:
     move the server ACL binding from one uplink name to another by
     first binding the new ACL, then removing — scheduler must find a
     zero-damage order for independent changes anyway. *)
  let changes =
    [
      Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
      Change.v "r5" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
    ]
  in
  match Scheduler.plan ~engine ~production:net ~policies ~changes () with
  | Ok (plan, final) ->
      checkb "safe" true plan.Scheduler.safe;
      checki "two steps" 2 (List.length plan.Scheduler.steps);
      checkb "final has both" true
        ((Option.get (Ast.find_interface "eth0" (Network.config_exn "r4" final))).Ast.ospf_cost
         = Some 20)
  | Error m -> Alcotest.fail m

let test_scheduler_defers_risky_change () =
  let net, policies = fixture () in
  (* Shutting the r4 uplink to r2 breaks nothing only if the r4-r5 and
     r4-r6 links still carry traffic; shutting ALL uplinks must create
     transient violations in some order — give the scheduler one safe
     and one unsafe change and check it picks the safe one first. *)
  let changes =
    [
      (* Unsafe alone: bring down the SVI (kills the office subnet). *)
      Change.v "r4" (Change.Set_interface_enabled { iface = "vlan10"; enabled = false });
      (* Safe: a cost tweak. *)
      Change.v "r5" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 15 });
    ]
  in
  match Scheduler.plan ~engine ~production:net ~policies ~changes () with
  | Ok (plan, _) ->
      checkb "not safe overall" false plan.Scheduler.safe;
      (* The safe change must be scheduled first. *)
      (match plan.Scheduler.steps with
      | first :: _ -> checkb "safe first" true (first.Scheduler.change.Change.node = "r5")
      | [] -> Alcotest.fail "empty plan");
      checkb "risky recorded" true
        (List.exists (fun s -> s.Scheduler.transient_violations <> []) plan.Scheduler.steps)
  | Error m -> Alcotest.fail m

(* Regression: the scheduler used to remove the chosen change from the
   pool by equality, so a change value appearing twice collapsed into a
   single step.  Removal is now positional. *)
let test_scheduler_duplicate_changes () =
  let net, policies = fixture () in
  let c = Change.v "r5" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 15 }) in
  match Scheduler.plan ~engine ~production:net ~policies ~changes:[ c; c ] () with
  | Ok (plan, final) ->
      checki "both occurrences scheduled" 2 (List.length plan.Scheduler.steps);
      (* Each step's checkpoint is the planned post-step network; the
         last one must be the plan's final network. *)
      (match List.rev plan.Scheduler.steps with
      | last :: _ ->
          checks "last checkpoint is final"
            (Applier.network_digest final)
            (Applier.network_digest last.Scheduler.checkpoint)
      | [] -> Alcotest.fail "empty plan")
  | Error m -> Alcotest.fail m

let test_scheduler_empty () =
  let net, policies = fixture () in
  match Scheduler.plan ~engine ~production:net ~policies ~changes:[] () with
  | Ok (plan, final) ->
      checkb "safe" true plan.Scheduler.safe;
      checki "no steps" 0 (List.length plan.Scheduler.steps);
      checkb "unchanged" true (final == net)
  | Error m -> Alcotest.fail m

(* ---------------- Enforcer pipeline ---------------- *)

let test_enforcer_end_to_end_approval () =
  let net, policies = fixture () in
  let issue = List.nth (Enterprise.issues net) 0 (* vlan *) in
  let broken = issue.Heimdall_msp.Issue.inject net in
  let slice =
    Heimdall_twin.Twin.slice_nodes ~production:broken
      ~endpoints:issue.Heimdall_msp.Issue.ticket.endpoints ()
  in
  let privilege =
    Heimdall_msp.Priv_gen.for_ticket ~network:broken ~slice issue.Heimdall_msp.Issue.ticket
  in
  let em =
    Heimdall_twin.Twin.build ~production:broken
      ~endpoints:issue.Heimdall_msp.Issue.ticket.endpoints ()
  in
  let session = Heimdall_twin.Twin.open_session ~privilege em in
  ignore (Heimdall_twin.Session.exec_many session issue.Heimdall_msp.Issue.fix_commands);
  let outcome =
    Enforcer.process ~engine ~production:broken ~policies ~privilege ~session ()
  in
  checkb "approved" true outcome.Enforcer.approved;
  checkb "updated network" true (outcome.Enforcer.updated <> None);
  checkb "audit verifies" true (Audit.verify outcome.Enforcer.audit = Ok ());
  checkb "report verifies" true (Enclave.verify_report outcome.Enforcer.report);
  checks "report binds audit head" (Audit.head outcome.Enforcer.audit)
    outcome.Enforcer.report.Enclave.report_data;
  (* Sealed head unseals inside the right enclave. *)
  checkb "sealed head" true
    (Enclave.unseal Enforcer.default_enclave outcome.Enforcer.sealed_head
    = Ok (Audit.head outcome.Enforcer.audit))

let test_enforcer_rejects_malicious_session () =
  let net, policies = fixture () in
  let ticket =
    Heimdall_msp.Ticket.make ~id:"T" ~kind:Heimdall_msp.Ticket.Connectivity
      ~description:"server access" ~endpoints:[ "h1"; "h8" ]
  in
  let slice = Heimdall_twin.Twin.slice_nodes ~production:net ~endpoints:[ "h1"; "h8" ] () in
  let privilege = Heimdall_msp.Priv_gen.for_ticket ~network:net ~slice ticket in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h1"; "h8" ] () in
  let session = Heimdall_twin.Twin.open_session ~privilege em in
  ignore
    (Heimdall_twin.Session.exec_many session
       [
         "connect r8";
         "configure access-list SRV_PROT 5 permit ip 10.1.10.0/24 10.3.10.0/24";
       ]);
  let outcome = Enforcer.process ~engine ~production:net ~policies ~privilege ~session () in
  checkb "rejected" false outcome.Enforcer.approved;
  checkb "no production update" true (outcome.Enforcer.updated = None);
  checkb "rejection recorded in audit" true
    (List.exists
       (fun (r : Audit.record) -> r.Audit.verdict = "rejected")
       (Audit.records outcome.Enforcer.audit))

let test_enforcer_lint_delta_in_audit () =
  let net, policies = fixture () in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h1"; "h8" ] () in
  let session = Heimdall_twin.Twin.open_session ~privilege:Privilege.allow_all em in
  (* Append a rule after SRV_PROT's terminal permit-any-any: shadowed
     with the opposite action, the textbook ACL001 defect. *)
  ignore
    (Heimdall_twin.Session.exec_many session
       [ "connect r8"; "configure access-list SRV_PROT 30 deny ip 10.9.9.0/24 0.0.0.0/0" ]);
  let outcome = Enforcer.process ~engine ~production:net ~policies ~privilege:Privilege.allow_all ~session () in
  (match outcome.Enforcer.lint_findings with
  | [ d ] ->
      checks "code" "ACL001" d.Heimdall_lint.Diagnostic.code;
      checkb "device" true (d.Heimdall_lint.Diagnostic.device = Some "r8");
      checkb "line" true (d.Heimdall_lint.Diagnostic.line = Some 30)
  | l -> Alcotest.failf "expected one lint finding, got %d" (List.length l));
  checkb "lint recorded in audit" true
    (List.exists
       (fun (r : Audit.record) -> r.Audit.action = "lint" && r.Audit.resource = "r8")
       (Audit.records outcome.Enforcer.audit));
  checkb "audit still verifies" true (Audit.verify outcome.Enforcer.audit = Ok ())

let test_enforcer_clean_session_no_lint_delta () =
  let net, policies = fixture () in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h1"; "h2" ] () in
  let session = Heimdall_twin.Twin.open_session ~privilege:Privilege.allow_all em in
  ignore (Heimdall_twin.Session.exec_many session [ "connect r4"; "show vlan" ]);
  let outcome =
    Enforcer.process ~engine ~production:net ~policies ~privilege:Privilege.allow_all ~session ()
  in
  checki "no new findings" 0 (List.length outcome.Enforcer.lint_findings);
  checkb "no lint records" true
    (not
       (List.exists
          (fun (r : Audit.record) -> r.Audit.action = "lint")
          (Audit.records outcome.Enforcer.audit)))

let test_enforcer_noop_session () =
  let net, policies = fixture () in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h1"; "h2" ] () in
  let session = Heimdall_twin.Twin.open_session ~privilege:Privilege.allow_all em in
  ignore (Heimdall_twin.Session.exec_many session [ "connect r4"; "show vlan" ]);
  let outcome =
    Enforcer.process ~engine ~production:net ~policies ~privilege:Privilege.allow_all ~session ()
  in
  checkb "approved" true outcome.Enforcer.approved;
  checkb "nothing to apply" true
    (match outcome.Enforcer.plan with Some p -> p.Scheduler.steps = [] | None -> false)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Slow test_sha256_vectors;
    Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "audit chain verifies" `Quick test_audit_chain_verifies;
    Alcotest.test_case "audit tamper detected" `Quick test_audit_tamper_detected;
    Alcotest.test_case "audit head changes" `Quick test_audit_head_changes;
    Alcotest.test_case "audit from session log" `Quick test_audit_of_session_log;
    Alcotest.test_case "audit import line numbers" `Quick test_audit_import_line_numbers;
    QCheck_alcotest.to_alcotest prop_audit_tamper;
    Alcotest.test_case "enclave seal roundtrip" `Quick test_enclave_seal_roundtrip;
    Alcotest.test_case "enclave wrong identity" `Quick test_enclave_wrong_identity;
    Alcotest.test_case "enclave tampered blob" `Quick test_enclave_tampered_blob;
    Alcotest.test_case "enclave attestation" `Quick test_enclave_attestation;
    Alcotest.test_case "verifier accepts benign" `Quick test_verifier_accepts_benign;
    Alcotest.test_case "verifier rejects privilege violation" `Quick
      test_verifier_rejects_privilege_violation;
    Alcotest.test_case "verifier rejects policy violation" `Quick
      test_verifier_rejects_policy_violation;
    Alcotest.test_case "verifier ignores preexisting violations" `Quick
      test_verifier_allows_preexisting_violation;
    Alcotest.test_case "verifier reports fixed policies" `Quick
      test_verifier_reports_fixed_policies;
    Alcotest.test_case "verifier apply error" `Quick test_verifier_apply_error;
    Alcotest.test_case "scheduler orders safely" `Quick test_scheduler_orders_safely;
    Alcotest.test_case "scheduler defers risky change" `Quick test_scheduler_defers_risky_change;
    Alcotest.test_case "scheduler duplicate changes" `Quick test_scheduler_duplicate_changes;
    Alcotest.test_case "scheduler empty" `Quick test_scheduler_empty;
    Alcotest.test_case "enforcer end-to-end approval" `Quick test_enforcer_end_to_end_approval;
    Alcotest.test_case "enforcer rejects malicious session" `Quick
      test_enforcer_rejects_malicious_session;
    Alcotest.test_case "enforcer noop session" `Quick test_enforcer_noop_session;
    Alcotest.test_case "enforcer lint delta in audit" `Quick
      test_enforcer_lint_delta_in_audit;
    Alcotest.test_case "enforcer clean session no lint delta" `Quick
      test_enforcer_clean_session_no_lint_delta;
  ]
