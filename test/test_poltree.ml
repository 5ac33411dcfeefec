(* Tests for Heimdall_poltree: the text/JSON frontends, the compiler's
   child-overrides / deny! / sibling-precedence semantics, every POL
   rule (trigger + clean counterpart), the POL004 refinement proof over
   both paper networks and a generated fleet, cross-domain determinism,
   and the documented witness order of Packet_set.sample. *)

open Heimdall_net
open Heimdall_lint
open Heimdall_poltree
module Experiments = Heimdall_scenarios.Experiments
module Fleetgen = Heimdall_scenarios.Fleetgen

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let pfx = Prefix.of_string
let ip = Ipv4.of_string

let with_code c diags = List.filter (fun (d : Diagnostic.t) -> d.code = c) diags

let compile_str src = Compile.compile_exn (Parser.parse src)

(* A small campus: guests may reach the internet but nothing internal —
   the motivating example from the paper's framing. *)
let campus_src = {|
service web = tcp 80, tcp 443;

node campus {
  scope 10.0.0.0/8;
  owner agg-1;
  deny any from guests;
  allow icmp from 10.0.0.0/8;
  node servers {
    scope 10.2.0.0/16;
    owner agg-2;
    allow web from 10.1.0.0/16;
  }
  node guests {
    scope 10.9.0.0/16;
  }
}
allow any from guests;
|}

(* ---------------- frontends ---------------- *)

let test_parse_roundtrip () =
  let t = Parser.parse campus_src in
  checki "nodes" 4 (Poltree.node_count t);
  checki "rules" 4 (Poltree.rule_count t);
  let again = Parser.parse (Poltree.render t) in
  checkb "text roundtrip" true (Poltree.equal t again);
  match Poltree.of_json (Poltree.to_json t) with
  | Ok j -> checkb "json roundtrip" true (Poltree.equal t j)
  | Error e -> Alcotest.failf "json roundtrip failed: %s" e

let test_parse_errors () =
  (match Parser.parse_result "node x {\n  scope 10.0.0.0/8;\n  allow nosuch;\n}" with
  | Error m -> checkb "unknown service reported" true (m <> "")
  | Ok _ -> Alcotest.fail "unknown service accepted");
  (match Parser.parse_result "allow icmp from any" with
  | Error m ->
      checkb "line number in error" true
        (String.length m >= 6 && String.sub m 0 5 = "line ")
  | Ok _ -> Alcotest.fail "missing semicolon accepted");
  match Parser.parse_result "node x { allow icmp; }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing scope accepted"

(* ---------------- compiler semantics ---------------- *)

let v c f = Compile.verdict c f

let test_compile_semantics () =
  let c = compile_str campus_src in
  let internal = Flow.icmp (ip "10.9.0.5") (ip "10.1.0.7") in
  let internet = Flow.icmp (ip "10.9.0.5") (ip "8.8.8.8") in
  let ping_ok = Flow.icmp (ip "10.1.0.7") (ip "10.2.0.9") in
  let web_ok = Flow.tcp ~dst_port:443 (ip "10.1.0.7") (ip "10.2.0.9") in
  let web_guest = Flow.tcp ~dst_port:443 (ip "10.9.0.5") (ip "10.2.0.9") in
  (* campus-level deny beats the root-level allow for internal dsts... *)
  checkb "guest->internal denied" true (v c internal = Compile.Deny_explicit);
  (* ...but the internet is outside the campus scope, so the root rule
     decides. *)
  checkb "guest->internet allowed" true (v c internet = Compile.Permit []);
  (* child allow (servers) overrides the parent's guest deny?  No — the
     deny is about guests; web from 10.1/16 is a different source. *)
  checkb "icmp inside campus" true (v c ping_ok = Compile.Permit []);
  checkb "web to servers" true (v c web_ok = Compile.Permit []);
  (* The servers child decides first for its scope, so even the campus
     deny-from-guests does not stop guest web?  It does: the child only
     allows web from 10.1/16; guests fall through to the campus deny. *)
  checkb "guest web denied" true (v c web_guest = Compile.Deny_explicit);
  (* Default deny: something no rule covers. *)
  checkb "default deny" true
    (v c (Flow.icmp (ip "192.168.1.1") (ip "10.2.0.9")) = Compile.Deny_default)

let test_child_overrides_parent () =
  let c =
    compile_str
      {|
node campus {
  scope 10.0.0.0/8;
  deny any;
  node lab {
    scope 10.5.0.0/16;
    allow icmp;
  }
}
|}
  in
  checkb "child allow wins in its scope" true
    (v c (Flow.icmp (ip "1.2.3.4") (ip "10.5.0.1")) = Compile.Permit []);
  checkb "parent deny holds elsewhere" true
    (v c (Flow.icmp (ip "1.2.3.4") (ip "10.6.0.1")) = Compile.Deny_explicit)

let test_deny_final_is_invariant () =
  let c =
    compile_str
      {|
node campus {
  scope 10.0.0.0/8;
  deny! udp from 172.16.0.0/12;
  node lab {
    scope 10.5.0.0/16;
    allow any;
  }
}
|}
  in
  (* Plain child-overrides would let the lab allow win; deny! must not. *)
  checkb "deny! beats child allow" true
    (v c (Flow.make ~proto:Flow.Udp ~src_port:40000 ~dst_port:53 (ip "172.16.3.3") (ip "10.5.0.1"))
    = Compile.Deny_explicit);
  checkb "other traffic still allowed" true
    (v c (Flow.icmp (ip "172.16.3.3") (ip "10.5.0.1")) = Compile.Permit [])

let test_sibling_precedence_and_requires () =
  let c =
    compile_str
      {|
node a {
  scope 10.0.0.0/15;
  deny icmp;
}
node b {
  scope 10.1.0.0/16;
  allow icmp;
}
require fw-1 icmp from any to 10.4.0.0/16;
allow icmp from any to 10.4.0.0/16;
|}
  in
  (* a and b overlap on 10.1/16: the earlier sibling (a) wins. *)
  checkb "earlier sibling wins" true
    (v c (Flow.icmp (ip "1.1.1.1") (ip "10.1.0.9")) = Compile.Deny_explicit);
  checkb "waypoint recorded" true
    (v c (Flow.icmp (ip "1.1.1.1") (ip "10.4.0.9")) = Compile.Permit [ "fw-1" ]);
  checki "require set present" 1 (List.length c.Compile.requires)

(* ---------------- POL triggers and clean counterparts -------------- *)

let test_pol001 () =
  let clean = compile_str campus_src in
  checki "clean: no POL001" 0 (List.length (with_code "POL001" (Analysis.check ~engine clean)));
  let seeded =
    match Analysis.seed_pol001 (Parser.parse campus_src) with
    | Ok t -> Compile.compile_exn t
    | Error e -> Alcotest.fail e
  in
  let findings = with_code "POL001" (Analysis.check ~engine seeded) in
  checkb "seeded POL001 fires" true (findings <> []);
  let d = List.hd findings in
  checkb "error severity" true (d.Diagnostic.severity = Diagnostic.Error);
  checkb "witness in message" true
    (let msg = d.Diagnostic.message in
     String.length msg > 0
     && (try ignore (Str.search_forward (Str.regexp "witness") msg 0); true
         with Not_found -> false))

let test_pol002_shadowed () =
  let c =
    compile_str
      {|
node x {
  scope 10.0.0.0/8;
  allow icmp from 10.1.0.0/16;
  allow icmp from 10.1.0.0/16 to 10.2.0.0/16;
}
|}
  in
  let findings = with_code "POL002" (Analysis.check ~engine c) in
  checki "second rule shadowed" 1 (List.length findings);
  checks "on rule 2" "rule 2"
    (match (List.hd findings).Diagnostic.obj with Some o -> o | None -> "")

let test_pol003_empty_scope () =
  let c =
    compile_str
      {|
node x {
  scope 10.0.0.0/8;
  node stray {
    scope 192.168.0.0/16;
    allow icmp;
  }
}
|}
  in
  let findings = with_code "POL003" (Analysis.check ~engine c) in
  checki "disjoint child scope flagged" 1 (List.length findings);
  checks "path names the stray node" "root/x/stray"
    (match (List.hd findings).Diagnostic.device with Some d -> d | None -> "")

let test_pol006_redundant () =
  let c =
    compile_str
      {|
node campus {
  scope 10.0.0.0/8;
  allow icmp from 172.16.0.0/12;
  node dup {
    scope 10.5.0.0/16;
    allow icmp from 172.16.0.0/12;
  }
}
|}
  in
  let findings = with_code "POL006" (Analysis.check ~engine c) in
  checki "duplicate subtree flagged" 1 (List.length findings);
  checks "names the dup node" "root/campus/dup"
    (match (List.hd findings).Diagnostic.device with Some d -> d | None -> "");
  (* Clean counterpart: the child decides differently from the parent. *)
  let clean =
    compile_str
      {|
node campus {
  scope 10.0.0.0/8;
  allow icmp from 172.16.0.0/12;
  node dmz {
    scope 10.5.0.0/16;
    deny icmp from 172.16.0.0/12;
  }
}
|}
  in
  checki "distinct subtree not flagged" 0
    (List.length (with_code "POL006" (Analysis.check ~engine clean)))

(* ---------------- POL004: refinement vs flat specs ---------------- *)

let tree_of_scenario (sc : Experiments.scenario) =
  Mine.of_policies ~segs:(Mine.segs_of_network sc.Experiments.net) sc.Experiments.policies

let pol004_errors sc =
  let c = Compile.compile_exn (tree_of_scenario sc) in
  Analysis.check ~engine ~policies:sc.Experiments.policies c
  |> with_code "POL004"
  |> List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)

let test_pol004_enterprise () =
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  let errors = pol004_errors sc in
  List.iter (fun d -> Printf.eprintf "POL004: %s\n" (Diagnostic.to_string d)) errors;
  checki "mined tree refines the enterprise flat spec" 0 (List.length errors)

let test_pol004_university () =
  let sc = Option.get (Experiments.scenario_of_name "university") in
  checki "mined tree refines the university flat spec" 0 (List.length (pol004_errors sc))

let test_pol004_fleet () =
  let fleet = Fleetgen.generate (Fleetgen.default_params (Fleetgen.Fat_tree { k = 4 })) in
  checki "37-device fleet" 37 (Fleetgen.device_count fleet);
  let c = Compile.compile_exn fleet.Fleetgen.poltree in
  let errors =
    Analysis.check ~engine ~policies:fleet.Fleetgen.policies c
    |> with_code "POL004"
    |> List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
  in
  List.iter (fun d -> Printf.eprintf "POL004: %s\n" (Diagnostic.to_string d)) errors;
  checki "fleet tree refines the closed-form spec" 0 (List.length errors)

let test_pol004_seeded () =
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  let seeded =
    match Analysis.seed_pol004 (tree_of_scenario sc) with
    | Ok t -> Compile.compile_exn t
    | Error e -> Alcotest.fail e
  in
  let errors =
    Analysis.check ~engine ~policies:sc.Experiments.policies seeded
    |> with_code "POL004"
    |> List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
  in
  checkb "flipped allow breaks refinement" true (errors <> [])

(* ---------------- POL005 ---------------- *)

let pol005_ticket spec =
  {
    Plan_lint.label = "ticket:test";
    spec;
    scope = [];
    (* A static-route add has a bounded delta (any -> prefix) even with
       no baseline network, so POL005 gets an informative packet set. *)
    commands = [ "connect agg-1"; "configure ip route 10.5.0.0/16 10.5.0.254" ];
  }

let test_pol005 () =
  let src = {|
node lab {
  scope 10.5.0.0/16;
  owner agg-1;
  allow icmp;
}
|} in
  let c = compile_str src in
  let uncovered =
    Heimdall_privilege.Privilege.of_predicates
      [ Heimdall_privilege.Privilege.allow ~actions:[ "interface.*" ] ~nodes:[ "other-dev" ] () ]
  in
  let covered =
    Heimdall_privilege.Privilege.of_predicates
      [ Heimdall_privilege.Privilege.allow ~actions:[ "interface.*" ] ~nodes:[ "agg-1" ] () ]
  in
  let findings spec =
    with_code "POL005" (Analysis.check ~engine ~tickets:[ pol005_ticket spec ] c)
  in
  checkb "uncovered owner flagged" true (findings uncovered <> []);
  checki "covered owner clean" 0 (List.length (findings covered))

(* ---------------- determinism ---------------- *)

let test_cross_domain_determinism () =
  let fleet = Fleetgen.generate (Fleetgen.default_params (Fleetgen.Fat_tree { k = 4 })) in
  let c = Compile.compile_exn fleet.Fleetgen.poltree in
  let run domains =
    let engine = Heimdall_verify.Engine.create ~domains () in
    Analysis.check ~engine ~policies:fleet.Fleetgen.policies c
  in
  let a = run 1 and b = run 3 in
  checki "same count" (List.length a) (List.length b);
  checkb "byte-identical reports at 1 vs 3 domains" true
    (List.for_all2 (fun x y -> Diagnostic.compare x y = 0 && x = y) a b)

(* ---------------- diff ---------------- *)

let test_diff_witnesses () =
  let a = compile_str "allow icmp from any to 10.0.0.0/8;" in
  let b = compile_str "allow icmp from any to 10.0.0.0/9;" in
  let d = Compile.diff a b in
  checkb "a minus b non-empty" true (not (Packet_set.is_empty d.Compile.only_a));
  checkb "b covered by a" true (Packet_set.is_empty d.Compile.only_b);
  checkb "witness rendered" true
    (let s = Compile.render_diff d in
     try ignore (Str.search_forward (Str.regexp "witness") s 0); true
     with Not_found -> false);
  checkb "self diff empty" true (Compile.diff_is_empty (Compile.diff a a))

(* ---------------- witness order pin ---------------- *)

let test_sample_witness_order () =
  (* Two cubes whose canonical order differs from the documented packet
     order: cube sorting compares whole prefixes, so (10.0.0.0/8 →
     20.0.0.0/8) sorts before (10.0.0.0/24 → 5.0.0.0/8), yet the lowest
     witness lives in the second cube (dst 5.0.0.0 < 20.0.0.0). *)
  let s =
    Packet_set.union
      (Packet_set.cube ~src:(pfx "10.0.0.0/8") ~dst:(pfx "20.0.0.0/8") ())
      (Packet_set.cube ~src:(pfx "10.0.0.0/24") ~dst:(pfx "5.0.0.0/8") ())
  in
  (match Packet_set.sample s with
  | None -> Alcotest.fail "sample of non-empty set"
  | Some f ->
      checks "lowest src" "10.0.0.0" (Ipv4.to_string f.Flow.src);
      checks "then lowest dst" "5.0.0.0" (Ipv4.to_string f.Flow.dst);
      checkb "lowest proto" true (f.Flow.proto = Flow.Icmp));
  (* Port tiebreak: same addresses, higher-port cube listed first. *)
  let s2 =
    Packet_set.union
      (Packet_set.cube ~protos:[ Flow.Tcp ] ~dst_port:(443, 443) ~src:(pfx "10.0.0.0/8")
         ~dst:(pfx "20.0.0.0/8") ())
      (Packet_set.cube ~protos:[ Flow.Tcp ] ~dst_port:(80, 80) ~src:(pfx "10.0.0.0/8")
         ~dst:(pfx "20.0.0.0/8") ())
  in
  match Packet_set.sample s2 with
  | Some f -> checki "lowest dst port" 80 f.Flow.dst_port
  | None -> Alcotest.fail "sample of non-empty set"

let suite =
  [
    Alcotest.test_case "parse/render/json roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse errors carry lines" `Quick test_parse_errors;
    Alcotest.test_case "compile semantics" `Quick test_compile_semantics;
    Alcotest.test_case "child overrides parent" `Quick test_child_overrides_parent;
    Alcotest.test_case "deny! is an invariant" `Quick test_deny_final_is_invariant;
    Alcotest.test_case "sibling precedence + requires" `Quick
      test_sibling_precedence_and_requires;
    Alcotest.test_case "POL001 trigger + clean" `Quick test_pol001;
    Alcotest.test_case "POL002 shadowed rule" `Quick test_pol002_shadowed;
    Alcotest.test_case "POL003 empty scope" `Quick test_pol003_empty_scope;
    Alcotest.test_case "POL006 redundant subtree" `Quick test_pol006_redundant;
    Alcotest.test_case "POL004 enterprise refinement" `Quick test_pol004_enterprise;
    Alcotest.test_case "POL004 university refinement" `Quick test_pol004_university;
    Alcotest.test_case "POL004 fleet refinement" `Quick test_pol004_fleet;
    Alcotest.test_case "POL004 seeded defect" `Quick test_pol004_seeded;
    Alcotest.test_case "POL005 scope ownership" `Quick test_pol005;
    Alcotest.test_case "cross-domain determinism" `Quick test_cross_domain_determinism;
    Alcotest.test_case "diff with witnesses" `Quick test_diff_witnesses;
    Alcotest.test_case "sample witness order" `Quick test_sample_witness_order;
  ]
