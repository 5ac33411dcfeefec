(* Tests for the configuration language: AST helpers, parser/printer
   round-trips, the change engine (diff/apply), and secret redaction. *)

open Heimdall_net
open Heimdall_config

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let sample_config () =
  Ast.make
    ~interfaces:
      [
        Ast.interface ~addr:(Ifaddr.of_string "10.0.1.1/24") ~ospf_cost:5
          ~description:"to r2" "eth0";
        Ast.interface ~addr:(Ifaddr.of_string "10.0.2.1/24") ~acl_in:"BLOCK" "eth1";
        Ast.interface ~switchport:(Ast.Access 10) "eth2";
        Ast.interface ~switchport:(Ast.Trunk [ 10; 20 ]) "eth3";
        Ast.interface ~addr:(Ifaddr.of_string "10.0.10.1/24") "vlan10";
        Ast.interface ~enabled:false "eth4";
      ]
    ~vlans:[ (10, "office"); (20, "lab") ]
    ~acls:
      [
        Acl.make "BLOCK"
          [
            Acl.rule ~proto:(Acl.Proto Flow.Tcp) ~dst_port:(Acl.Eq 22) ~seq:10 Acl.Deny
              Prefix.any (Prefix.of_string "10.0.2.0/24");
            Acl.rule ~seq:20 Acl.Permit Prefix.any Prefix.any;
          ];
      ]
    ~static_routes:
      [
        { Ast.sr_prefix = Prefix.any;
          sr_next_hop = Ipv4.of_string "10.0.1.2";
          sr_distance = 1 };
        { Ast.sr_prefix = Prefix.of_string "10.9.0.0/16";
          sr_next_hop = Ipv4.of_string "10.0.2.2";
          sr_distance = 200 };
      ]
    ~ospf:
      {
        Ast.router_id = Some (Ipv4.of_string "1.1.1.1");
        networks = [ (Prefix.of_string "10.0.1.0/24", 0); (Prefix.of_string "10.0.2.0/24", 1) ];
        default_originate = true;
      }
    ~default_gateway:(Ipv4.of_string "10.0.1.254")
    ~secrets:
      [
        Ast.Enable_secret "s3cret";
        Ast.Snmp_community "commun1ty";
        Ast.Ipsec_key ("psk-abc", Ipv4.of_string "203.0.113.1");
        Ast.User_password ("admin", "hunter2");
      ]
    "r1"

(* ---------------- AST helpers ---------------- *)

let test_ast_lookup_update () =
  let c = sample_config () in
  checkb "find" true (Ast.find_interface "eth0" c <> None);
  checkb "missing" true (Ast.find_interface "eth9" c = None);
  let c2 = Ast.update_interface (Ast.interface ~enabled:false "eth0") c in
  (match Ast.find_interface "eth0" c2 with
  | Some i -> checkb "replaced" false i.Ast.enabled
  | None -> Alcotest.fail "eth0 vanished");
  checki "same count" (List.length c.interfaces) (List.length c2.interfaces)

let test_ast_addresses () =
  let c = sample_config () in
  checki "addressed ifaces" 3 (List.length (Ast.addresses c));
  checkb "interface_addr" true
    (Ast.interface_addr c "eth0" = Some (Ifaddr.of_string "10.0.1.1/24"))

let test_ast_secrets () =
  let c = sample_config () in
  checkb "has" true (Ast.has_secret_value "hunter2" c);
  checkb "hasn't" false (Ast.has_secret_value "nope" c)

(* ---------------- Printer/parser ---------------- *)

let test_roundtrip () =
  let c = sample_config () in
  let text = Printer.render c in
  let c2 = Parser.parse text in
  checkb "roundtrip equal" true (Ast.equal c c2);
  (* And idempotent: render(parse(render)) = render. *)
  checks "stable render" text (Printer.render c2)

let test_line_count () =
  let c = sample_config () in
  let lines =
    Printer.render c |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  checki "line_count matches" (List.length lines) (Printer.line_count c)

let test_parse_minimal () =
  let c = Parser.parse "hostname sw1\n" in
  checks "hostname" "sw1" c.Ast.hostname;
  checkb "no ospf" true (c.Ast.ospf = None)

let test_parse_errors () =
  let cases =
    [
      ("", "missing hostname");
      ("hostname a\nhostname b\n", "duplicate hostname");
      ("hostname a\ninterface eth0\ninterface eth0\n", "duplicate interface");
      ("hostname a\n bogus indent\n", "indented outside stanza");
      ("hostname a\nfrobnicate 1\n", "unknown command");
      ("hostname a\ninterface eth0\n ip address banana\n", "bad address");
      ("hostname a\nvlan 3\n!\n", "vlan without name");
      ("hostname a\naccess-list L 10 permit tcp any any eq x\n", "bad port");
      ("hostname a\nrouter bgp 65001\n", "router bgp");
    ]
  in
  List.iter
    (fun (text, label) ->
      match Parser.parse_result text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected parse error: " ^ label))
    cases;
  (* No BGP support: the stanza is an unknown command on its own line. *)
  match Parser.parse_result "hostname a\nrouter bgp 65001\n" with
  | Error (line, _) -> checki "router bgp at line 2" 2 line
  | Ok _ -> Alcotest.fail "router bgp parsed"

let test_parse_error_line_numbers () =
  match Parser.parse_result "hostname a\ninterface eth0\n ip address banana\n" with
  | Error (line, _) -> checki "line 3" 3 line
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_acl_rule () =
  let r = Parser.parse_acl_rule "10 deny tcp 10.0.2.0/24 any eq 80" in
  checki "seq" 10 r.Acl.seq;
  checkb "action" true (r.Acl.action = Acl.Deny);
  checkb "dst port" true (r.Acl.dst_port = Acl.Eq 80);
  checkb "src port" true (r.Acl.src_port = Acl.Any_port);
  let r2 = Parser.parse_acl_rule "20 permit udp any range 5000 5010 10.1.0.0/16" in
  checkb "src range" true (r2.Acl.src_port = Acl.Range (5000, 5010))

(* ---------------- Change: apply ---------------- *)

let test_apply_interface_ops () =
  let c = sample_config () in
  let apply op = Result.get_ok (Change.apply op c) in
  let c2 = apply (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) in
  checkb "shut" false (Option.get (Ast.find_interface "eth0" c2)).Ast.enabled;
  let c3 =
    apply (Change.Set_interface_addr { iface = "eth0"; addr = Some (Ifaddr.of_string "10.5.5.1/24") })
  in
  checkb "renumbered" true
    (Ast.interface_addr c3 "eth0" = Some (Ifaddr.of_string "10.5.5.1/24"));
  checkb "missing iface" true
    (Result.is_error (Change.apply (Change.Set_ospf_cost { iface = "zz"; cost = None }) c))

let test_apply_acl_ops () =
  let c = sample_config () in
  let rule = Acl.rule ~seq:15 Acl.Permit Prefix.any Prefix.any in
  let c2 = Result.get_ok (Change.apply (Change.Acl_set_rule { acl = "BLOCK"; rule }) c) in
  checki "3 rules" 3 (Acl.rule_count (Option.get (Ast.find_acl "BLOCK" c2)));
  let c3 = Result.get_ok (Change.apply (Change.Acl_remove_rule { acl = "BLOCK"; seq = 15 }) c2) in
  checki "back to 2" 2 (Acl.rule_count (Option.get (Ast.find_acl "BLOCK" c3)));
  checkb "remove missing rule" true
    (Result.is_error (Change.apply (Change.Acl_remove_rule { acl = "BLOCK"; seq = 99 }) c));
  checkb "remove missing acl" true
    (Result.is_error (Change.apply (Change.Acl_remove { acl = "NOPE" }) c));
  (* Setting a rule on an unknown ACL creates it (Cisco semantics). *)
  let c4 = Result.get_ok (Change.apply (Change.Acl_set_rule { acl = "NEW"; rule }) c) in
  checkb "created" true (Ast.find_acl "NEW" c4 <> None)

let test_apply_route_ops () =
  let c = sample_config () in
  let route =
    { Ast.sr_prefix = Prefix.of_string "172.16.0.0/12";
      sr_next_hop = Ipv4.of_string "10.0.1.9";
      sr_distance = 1 }
  in
  let c2 = Result.get_ok (Change.apply (Change.Add_static_route route) c) in
  checki "added" 3 (List.length c2.static_routes);
  let c3 =
    Result.get_ok
      (Change.apply
         (Change.Remove_static_route
            { prefix = Prefix.of_string "172.16.0.0/12"; next_hop = Ipv4.of_string "10.0.1.9" })
         c2)
  in
  checki "removed" 2 (List.length c3.static_routes);
  checkb "remove missing" true
    (Result.is_error
       (Change.apply
          (Change.Remove_static_route
             { prefix = Prefix.of_string "9.9.9.0/24"; next_hop = Ipv4.of_string "1.1.1.1" })
          c))

let test_apply_ospf_vlan_ops () =
  let c = sample_config () in
  let c2 =
    Result.get_ok
      (Change.apply (Change.Ospf_set_network { prefix = Prefix.of_string "10.0.3.0/24"; area = 2 }) c)
  in
  checki "3 networks" 3 (List.length (Option.get c2.Ast.ospf).networks);
  let c3 =
    Result.get_ok
      (Change.apply (Change.Ospf_remove_network { prefix = Prefix.of_string "10.0.3.0/24" }) c2)
  in
  checki "back to 2" 2 (List.length (Option.get c3.Ast.ospf).networks);
  let c4 = Result.get_ok (Change.apply (Change.Set_vlan_name { vlan = 30; name = Some "dmz" }) c) in
  checkb "vlan added" true (List.mem_assoc 30 c4.Ast.vlans);
  checkb "vlan remove missing" true
    (Result.is_error (Change.apply (Change.Set_vlan_name { vlan = 99; name = None }) c))

let test_apply_secret_replaces_slot () =
  let c = sample_config () in
  let c2 = Result.get_ok (Change.apply (Change.Set_secret (Ast.Enable_secret "new")) c) in
  checki "same secret count" (List.length c.secrets) (List.length c2.secrets);
  checkb "replaced" true (Ast.has_secret_value "new" c2);
  checkb "old gone" false (Ast.has_secret_value "s3cret" c2)

(* ---------------- Change: diff ---------------- *)

let test_diff_empty () =
  let c = sample_config () in
  checki "no changes" 0 (List.length (Change.diff ~node:"r1" c c))

let test_diff_roundtrip () =
  let before = sample_config () in
  (* A representative multi-field edit. *)
  let after =
    before
    |> Ast.update_interface
         (Ast.interface ~addr:(Ifaddr.of_string "10.0.1.99/24") ~ospf_cost:7 "eth0")
    |> Ast.update_acl
         (Acl.make "BLOCK" [ Acl.rule ~seq:20 Acl.Permit Prefix.any Prefix.any ])
    |> fun c ->
    { c with Ast.static_routes = [ List.hd c.Ast.static_routes ]; default_gateway = None }
  in
  let changes = Change.diff ~node:"r1" before after in
  checkb "nonempty" true (changes <> []);
  match Change.apply_all changes (fun _ -> Some before) with
  | Ok [ ("r1", rebuilt) ] -> checkb "diff/apply roundtrip" true (Ast.equal rebuilt after)
  | Ok _ -> Alcotest.fail "unexpected node set"
  | Error m -> Alcotest.fail m

let test_diff_detects_acl_edit () =
  let before = sample_config () in
  let after =
    Ast.update_acl
      (Acl.make "BLOCK"
         [
           Acl.rule ~proto:(Acl.Proto Flow.Tcp) ~dst_port:(Acl.Eq 22) ~seq:10 Acl.Permit
             Prefix.any (Prefix.of_string "10.0.2.0/24");
           Acl.rule ~seq:20 Acl.Permit Prefix.any Prefix.any;
         ])
      before
  in
  let changes = Change.diff ~node:"r1" before after in
  checki "one change" 1 (List.length changes);
  match (List.hd changes).Change.op with
  | Change.Acl_set_rule { acl = "BLOCK"; rule } -> checki "rule 10" 10 rule.Acl.seq
  | _ -> Alcotest.fail "expected Acl_set_rule"

let test_change_action_names () =
  checks "shutdown" "interface.shutdown"
    (Change.op_action_name (Change.Set_interface_enabled { iface = "e"; enabled = false }));
  checks "up" "interface.up"
    (Change.op_action_name (Change.Set_interface_enabled { iface = "e"; enabled = true }));
  checks "acl" "acl.rule"
    (Change.op_action_name
       (Change.Acl_set_rule { acl = "A"; rule = Acl.rule ~seq:1 Acl.Permit Prefix.any Prefix.any }));
  checkb "iface scope" true
    (Change.target_iface (Change.Set_ospf_cost { iface = "eth1"; cost = None }) = Some "eth1");
  checkb "no scope" true (Change.target_iface (Change.Set_default_gateway None) = None)

let test_apply_all_unknown_node () =
  checkb "unknown node" true
    (Result.is_error
       (Change.apply_all
          [ Change.v "ghost" (Change.Set_default_gateway None) ]
          (fun _ -> None)))

(* qcheck: diff(c, mutate(c)) applied to c equals mutate(c). *)
let mutations =
  [
    (fun c -> Result.get_ok (Change.apply (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) c));
    (fun c -> Result.get_ok (Change.apply (Change.Set_ospf_cost { iface = "eth0"; cost = Some 42 }) c));
    (fun c ->
      Result.get_ok
        (Change.apply
           (Change.Acl_set_rule
              { acl = "BLOCK"; rule = Acl.rule ~seq:5 Acl.Deny Prefix.any Prefix.any })
           c));
    (fun c -> Result.get_ok (Change.apply (Change.Set_default_gateway None) c));
    (fun c -> Result.get_ok (Change.apply (Change.Set_vlan_name { vlan = 77; name = Some "x" }) c));
    (fun c ->
      Result.get_ok
        (Change.apply
           (Change.Add_static_route
              { Ast.sr_prefix = Prefix.of_string "172.20.0.0/16";
                sr_next_hop = Ipv4.of_string "10.0.1.3";
                sr_distance = 5 })
           c));
  ]

let prop_diff_apply =
  QCheck.Test.make ~count:100 ~name:"diff/apply roundtrip under random mutations"
    (QCheck.list_of_size (QCheck.Gen.int_bound 4) (QCheck.int_bound (List.length mutations - 1)))
    (fun picks ->
      let before = sample_config () in
      let after = List.fold_left (fun c i -> (List.nth mutations i) c) before picks in
      let changes = Change.diff ~node:"r1" before after in
      match Change.apply_all changes (fun _ -> Some before) with
      | Ok [ ("r1", rebuilt) ] -> Ast.equal rebuilt after
      | Ok [] -> Ast.equal before after
      | Ok _ -> false
      | Error _ -> false)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random mutated config parser roundtrip"
    (QCheck.list_of_size (QCheck.Gen.int_bound 4) (QCheck.int_bound (List.length mutations - 1)))
    (fun picks ->
      let c = List.fold_left (fun c i -> (List.nth mutations i) c) (sample_config ()) picks in
      Ast.equal c (Parser.parse (Printer.render c)))

(* ---------------- Redaction ---------------- *)

let test_scrub () =
  let c = sample_config () in
  let s = Redact.scrub c in
  checkb "scrubbed" true (Redact.is_scrubbed s);
  checkb "original not" false (Redact.is_scrubbed c);
  checki "secret slots kept" (List.length c.secrets) (List.length s.secrets);
  checkb "username preserved" true
    (List.exists
       (function Ast.User_password ("admin", v) -> v = Redact.placeholder | _ -> false)
       s.Ast.secrets);
  (* Rendering a scrubbed config leaks nothing. *)
  checkb "no leaks in render" true
    (Redact.leaked_secrets ~production:c (Printer.render s) = [])

let test_leak_detection () =
  let c = sample_config () in
  let leaks = Redact.leaked_secrets ~production:c "the key is psk-abc and pw hunter2" in
  checkb "found both" true (List.sort compare leaks = [ "hunter2"; "psk-abc" ]);
  checkb "clean text" true (Redact.leaked_secrets ~production:c "nothing here" = [])

let suite =
  [
    Alcotest.test_case "ast lookup/update" `Quick test_ast_lookup_update;
    Alcotest.test_case "ast addresses" `Quick test_ast_addresses;
    Alcotest.test_case "ast secrets" `Quick test_ast_secrets;
    Alcotest.test_case "printer/parser roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "line count" `Quick test_line_count;
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse error line numbers" `Quick test_parse_error_line_numbers;
    Alcotest.test_case "parse acl rule" `Quick test_parse_acl_rule;
    Alcotest.test_case "apply interface ops" `Quick test_apply_interface_ops;
    Alcotest.test_case "apply acl ops" `Quick test_apply_acl_ops;
    Alcotest.test_case "apply route ops" `Quick test_apply_route_ops;
    Alcotest.test_case "apply ospf/vlan ops" `Quick test_apply_ospf_vlan_ops;
    Alcotest.test_case "apply secret replaces slot" `Quick test_apply_secret_replaces_slot;
    Alcotest.test_case "diff empty" `Quick test_diff_empty;
    Alcotest.test_case "diff/apply roundtrip" `Quick test_diff_roundtrip;
    Alcotest.test_case "diff detects acl edit" `Quick test_diff_detects_acl_edit;
    Alcotest.test_case "change action names" `Quick test_change_action_names;
    Alcotest.test_case "apply_all unknown node" `Quick test_apply_all_unknown_node;
    QCheck_alcotest.to_alcotest prop_diff_apply;
    QCheck_alcotest.to_alcotest prop_parse_print_roundtrip;
    Alcotest.test_case "scrub secrets" `Quick test_scrub;
    Alcotest.test_case "leak detection" `Quick test_leak_detection;
  ]
