(* Tests for the Privilege_msp layer: patterns, evaluation, the text DSL
   and the JSON front-end. *)

open Heimdall_net
open Heimdall_privilege

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- Action catalog ---------------- *)

let test_catalog_sanity () =
  checkb "nonempty" true (List.length Action.catalog > 20);
  checkb "sorted unique" true
    (Action.catalog = List.sort_uniq String.compare Action.catalog);
  checkb "mem" true (Action.mem "interface.shutdown");
  checkb "not mem" false (Action.mem "interface.frobnicate")

let test_catalog_classification () =
  checkb "show read-only" true (Action.is_read_only "show.config");
  checkb "diag read-only" true (Action.is_read_only "diag.ping");
  checkb "acl not" false (Action.is_read_only "acl.rule");
  checkb "erase destructive" true (Action.is_destructive "system.erase");
  checkb "mutating excludes show" true
    (not (List.exists Action.is_read_only Action.mutating))

let test_available_on_kinds () =
  let router = Action.available_on Topology.Router in
  let switch = Action.available_on Topology.Switch in
  let host = Action.available_on Topology.Host in
  checkb "router has ospf" true (List.mem "ospf.area" router);
  checkb "switch has vlan" true (List.mem "vlan.switchport" switch);
  checkb "switch lacks ospf" false (List.mem "ospf.area" switch);
  checkb "host lacks acl" false (List.mem "acl.rule" host);
  checkb "all within catalog" true
    (List.for_all Action.mem (router @ switch @ host))

(* ---------------- Patterns & evaluation ---------------- *)

let test_pattern_matching () =
  checkb "star" true (Privilege.pattern_matches "*" "anything");
  checkb "prefix" true (Privilege.pattern_matches "show.*" "show.config");
  checkb "prefix mismatch" false (Privilege.pattern_matches "show.*" "diag.ping");
  checkb "exact" true (Privilege.pattern_matches "acl.rule" "acl.rule");
  checkb "exact mismatch" false (Privilege.pattern_matches "acl.rule" "acl.bind");
  checkb "node glob" true (Privilege.pattern_matches "r*" "r12")

let test_default_deny () =
  checkb "empty denies" false
    (Privilege.allows Privilege.empty (Privilege.request "show.config" "r1"));
  checkb "allow_all allows" true
    (Privilege.allows Privilege.allow_all (Privilege.request "system.erase" "r1"))

let test_first_match_wins () =
  let spec =
    Privilege.of_predicates
      [
        Privilege.deny ~actions:[ "acl.*" ] ~nodes:[ "r1" ] ();
        Privilege.allow ~actions:[ "*" ] ~nodes:[ "r1" ] ();
      ]
  in
  checkb "deny first" false (Privilege.allows spec (Privilege.request "acl.rule" "r1"));
  checkb "other allowed" true (Privilege.allows spec (Privilege.request "show.config" "r1"));
  checkb "other node denied" false
    (Privilege.allows spec (Privilege.request "show.config" "r2"))

let test_interface_scoping () =
  let spec =
    Privilege.of_predicates
      [ Privilege.allow ~iface:"eth0" ~actions:[ "interface.*" ] ~nodes:[ "r1" ] () ]
  in
  checkb "scoped iface" true
    (Privilege.allows spec (Privilege.request ~iface:"eth0" "interface.up" "r1"));
  checkb "other iface" false
    (Privilege.allows spec (Privilege.request ~iface:"eth1" "interface.up" "r1"));
  checkb "device-scope request" false
    (Privilege.allows spec (Privilege.request "interface.up" "r1"))

let test_prepend_overrides () =
  (* First match wins: an earlier allow overrides a later blanket deny. *)
  let spec =
    Privilege.of_predicates
      [
        Privilege.allow ~actions:[ "diag.ping" ] ~nodes:[ "h1" ] ();
        Privilege.deny ~actions:[ "*" ] ~nodes:[ "*" ] ();
      ]
  in
  checkb "earlier allow wins" true (Privilege.allows spec (Privilege.request "diag.ping" "h1"));
  checkb "rest denied" false (Privilege.allows spec (Privilege.request "diag.ping" "h2"))

let test_allowed_actions () =
  let spec =
    Privilege.of_predicates [ Privilege.allow ~actions:[ "show.*" ] ~nodes:[ "r1" ] () ]
  in
  let acts = Privilege.allowed_actions spec ~node:"r1" ~kind:Topology.Router in
  checkb "only shows" true (List.for_all Action.is_read_only acts);
  checki "none elsewhere" 0
    (List.length (Privilege.allowed_actions spec ~node:"r2" ~kind:Topology.Router))

(* qcheck: evaluation is deterministic and total over the catalog. *)
let prop_eval_total =
  QCheck.Test.make ~count:200 ~name:"privilege eval total over catalog"
    (QCheck.pair (QCheck.int_bound (List.length Action.catalog - 1)) QCheck.small_string)
    (fun (idx, node) ->
      let action = List.nth Action.catalog idx in
      let spec =
        Privilege.of_predicates
          [
            Privilege.deny ~actions:[ "system.*" ] ~nodes:[ "*" ] ();
            Privilege.allow ~actions:[ "*" ] ~nodes:[ "r*" ] ();
          ]
      in
      let r = Privilege.request action node in
      let v1 = Privilege.evaluate spec r and v2 = Privilege.evaluate spec r in
      v1 = v2
      &&
      if Action.is_destructive action then v1 = Privilege.Deny
      else if String.length node > 0 && node.[0] = 'r' then v1 = Privilege.Allow
      else v1 = Privilege.Deny)

(* ---------------- DSL ---------------- *)

let test_dsl_parse () =
  let spec =
    Dsl.parse
      {|
      # comment
      allow show.*, diag.* on *;
      allow interface.up, interface.shutdown on r1, r2;
      deny acl.rule on fw1:eth0;
      |}
  in
  checki "three predicates" 3 (Privilege.predicate_count spec);
  checkb "show anywhere" true (Privilege.allows spec (Privilege.request "show.acl" "x"));
  checkb "iface deny" false
    (Privilege.allows spec (Privilege.request ~iface:"eth0" "acl.rule" "fw1"))

let test_dsl_roundtrip () =
  let spec =
    Dsl.parse "allow show.* on r1, r2;\ndeny system.* on *;\nallow acl.rule on fw1:eth*;\n"
  in
  let spec2 = Dsl.parse (Dsl.render spec) in
  checkb "roundtrip" true (spec = spec2)

let test_dsl_errors () =
  List.iter
    (fun text ->
      match Dsl.parse_result text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected DSL error: " ^ text))
    [
      "allow show.* on r1";  (* missing ';' *)
      "permit show.* on r1;";  (* bad keyword *)
      "allow on r1;";  (* no actions *)
      "allow show.* r1;";  (* missing on *)
      "allow frobnicate.* on r1;";  (* unknown action *)
      "allow show.* on ;";  (* no resources *)
    ]

let test_dsl_multiline_statement () =
  let spec = Dsl.parse "allow show.*,\n diag.*\n on r1;\n" in
  checkb "parsed" true (Privilege.allows spec (Privilege.request "diag.ping" "r1"))

let test_dsl_error_line_numbers () =
  let cases =
    [
      ("allow show.* on r1;\npermit diag.* on r1;\n", 2);
      ("# comment\n\nallow show.* r1;\n", 3);
      ("allow show.* on r1;\nallow frobnicate.* on r1;\n", 2);
      ("allow show.* on r1;\n\nallow diag.*,\n interface.up\n on\n", 3);
      ("deny on r1;\n", 1);
    ]
  in
  List.iter
    (fun (text, expected) ->
      match Dsl.parse_result text with
      | Error (line, _) -> checki (String.escaped text) expected line
      | Ok _ -> Alcotest.fail ("expected DSL error: " ^ text))
    cases

(* qcheck: render ∘ parse is the identity on generated specs. *)
let gen_predicate =
  let action_pats =
    [ "*"; "show.*"; "diag.*"; "interface.*"; "acl.rule"; "route.static"; "system.*" ]
  in
  let resource_strs = [ "*"; "r1"; "r*"; "fw1:eth0"; "r1:eth*"; "sw2:vlan10" ] in
  QCheck.Gen.map3
    (fun eff acts res ->
      {
        Privilege.effect = (if eff then Privilege.Allow else Privilege.Deny);
        actions = acts;
        resources = List.map Privilege.resource_of_string res;
      })
    QCheck.Gen.bool
    QCheck.Gen.(list_size (int_range 1 3) (oneofl action_pats))
    QCheck.Gen.(list_size (int_range 1 3) (oneofl resource_strs))

let arbitrary_spec =
  QCheck.make
    ~print:(fun t -> Dsl.render t)
    QCheck.Gen.(map Privilege.of_predicates (list_size (int_range 0 5) gen_predicate))

let prop_dsl_render_parse_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dsl render/parse roundtrip" arbitrary_spec
    (fun spec -> Dsl.parse (Dsl.render spec) = spec)

(* ---------------- JSON front-end ---------------- *)

let test_json_frontend_roundtrip () =
  let spec =
    Privilege.of_predicates
      [
        Privilege.allow ~actions:[ "show.*" ] ~nodes:[ "r1"; "r2" ] ();
        Privilege.deny ~iface:"eth0" ~actions:[ "acl.rule" ] ~nodes:[ "fw1" ] ();
      ]
  in
  match Json_frontend.parse (Json_frontend.render spec) with
  | Ok spec2 -> checkb "roundtrip" true (spec = spec2)
  | Error m -> Alcotest.fail m

let test_json_frontend_document () =
  let doc =
    {| {"version":1,"rules":[{"effect":"allow","actions":["diag.ping"],"resources":["h1"]}]} |}
  in
  match Json_frontend.parse doc with
  | Ok spec ->
      checkb "allows" true (Privilege.allows spec (Privilege.request "diag.ping" "h1"))
  | Error m -> Alcotest.fail m

let test_json_frontend_errors () =
  List.iter
    (fun doc ->
      match Json_frontend.parse doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected error: " ^ doc))
    [
      "{}";
      {| {"rules": 3} |};
      {| {"rules":[{"effect":"maybe","actions":["show.*"],"resources":["*"]}]} |};
      {| {"rules":[{"effect":"allow","resources":["*"]}]} |};
      {| {"rules":[{"effect":"allow","actions":[],"resources":["*"]}]} |};
      {| {"rules":[{"effect":"allow","actions":["bogus.*"],"resources":["*"]}]} |};
      "not json";
    ]

(* The two front-ends agree. *)
let test_frontends_agree () =
  let text = "allow show.*, diag.* on *;\ndeny system.* on r1;\n" in
  let from_dsl = Dsl.parse text in
  let json = Json_frontend.render from_dsl in
  match Json_frontend.parse json with
  | Ok from_json ->
      List.iter
        (fun action ->
          List.iter
            (fun node ->
              checkb
                (Printf.sprintf "%s on %s" action node)
                (Privilege.allows from_dsl (Privilege.request action node))
                (Privilege.allows from_json (Privilege.request action node)))
            [ "r1"; "h1" ])
        Action.catalog
  | Error m -> Alcotest.fail m

let suite =
  [
    Alcotest.test_case "catalog sanity" `Quick test_catalog_sanity;
    Alcotest.test_case "catalog classification" `Quick test_catalog_classification;
    Alcotest.test_case "available_on kinds" `Quick test_available_on_kinds;
    Alcotest.test_case "pattern matching" `Quick test_pattern_matching;
    Alcotest.test_case "default deny" `Quick test_default_deny;
    Alcotest.test_case "first match wins" `Quick test_first_match_wins;
    Alcotest.test_case "interface scoping" `Quick test_interface_scoping;
    Alcotest.test_case "prepend overrides" `Quick test_prepend_overrides;
    Alcotest.test_case "allowed_actions" `Quick test_allowed_actions;
    QCheck_alcotest.to_alcotest prop_eval_total;
    Alcotest.test_case "dsl parse" `Quick test_dsl_parse;
    Alcotest.test_case "dsl roundtrip" `Quick test_dsl_roundtrip;
    Alcotest.test_case "dsl errors" `Quick test_dsl_errors;
    Alcotest.test_case "dsl multiline" `Quick test_dsl_multiline_statement;
    Alcotest.test_case "dsl error line numbers" `Quick test_dsl_error_line_numbers;
    QCheck_alcotest.to_alcotest prop_dsl_render_parse_roundtrip;
    Alcotest.test_case "json roundtrip" `Quick test_json_frontend_roundtrip;
    Alcotest.test_case "json document" `Quick test_json_frontend_document;
    Alcotest.test_case "json errors" `Quick test_json_frontend_errors;
    Alcotest.test_case "frontends agree" `Quick test_frontends_agree;
  ]
