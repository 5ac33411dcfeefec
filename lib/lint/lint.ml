open Heimdall_control
open Heimdall_verify

(* ---------------- rule registry ---------------- *)

type family = Config | Acl | Net | Privilege | Plan | Pol

let family_to_string = function
  | Config -> "config"
  | Acl -> "acl"
  | Net -> "net"
  | Privilege -> "privilege"
  | Plan -> "plan"
  | Pol -> "pol"

type rule = {
  code : string;
  family : family;
  severity : Diagnostic.severity;
  summary : string;
}

let rules =
  [
    { code = "CFG001"; family = Config; severity = Diagnostic.Error;
      summary = "duplicate interface address across the network" };
    { code = "CFG002"; family = Config; severity = Diagnostic.Error;
      summary = "link endpoints in different subnets" };
    { code = "CFG003"; family = Config; severity = Diagnostic.Error;
      summary = "interface references an undefined access-list" };
    { code = "CFG004"; family = Config; severity = Diagnostic.Warning;
      summary = "access-list defined but bound to no interface" };
    { code = "CFG005"; family = Config; severity = Diagnostic.Error;
      summary = "access/trunk port on an undeclared VLAN" };
    { code = "CFG006"; family = Config; severity = Diagnostic.Error;
      summary = "static-route next hop / default gateway on no enabled connected subnet" };
    { code = "CFG007"; family = Config; severity = Diagnostic.Error;
      summary = "OSPF area mismatch across a link" };
    { code = "CFG008"; family = Config; severity = Diagnostic.Warning;
      summary = "access-list bound to a shutdown interface" };
    { code = "SEC001"; family = Config; severity = Diagnostic.Error;
      summary = "unscrubbed secret in a twin-exposed config" };
    { code = "ACL001"; family = Acl; severity = Diagnostic.Error;
      summary = "rule shadowed by an earlier rule with the opposite action" };
    { code = "ACL002"; family = Acl; severity = Diagnostic.Warning;
      summary = "rule fully redundant with an earlier same-action rule" };
    { code = "ACL003"; family = Acl; severity = Diagnostic.Warning;
      summary = "terminal 'permit ip any any' turns default-deny into default-permit" };
    { code = "ACL004"; family = Acl; severity = Diagnostic.Error;
      summary = "rule killed by a union of earlier rules deciding with the opposite action" };
    { code = "ACL005"; family = Acl; severity = Diagnostic.Warning;
      summary = "rule redundant: a union of earlier same-effect rules covers all its traffic" };
    { code = "NET001"; family = Net; severity = Diagnostic.Error;
      summary = "OSPF runs on only one end of a router-to-router link" };
    { code = "NET002"; family = Net; severity = Diagnostic.Warning;
      summary = "asymmetric OSPF interface cost across an adjacency" };
    { code = "NET003"; family = Net; severity = Diagnostic.Warning;
      summary = "two configured subnets overlap without being equal" };
    { code = "NET004"; family = Net; severity = Diagnostic.Error;
      summary = "next hop on a connected subnet but owned by no device" };
    { code = "NET005"; family = Net; severity = Diagnostic.Error;
      summary = "static routes form a two-device forwarding loop" };
    { code = "NET006"; family = Net; severity = Diagnostic.Error;
      summary = "switchport VLAN sets differ across a link" };
    { code = "PRV001"; family = Privilege; severity = Diagnostic.Error;
      summary = "statement unreachable under first-match-wins" };
    { code = "PRV002"; family = Privilege; severity = Diagnostic.Warning;
      summary = "grant on a resource naming no device/interface in the network" };
    { code = "PRV003"; family = Privilege; severity = Diagnostic.Warning;
      summary = "over-broad grant (allow everything on every device)" };
    { code = "PRV004"; family = Privilege; severity = Diagnostic.Warning;
      summary = "grant strictly exceeds the privilege the changes exercised" };
    { code = "PLAN001"; family = Plan; severity = Diagnostic.Error;
      summary = "plan requires a privilege the grant denies (would fail mid-apply)" };
    { code = "PLAN002"; family = Plan; severity = Diagnostic.Warning;
      summary = "dead op: removing it leaves the plan's outcome unchanged" };
    { code = "PLAN003"; family = Plan; severity = Diagnostic.Warning;
      summary = "self-contradicting plan: ops race for one write slot, the last silently wins" };
    { code = "PLAN004"; family = Plan; severity = Diagnostic.Warning;
      summary = "write footprint outside the ticket scope" };
    { code = "PLAN005"; family = Plan; severity = Diagnostic.Info;
      summary = "predicted packet-set delta covers a policy's flow" };
    (* The POL analyzers live in Heimdall_poltree (they need the tree
       compiler); only their registry identity lives here. *)
    { code = "POL001"; family = Pol; severity = Diagnostic.Error;
      summary = "child allows traffic an ancestor unconditionally denies (deny!)" };
    { code = "POL002"; family = Pol; severity = Diagnostic.Warning;
      summary = "rule shadowed: earlier rules, siblings or descendants already decide all its traffic" };
    { code = "POL003"; family = Pol; severity = Diagnostic.Warning;
      summary = "node scope compiles to the empty packet set (unreachable under its ancestors)" };
    { code = "POL004"; family = Pol; severity = Diagnostic.Error;
      summary = "refinement violation: compiled tree and flat policy spec disagree (witnessed)" };
    { code = "POL005"; family = Pol; severity = Diagnostic.Warning;
      summary = "ticket delta can flip a tree verdict but its privilege covers no owner of the scope" };
    { code = "POL006"; family = Pol; severity = Diagnostic.Warning;
      summary = "redundant subtree: removing it leaves permit, deny and require sets unchanged" };
  ]

let families = List.sort_uniq compare (List.map (fun r -> r.family) rules)

let rule code = List.find_opt (fun r -> r.code = code) rules

(* ---------------- entry points ---------------- *)

let check_network ~engine ?(twin_exposed = false) net =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "lint.check_network" (fun () ->
      let nodes = Network.node_names net in
      let device_checks node =
        Config_lint.check_device net node @ Net_lint.check_device_routes net node
      in
      let per_device =
        Engine.phase engine "lint/devices" (fun () -> Engine.map engine device_checks nodes)
      in
      let links = Heimdall_net.Topology.links (Network.topology net) in
      let per_link =
        Engine.phase engine "lint/links" (fun () ->
            Engine.map engine (Net_lint.check_link net) links)
      in
      let cross =
        Config_lint.check_links net
        @ Net_lint.overlapping_subnets net
        @ Config_lint.duplicate_addresses net
        @ List.concat per_link
        @ if twin_exposed then Config_lint.twin_exposure net else []
      in
      let findings = List.sort Diagnostic.compare (List.concat per_device @ cross) in
      Heimdall_obs.Obs.add_attr obs "devices" (string_of_int (List.length nodes));
      Heimdall_obs.Obs.add_attr obs "findings" (string_of_int (List.length findings));
      Heimdall_obs.Obs.incr obs ~by:(List.length findings) "lint.findings";
      findings)

let check_privilege ?network ?label spec =
  Priv_lint.check ?network spec
  |> List.map (fun (d : Diagnostic.t) ->
         match label with Some _ -> { d with Diagnostic.device = label } | None -> d)
  |> List.sort Diagnostic.compare

let check_acl = Acl_lint.check

let check_privilege_usage ?label ~network ~spec ~changes () =
  Priv_lint.check_usage ?label ~network ~spec ~changes ()

let check_plans ~engine ?(policies = []) ~network tickets =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "lint.check_plans" (fun () ->
      let check_one t = Plan_lint.check ~network ~policies t in
      let per_ticket =
        Engine.phase engine "lint/plans" (fun () ->
            Engine.map ~min_per_domain:1 engine check_one tickets)
      in
      let findings = List.sort Diagnostic.compare (List.concat per_ticket) in
      Heimdall_obs.Obs.add_attr obs "tickets" (string_of_int (List.length tickets));
      Heimdall_obs.Obs.add_attr obs "findings" (string_of_int (List.length findings));
      Heimdall_obs.Obs.incr obs ~by:(List.length findings) "lint.findings";
      findings)

(* ---------------- filtering and rendering ---------------- *)

let filter ~min_severity diags =
  List.filter
    (fun (d : Diagnostic.t) ->
      Diagnostic.severity_rank d.severity >= Diagnostic.severity_rank min_severity)
    diags

let count severity diags =
  List.length (List.filter (fun (d : Diagnostic.t) -> d.severity = severity) diags)

let has_errors diags = count Diagnostic.Error diags > 0

(* The one severity gate every front-end shares: the exit decision is
   made on the *filtered* report, so what the user sees and what fails
   the process can never disagree. *)
let apply_severity ~min_severity diags =
  let filtered = filter ~min_severity diags in
  (filtered, has_errors filtered)

let summary diags =
  match diags with
  | [] -> "clean"
  | _ ->
      let part n what = if n = 0 then [] else [ Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") ] in
      Printf.sprintf "%d finding%s (%s)" (List.length diags)
        (if List.length diags = 1 then "" else "s")
        (String.concat ", "
           (part (count Diagnostic.Error diags) "error"
           @ part (count Diagnostic.Warning diags) "warning"
           @ part (count Diagnostic.Info diags) "info"))

let render diags =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Diagnostic.to_string d);
      Buffer.add_char buf '\n')
    diags;
  Buffer.add_string buf (summary diags);
  Buffer.add_char buf '\n';
  Buffer.contents buf

open Heimdall_json

let to_json diags =
  Json.Obj
    [
      ("findings", Json.List (List.map Diagnostic.to_json diags));
      ("errors", Json.Int (count Diagnostic.Error diags));
      ("warnings", Json.Int (count Diagnostic.Warning diags));
      ("info", Json.Int (count Diagnostic.Info diags));
    ]
