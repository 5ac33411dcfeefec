open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_privilege

type section =
  | Iface of string
  | Acl of string
  | Routing
  | Ospf
  | Vlans
  | Secrets

let section_rank = function
  | Iface _ -> 0
  | Acl _ -> 1
  | Routing -> 2
  | Ospf -> 3
  | Vlans -> 4
  | Secrets -> 5

let section_compare a b =
  match (a, b) with
  | Iface x, Iface y -> String.compare x y
  | Acl x, Acl y -> String.compare x y
  | _ -> Int.compare (section_rank a) (section_rank b)

let section_to_string = function
  | Iface i -> "interface " ^ i
  | Acl a -> "acl " ^ a
  | Routing -> "routing"
  | Ospf -> "ospf"
  | Vlans -> "vlans"
  | Secrets -> "secrets"

type requirement = {
  req_action : Action.t;
  req_node : string;
  req_iface : string option;
  source : string;
}

let requirement_compare a b =
  match String.compare a.req_node b.req_node with
  | 0 -> (
      match String.compare a.req_action b.req_action with
      | 0 -> compare a.req_iface b.req_iface
      | c -> c)
  | c -> c

let requirement_to_string r =
  Printf.sprintf "%s on %s%s" r.req_action r.req_node
    (match r.req_iface with Some i -> ":" ^ i | None -> "")

type effect_sig = {
  change : Change.t;
  section : section;
  action : Action.t;
  iface : string option;
  delta : Packet_set.t;
}

(* The one place the static analysis and the runtime monitors must agree:
   a change's privilege request is built with the same construction
   [Session.exec] and [Verifier.privilege_rejections] use, so "statically
   sufficient" can never disagree with replay about a single change. *)
let op_requirement (c : Change.t) =
  {
    req_action = Change.op_action_name c.op;
    req_node = c.node;
    req_iface = Change.target_iface c.op;
    source = Change.to_string c;
  }

let section_of_op (op : Change.op) =
  match op with
  | Change.Set_interface_enabled { iface; _ }
  | Change.Set_interface_addr { iface; _ }
  | Change.Set_interface_description { iface; _ }
  | Change.Set_ospf_cost { iface; _ }
  | Change.Set_ospf_area { iface; _ }
  | Change.Set_switchport { iface; _ }
  | Change.Set_acl_binding { iface; _ } ->
      Iface iface
  | Change.Acl_set_rule { acl; _ }
  | Change.Acl_remove_rule { acl; _ }
  | Change.Acl_remove { acl } ->
      Acl acl
  | Change.Add_static_route _ | Change.Remove_static_route _
  | Change.Set_default_gateway _ ->
      Routing
  | Change.Ospf_set_network _ | Change.Ospf_remove_network _ -> Ospf
  | Change.Set_vlan_name _ -> Vlans
  | Change.Set_secret _ -> Secrets

(* ACL-content knowledge threaded through the plan: what we know each
   (device, acl) holds at every program point.  Seeded from the baseline
   network when available, updated by the plan's own ACL edits.  [None]
   means "contents unknown" and forces the conservative [full] delta. *)
module Smap = Map.Make (String)

let acl_key node acl = node ^ "\000" ^ acl

let baseline_rules network node acl =
  match network with
  | None -> None
  | Some net -> (
      match Network.config node net with
      | None -> None
      | Some cfg -> (
          match Ast.find_acl acl cfg with
          | Some (a : Heimdall_net.Acl.t) -> Some a.rules
          | None -> Some []))

let known_rules network state node acl =
  match Smap.find_opt (acl_key node acl) state with
  | Some rules -> Some rules
  | None -> baseline_rules network node acl

let rules_packets rules =
  List.fold_left
    (fun acc r -> Packet_set.union acc (Heimdall_net.Acl.rule_packets r))
    Packet_set.empty rules

let find_rule_seq seq rules =
  List.find_opt (fun (r : Heimdall_net.Acl.rule) -> r.seq = seq) rules

(* Delta of one op given the knowledge state, plus the updated state.
   Everything that can redirect arbitrary traffic (interface state and
   addressing, switchports, bindings, OSPF, routing defaults) is [full];
   the interesting tightening is ACL rule edits, where the affected
   packets are exactly the touched rules' match sets. *)
let op_delta network state (c : Change.t) =
  let keep d = (d, state) in
  match c.op with
  | Change.Set_interface_description _ -> keep Packet_set.empty
  | Change.Set_vlan_name { name = Some _; _ } -> keep Packet_set.empty
  | Change.Set_secret _ -> keep Packet_set.empty
  | Change.Set_vlan_name { name = None; _ } -> keep Packet_set.full
  | Change.Set_interface_enabled _ | Change.Set_interface_addr _
  | Change.Set_ospf_cost _ | Change.Set_ospf_area _ | Change.Set_switchport _
  | Change.Set_acl_binding _ | Change.Set_default_gateway _
  | Change.Ospf_set_network _ | Change.Ospf_remove_network _ ->
      keep Packet_set.full
  | Change.Add_static_route { sr_prefix; _ } ->
      keep (Packet_set.cube ~src:Prefix.any ~dst:sr_prefix ())
  | Change.Remove_static_route { prefix; _ } ->
      keep (Packet_set.cube ~src:Prefix.any ~dst:prefix ())
  | Change.Acl_set_rule { acl; rule } -> (
      let added = Heimdall_net.Acl.rule_packets rule in
      match known_rules network state c.node acl with
      | None -> keep Packet_set.full
      | Some rules ->
          let replaced =
            match find_rule_seq rule.seq rules with
            | Some old -> Heimdall_net.Acl.rule_packets old
            | None -> Packet_set.empty
          in
          let rules' =
            rule
            :: List.filter
                 (fun (r : Heimdall_net.Acl.rule) -> r.seq <> rule.seq)
                 rules
          in
          ( Packet_set.union added replaced,
            Smap.add (acl_key c.node acl) rules' state ))
  | Change.Acl_remove_rule { acl; seq } -> (
      match known_rules network state c.node acl with
      | None -> keep Packet_set.full
      | Some rules ->
          let removed =
            match find_rule_seq seq rules with
            | Some r -> Heimdall_net.Acl.rule_packets r
            | None -> Packet_set.empty
          in
          let rules' =
            List.filter (fun (r : Heimdall_net.Acl.rule) -> r.seq <> seq) rules
          in
          (removed, Smap.add (acl_key c.node acl) rules' state))
  | Change.Acl_remove { acl } -> (
      match known_rules network state c.node acl with
      | None -> keep Packet_set.full
      | Some rules -> (rules_packets rules, Smap.add (acl_key c.node acl) [] state))

(* Write slot an op races for.  Two structurally different ops on the
   same slot contradict each other (the later silently wins); [None]
   means the op has no single slot worth racing on. *)
let write_slot (c : Change.t) =
  let iface_slot iface field = Some (c.node ^ ":" ^ iface ^ "#" ^ field) in
  match c.op with
  | Change.Set_interface_enabled { iface; _ } -> iface_slot iface "enabled"
  | Change.Set_interface_addr { iface; _ } -> iface_slot iface "addr"
  | Change.Set_interface_description { iface; _ } -> iface_slot iface "description"
  | Change.Set_ospf_cost { iface; _ } -> iface_slot iface "ospf-cost"
  | Change.Set_ospf_area { iface; _ } -> iface_slot iface "ospf-area"
  | Change.Set_switchport { iface; _ } -> iface_slot iface "switchport"
  | Change.Set_acl_binding { iface; dir; _ } ->
      iface_slot iface
        (match dir with `In -> "acl-in" | `Out -> "acl-out")
  | Change.Acl_set_rule { acl; rule } ->
      Some (Printf.sprintf "%s:%s#rule %d" c.node acl rule.seq)
  | Change.Acl_remove_rule { acl; seq } ->
      Some (Printf.sprintf "%s:%s#rule %d" c.node acl seq)
  | Change.Acl_remove _ -> None
  | Change.Add_static_route { sr_prefix; sr_next_hop; _ } ->
      Some
        (Printf.sprintf "%s#route %s via %s" c.node
           (Prefix.to_string sr_prefix) (Ipv4.to_string sr_next_hop))
  | Change.Remove_static_route { prefix; next_hop } ->
      Some
        (Printf.sprintf "%s#route %s via %s" c.node (Prefix.to_string prefix)
           (Ipv4.to_string next_hop))
  | Change.Set_default_gateway _ -> Some (c.node ^ "#default-gateway")
  | Change.Ospf_set_network { prefix; _ } ->
      Some (Printf.sprintf "%s#ospf network %s" c.node (Prefix.to_string prefix))
  | Change.Ospf_remove_network { prefix } ->
      Some (Printf.sprintf "%s#ospf network %s" c.node (Prefix.to_string prefix))
  | Change.Set_vlan_name { vlan; _ } ->
      Some (Printf.sprintf "%s#vlan %d" c.node vlan)
  | Change.Set_secret s ->
      let slot =
        match s with
        | Ast.Ipsec_key (_, peer) ->
            Ast.secret_kind s ^ " " ^ Ipv4.to_string peer
        | Ast.User_password (user, _) -> Ast.secret_kind s ^ " " ^ user
        | _ -> Ast.secret_kind s
      in
      Some (c.node ^ "#" ^ slot)

let contradictions changes =
  let slots =
    List.filter_map
      (fun c -> Option.map (fun s -> (s, c)) (write_slot c))
      changes
  in
  let keys = List.sort_uniq String.compare (List.map fst slots) in
  List.filter_map
    (fun key ->
      let racing = List.filter_map (fun (k, c) -> if k = key then Some c else None) slots in
      match racing with
      | _ :: _ :: _ when not (List.for_all (fun c -> c = List.hd racing) racing) ->
          Some (key, racing)
      | _ -> None)
    keys

(* Exact dead-op detection: position [i] is dead iff the plan without it
   still applies cleanly and produces structurally equal configs on every
   touched device.  Quadratic in plan length, which plans are short enough
   to afford — and "exact" beats any syntactic overwrite heuristic (it
   catches sets of already-present values for free). *)
let dead_ops network changes =
  match network with
  | None -> []
  | Some net -> (
      let lookup n = Network.config n net in
      match Change.apply_all changes lookup with
      | Error _ -> []
      | Ok full ->
          let config_of results node =
            match List.assoc_opt node results with
            | Some cfg -> Some cfg
            | None -> lookup node
          in
          let nodes =
            List.sort_uniq String.compare (List.map (fun (c : Change.t) -> c.node) changes)
          in
          List.concat
            (List.mapi
               (fun i c ->
                 let without = List.filteri (fun j _ -> j <> i) changes in
                 match Change.apply_all without lookup with
                 | Error _ -> []
                 | Ok partial ->
                     let same =
                       List.for_all
                         (fun node ->
                           match (config_of full node, config_of partial node) with
                           | Some a, Some b -> Ast.equal a b
                           | None, None -> true
                           | _ -> false)
                         nodes
                     in
                     if same then [ (i, c) ] else [])
               changes))

type t = {
  changes : Change.t list;
  effects : effect_sig list;
  footprint : (string * section) list;
  requirements : requirement list;
  delta : Packet_set.t;
  device_deltas : (string * Packet_set.t) list;
  dead : (int * Change.t) list;
  contradictions : (string * Change.t list) list;
}

let analyze ?network changes =
  let effects =
    let rec go state acc = function
      | [] -> List.rev acc
      | (c : Change.t) :: rest ->
          let delta, state' = op_delta network state c in
          let e =
            {
              change = c;
              section = section_of_op c.op;
              action = Change.op_action_name c.op;
              iface = Change.target_iface c.op;
              delta;
            }
          in
          go state' (e :: acc) rest
    in
    go Smap.empty [] changes
  in
  let footprint =
    List.sort_uniq
      (fun (n, s) (n', s') ->
        match String.compare n n' with 0 -> section_compare s s' | c -> c)
      (List.map (fun (e : effect_sig) -> (e.change.Change.node, e.section)) effects)
  in
  let requirements =
    List.sort_uniq requirement_compare (List.map op_requirement changes)
  in
  let delta =
    List.fold_left
      (fun acc (e : effect_sig) -> Packet_set.union acc e.delta)
      Packet_set.empty effects
  in
  let device_deltas =
    let nodes =
      List.sort_uniq String.compare (List.map (fun (c : Change.t) -> c.node) changes)
    in
    List.filter_map
      (fun node ->
        let d =
          List.fold_left
            (fun acc (e : effect_sig) ->
              if e.change.Change.node = node then Packet_set.union acc e.delta
              else acc)
            Packet_set.empty effects
        in
        if Packet_set.is_empty d then None else Some (node, d))
      nodes
  in
  {
    changes;
    effects;
    footprint;
    requirements;
    delta;
    device_deltas;
    dead = dead_ops network changes;
    contradictions = contradictions changes;
  }

let footprint_to_string fp =
  String.concat ", "
    (List.map (fun (node, s) -> node ^ "/" ^ section_to_string s) fp)

type script = {
  commands : string list;
  script_changes : Change.t list;
  script_requirements : requirement list;
  script_errors : (string * string) list;
}

(* Mirror of [Session.exec]'s scoping: connect names its own target,
   disconnect falls back to "-" when nothing is connected, everything
   else needs a connected device. *)
let script_of_commands commands =
  let rec go connected changes reqs errs = function
    | [] ->
        {
          commands;
          script_changes = List.rev changes;
          script_requirements = List.rev reqs;
          script_errors = List.rev errs;
        }
    | line :: rest -> (
        match Heimdall_twin.Command.parse_result line with
        | Error m -> go connected changes reqs ((line, m) :: errs) rest
        | Ok cmd -> (
            let scope =
              match cmd with
              | Heimdall_twin.Command.Connect n -> Some n
              | Heimdall_twin.Command.Disconnect ->
                  Some (Option.value connected ~default:"-")
              | _ -> connected
            in
            match scope with
            | None ->
                go connected changes reqs
                  ((line, "no connected device") :: errs)
                  rest
            | Some node ->
                let req =
                  {
                    req_action = Heimdall_twin.Command.action_name cmd;
                    req_node = node;
                    req_iface = Heimdall_twin.Command.target_iface cmd;
                    source = line;
                  }
                in
                let changes' =
                  match cmd with
                  | Heimdall_twin.Command.Configure op ->
                      Change.v node op :: changes
                  | _ -> changes
                in
                let connected' =
                  match cmd with
                  | Heimdall_twin.Command.Connect n -> Some n
                  | Heimdall_twin.Command.Disconnect -> None
                  | _ -> connected
                in
                go connected' changes' (req :: reqs) errs rest))
  in
  go None [] [] [] commands

let plan_requirements ?network script =
  (* A diff can normalize a scripted op into a different action (e.g.
     removing an ACL's last rule resurfaces as [acl.remove]), and the
     enforcer's verifier checks the *diff*, not the script — so the
     static privilege surface must include both. *)
  let diff_reqs =
    match network with
    | None -> []
    | Some net -> (
        let lookup n = Network.config n net in
        match Change.apply_all script.script_changes lookup with
        | Error _ -> []
        | Ok updated ->
            List.concat_map
              (fun (node, after) ->
                match lookup node with
                | None -> []
                | Some before ->
                    List.map op_requirement (Change.diff ~node before after))
              updated)
  in
  List.sort_uniq requirement_compare (script.script_requirements @ diff_reqs)

type proof = {
  sufficient : bool;
  missing : requirement list;
  unneeded : (int * Privilege.predicate) list;
}

let request_of_requirement r =
  Privilege.request ?iface:r.req_iface r.req_action r.req_node

let deciding_predicate (spec : Privilege.t) req =
  let rec go i = function
    | [] -> None
    | p :: rest ->
        if Privilege.predicate_matches p req then Some i else go (i + 1) rest
  in
  go 0 spec.predicates

let prove ~spec requirements =
  let missing =
    List.sort_uniq requirement_compare
      (List.filter
         (fun r -> not (Privilege.allows spec (request_of_requirement r)))
         requirements)
  in
  let used =
    List.filter_map
      (fun r -> deciding_predicate spec (request_of_requirement r))
      requirements
  in
  let unneeded =
    List.mapi (fun i p -> (i, p)) spec.Privilege.predicates
    |> List.filter (fun (i, (p : Privilege.predicate)) ->
           p.effect = Privilege.Allow && not (List.mem i used))
  in
  { sufficient = missing = []; missing; unneeded }
