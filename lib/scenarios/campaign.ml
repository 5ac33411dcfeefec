open Heimdall_net
open Heimdall_control
open Heimdall_msp

type event_kind = Honest_repair | Exfiltration | Rogue_change | Careless

let event_kind_to_string = function
  | Honest_repair -> "honest repair"
  | Exfiltration -> "exfiltration"
  | Rogue_change -> "rogue change"
  | Careless -> "careless erase"

type event = { index : int; kind : event_kind }
type model = Rmm_model | Heimdall_model

let model_to_string = function Rmm_model -> "rmm" | Heimdall_model -> "heimdall"

type tally = {
  model : model;
  tickets : int;
  repaired : int;
  secrets_leaked : int;
  policies_damaged : int;
  attacks_blocked : int;
}

(* A tiny deterministic LCG (Numerical Recipes constants) so campaigns
   replay bit-for-bit. *)
let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1664525) + 1013904223) land 0x3FFFFFFF;
    !state mod bound

let events ~seed ~tickets ~malicious_pct =
  let next = lcg seed in
  List.init tickets (fun index ->
      let kind =
        if next 100 < malicious_pct then
          match next 3 with 0 -> Exfiltration | 1 -> Rogue_change | _ -> Careless
        else Honest_repair
      in
      { index; kind })

(* ------------------------------------------------------------------ *)
(* Per-event handlers.  Each returns (repaired, leaked, damaged,
   blocked) increments; events are episodic (evaluated against the
   healthy network) so models are compared on identical inputs.         *)
(* ------------------------------------------------------------------ *)

(* Round-robin issue selection for honest repairs.  Guarded: a network
   with no prepared issues must fail with a clear message, not a
   [Division_by_zero] from [mod] (or a [List.nth] failure). *)
let issue_for issues event =
  match issues with
  | [] ->
      invalid_arg
        (Printf.sprintf
           "Campaign: honest-repair event %d but the network supplies no issues"
           event.index)
  | _ -> List.nth issues (event.index mod List.length issues)

let gateway_of net =
  (* Any access router carrying an SVI makes a good erase target. *)
  match
    List.find_opt
      (fun n ->
        Network.kind n net = Some Topology.Router
        && List.exists
             (fun (i : Heimdall_config.Ast.interface) ->
               String.length i.if_name > 4 && String.sub i.if_name 0 4 = "vlan")
             (Network.config_exn n net).interfaces)
      (Network.node_names net)
  with
  | Some n -> n
  | None -> List.hd (Network.node_names net)

let rogue_commands net =
  (* Open the first deny rule's pair on whichever device carries an ACL. *)
  let acl_node =
    List.find_opt
      (fun n -> (Network.config_exn n net).acls <> [])
      (Network.node_names net)
  in
  match acl_node with
  | None -> None
  | Some node ->
      let acl = List.hd (Network.config_exn node net).acls in
      Some
        (Attacks.malicious_acl_commands ~acl:acl.Acl.name ~seq:1 ~src:Prefix.any
           ~dst:Prefix.any ~node)

let routers net =
  List.filter
    (fun n ->
      match Network.kind n net with
      | Some (Topology.Router | Topology.Firewall) -> true
      | _ -> false)
    (Network.node_names net)

let run_rmm_event ~engine net policies issues event =
  match event.kind with
  | Honest_repair ->
      let issue = issue_for issues event in
      let run = Workflow.run_current ~engine ~production:net ~issue in
      ((if run.Workflow.resolved then 1 else 0), 0, 0, 0)
  | Exfiltration ->
      let session = Rmm.open_direct_session net in
      let r = Attacks.exfiltrate ~production:net ~targets:(routers net) session in
      (0, List.length r.Attacks.leaked, 0, 0)
  | Rogue_change -> (
      match rogue_commands net with
      | None -> (0, 0, 0, 0)
      | Some commands ->
          let session = Rmm.open_direct_session net in
          let (_ : (string, Heimdall_twin.Session.error) result list) =
            Heimdall_twin.Session.exec_many session commands
          in
          let after = Rmm.resulting_network session in
          (0, 0, Attacks.policy_damage ~engine ~policies ~before:net ~after, 0))
  | Careless ->
      let session = Rmm.open_direct_session net in
      let (_ : (string, Heimdall_twin.Session.error) result list) =
        Heimdall_twin.Session.exec_many session
          (Attacks.erase_gateway_commands ~gateway:(gateway_of net))
      in
      let after = Rmm.resulting_network session in
      (0, 0, Attacks.policy_damage ~engine ~policies ~before:net ~after, 0)

let heimdall_session_for net ticket =
  let slice =
    Heimdall_twin.Twin.slice_nodes ~production:net ~endpoints:ticket.Ticket.endpoints ()
  in
  let privilege = Priv_gen.for_ticket ~network:net ~slice ticket in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:ticket.Ticket.endpoints () in
  (Heimdall_twin.Twin.open_session ~privilege em, privilege)

let generic_ticket net =
  let hosts =
    List.filter (fun n -> Network.kind n net = Some Topology.Host) (Network.node_names net)
  in
  let endpoints =
    match hosts with a :: b :: _ -> [ a; b ] | a :: _ -> [ a ] | [] -> []
  in
  Ticket.make ~id:"CAMPAIGN" ~kind:Ticket.Connectivity ~description:"campaign event"
    ~endpoints

let run_heimdall_event ~engine net policies issues event =
  match event.kind with
  | Honest_repair ->
      let issue = issue_for issues event in
      let run = Workflow.run_heimdall ~engine ~production:net ~policies ~issue () in
      ((if run.Workflow.resolved then 1 else 0), 0, 0, 0)
  | Exfiltration ->
      let session, _ = heimdall_session_for net (generic_ticket net) in
      let r = Attacks.exfiltrate ~production:net ~targets:(routers net) session in
      (0, List.length r.Attacks.leaked, 0, (if r.Attacks.leaked = [] then 1 else 0))
  | Rogue_change -> (
      match rogue_commands net with
      | None -> (0, 0, 0, 1)
      | Some commands ->
          let session, privilege = heimdall_session_for net (generic_ticket net) in
          let (_ : (string, Heimdall_twin.Session.error) result list) =
            Heimdall_twin.Session.exec_many session commands
          in
          let outcome =
            Heimdall_enforcer.Enforcer.process ~engine ~production:net ~policies
              ~privilege ~session ()
          in
          let after =
            Option.value outcome.Heimdall_enforcer.Enforcer.updated ~default:net
          in
          let damage = Attacks.policy_damage ~engine ~policies ~before:net ~after in
          (0, 0, damage, (if damage = 0 then 1 else 0)))
  | Careless ->
      let session, _ = heimdall_session_for net (generic_ticket net) in
      let results =
        Heimdall_twin.Session.exec_many session
          (Attacks.erase_gateway_commands ~gateway:(gateway_of net))
      in
      let blocked = List.exists Result.is_error results in
      (0, 0, 0, (if blocked then 1 else 0))

let run ~engine ?(seed = 42) ?(tickets = 40) ?(malicious_pct = 20) net policies issues =
  (* No blanket issue check here: an all-malicious campaign never draws
     an issue, and [issue_for] reports the empty case clearly if an
     honest repair does come up. *)
  let stream = events ~seed ~tickets ~malicious_pct in
  let tally model handler =
    let repaired, leaked, damaged, blocked =
      List.fold_left
        (fun (r, l, d, b) event ->
          let r', l', d', b' = handler ~engine net policies issues event in
          (r + r', l + l', d + d', b + b'))
        (0, 0, 0, 0) stream
    in
    {
      model;
      tickets;
      repaired;
      secrets_leaked = leaked;
      policies_damaged = damaged;
      attacks_blocked = blocked;
    }
  in
  [ tally Rmm_model run_rmm_event; tally Heimdall_model run_heimdall_event ]

let render tallies =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Model     Tickets  Repaired  Secrets leaked  Policies damaged  Attacks blocked\n";
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%-8s  %7d  %8d  %14d  %16d  %15d\n" (model_to_string t.model)
           t.tickets t.repaired t.secrets_leaked t.policies_damaged t.attacks_blocked))
    tallies;
  Buffer.contents buf
