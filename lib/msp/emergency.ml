open Heimdall_control
open Heimdall_privilege
open Heimdall_verify
open Heimdall_twin
open Heimdall_config

type refusal =
  | Denied of { action : Action.t; node : string }
  | Would_violate of string list
  | Malformed of string
  | No_device

let refusal_to_string = function
  | Denied { action; node } -> Printf.sprintf "denied: %s on %s" action node
  | Would_violate reasons ->
      Printf.sprintf "refused: change would violate %d policies (%s)" (List.length reasons)
        (String.concat "; " reasons)
  | Malformed m -> Printf.sprintf "parse error: %s" m
  | No_device -> "not connected to any device"

type t = {
  engine : Engine.t;
  technician : string;
  policies : Policy.t list;
  privilege : Privilege.t;
  mutable network : Network.t;
  mutable connected : string option;
  mutable audit : Heimdall_enforcer.Audit.t;
  mutable applied : Change.t list;  (* newest first *)
}

let record t ~action ~resource ~detail ~verdict =
  t.audit <-
    Heimdall_enforcer.Audit.append ~actor:t.technician ~action ~resource ~detail ~verdict
      t.audit

let open_session ?(technician = "tech") ~engine ~reason ~production ~policies ~privilege
    () =
  let t =
    {
      engine;
      technician;
      policies;
      privilege;
      network = production;
      connected = None;
      audit = Heimdall_enforcer.Audit.empty;
      applied = [];
    }
  in
  record t ~action:"emergency.open" ~resource:"production" ~detail:reason ~verdict:"opened";
  t

let production t = t.network
let audit t = t.audit
let applied t = List.rev t.applied

let dataplane t net = Engine.dataplane t.engine net

(* Policies that currently hold; used to refuse changes that would break
   any of them. *)
let held t =
  let report = Policy.check_all ~engine:t.engine (dataplane t t.network) t.policies in
  List.filter
    (fun p -> not (List.exists (fun (q, _) -> Policy.equal p q) report.violations))
    t.policies

let try_apply t node op =
  match Network.apply_changes [ Change.v node op ] t.network with
  | Error m -> Error (Malformed m)
  | Ok candidate ->
      let held_before = held t in
      let report = Policy.check_all ~engine:t.engine (dataplane t candidate) t.policies in
      let newly_broken =
        List.filter
          (fun (p, _) -> List.exists (Policy.equal p) held_before)
          report.violations
      in
      if newly_broken <> [] then
        Error (Would_violate (List.map (fun (_, reason) -> reason) newly_broken))
      else begin
        t.network <- candidate;
        t.applied <- Change.v node op :: t.applied;
        Ok "applied to production\n"
      end

let exec t line =
  match Command.parse_result line with
  | Error m ->
      record t ~action:"emergency.exec" ~resource:"-" ~detail:line ~verdict:"malformed";
      Error (Malformed m)
  | Ok cmd -> (
      let node_scope =
        match cmd with
        | Command.Connect n -> Ok n
        | Command.Disconnect -> Ok (Option.value t.connected ~default:"-")
        | _ -> ( match t.connected with Some n -> Ok n | None -> Error No_device)
      in
      match node_scope with
      | Error e ->
          record t ~action:(Command.action_name cmd) ~resource:"-" ~detail:line
            ~verdict:"refused";
          Error e
      | Ok node ->
          let action = Command.action_name cmd in
          let request = Privilege.request ?iface:(Command.target_iface cmd) action node in
          let allowed =
            Privilege.allows t.privilege request
            && (not (Action.is_destructive action))
            && action <> "system.reboot"
          in
          if not allowed then begin
            record t ~action ~resource:node ~detail:line ~verdict:"denied";
            Error (Denied { action; node })
          end
          else begin
            let result =
              match cmd with
              | Command.Connect n ->
                  if Network.config n t.network = None then Error No_device
                  else begin
                    t.connected <- Some n;
                    Ok (Printf.sprintf "connected to %s (PRODUCTION)\n" n)
                  end
              | Command.Disconnect ->
                  t.connected <- None;
                  Ok "disconnected\n"
              | Command.Configure op -> try_apply t node op
              | Command.Reload | Command.Erase ->
                  (* Unreachable: is_destructive filtered above; reload
                     blocked explicitly. *)
                  Error (Denied { action; node })
              | Command.Show _ | Command.Ping _ | Command.Traceroute _ ->
                  (* Reads run against live production state through a
                     throwaway unchecked emulation wrapper. *)
                  let em = Emulation.create_unchecked t.network in
                  let out =
                    match cmd with
                    | Command.Show Command.Running_config ->
                        Presentation.running_config em ~node
                    | Command.Show Command.Interfaces -> Presentation.interfaces em ~node
                    | Command.Show Command.Ip_route -> Presentation.ip_route em ~node
                    | Command.Show Command.Access_lists -> Presentation.access_lists em ~node
                    | Command.Show Command.Ospf_neighbors ->
                        Presentation.ospf_neighbors em ~node
                    | Command.Show Command.Vlans -> Presentation.vlans em ~node
                    | Command.Show Command.Topology_view -> Presentation.topology_view em
                    | Command.Ping dst -> Presentation.ping em ~node dst
                    | Command.Traceroute dst -> Presentation.traceroute em ~node dst
                    | Command.Connect _ | Command.Disconnect | Command.Configure _
                    | Command.Reload | Command.Erase ->
                        assert false
                  in
                  Ok out
            in
            let verdict =
              match result with
              | Ok _ -> "allowed"
              | Error (Would_violate _) -> "refused-policy"
              | Error _ -> "refused"
            in
            record t ~action ~resource:node ~detail:line ~verdict;
            result
          end)
