open Heimdall_privilege
open Heimdall_control

type verdict = Allowed | Denied

type log_entry = {
  seq : int;
  technician : string;
  node : string;
  command : string;
  action : Action.t;
  verdict : verdict;
}

let log_entry_to_string e =
  Printf.sprintf "#%d %s@%s %s [%s] -> %s" e.seq e.technician e.node e.action e.command
    (match e.verdict with Allowed -> "allowed" | Denied -> "denied")

type error =
  | Not_connected
  | Unknown_node of string
  | Bad_command of string
  | Denied_request of { action : Action.t; node : string }
  | Exec_failed of string

let error_to_string = function
  | Not_connected -> "not connected to any device"
  | Unknown_node n -> Printf.sprintf "unknown device %s" n
  | Bad_command m -> Printf.sprintf "parse error: %s" m
  | Denied_request { action; node } ->
      Printf.sprintf "permission denied: %s on %s" action node
  | Exec_failed m -> Printf.sprintf "command failed: %s" m

type t = {
  emulation : Emulation.t;
  privilege : Privilege.t;
  technician : string;
  obs : Heimdall_obs.Obs.t option;
  mutable connected : string option;
  mutable entries : log_entry list;  (* newest first *)
  mutable seq : int;
}

let create ?(technician = "tech") ?obs ~privilege emulation =
  { emulation; privilege; technician; obs; connected = None; entries = []; seq = 0 }

let emulation t = t.emulation
let privilege t = t.privilege
let connected t = t.connected
let log t = List.rev t.entries
let denied_count t = List.length (List.filter (fun e -> e.verdict = Denied) t.entries)
let command_count t = List.length t.entries

let record t ~node ~command ~action verdict =
  t.seq <- t.seq + 1;
  t.entries <-
    { seq = t.seq; technician = t.technician; node; command; action; verdict }
    :: t.entries;
  Heimdall_obs.Obs.incr t.obs "session.commands"
    ~labels:[ ("verdict", if verdict = Denied then "denied" else "allowed") ];
  if verdict = Denied then Heimdall_obs.Obs.incr t.obs "session.denied"

let run t (cmd : Command.t) node =
  (* Precondition: privilege granted.  Produce console output. *)
  let em = t.emulation in
  match cmd with
  | Command.Connect n ->
      t.connected <- Some n;
      Ok (Printf.sprintf "connected to %s\n" n)
  | Command.Disconnect ->
      t.connected <- None;
      Ok "disconnected\n"
  | Command.Show Command.Running_config -> Ok (Presentation.running_config em ~node)
  | Command.Show Command.Interfaces -> Ok (Presentation.interfaces em ~node)
  | Command.Show Command.Ip_route -> Ok (Presentation.ip_route em ~node)
  | Command.Show Command.Access_lists -> Ok (Presentation.access_lists em ~node)
  | Command.Show Command.Ospf_neighbors -> Ok (Presentation.ospf_neighbors em ~node)
  | Command.Show Command.Vlans -> Ok (Presentation.vlans em ~node)
  | Command.Show Command.Topology_view -> Ok (Presentation.topology_view em)
  | Command.Ping dst -> Ok (Presentation.ping em ~node dst)
  | Command.Traceroute dst -> Ok (Presentation.traceroute em ~node dst)
  | Command.Configure op -> (
      match Emulation.apply em ~node op with
      | Ok () -> Ok "ok\n"
      | Error m -> Error (Exec_failed m))
  | Command.Reload ->
      Emulation.reload em ~node;
      Ok (Printf.sprintf "%s reloaded\n" node)
  | Command.Erase ->
      Emulation.erase em ~node;
      Ok (Printf.sprintf "%s startup-config erased\n" node)

let exec t line =
  match Command.parse_result line with
  | Error m ->
      record t
        ~node:(Option.value t.connected ~default:"-")
        ~command:line ~action:"show.topology" Denied;
      Error (Bad_command m)
  | Ok cmd -> (
      (* Scope: connect names its own target; everything else needs a
         connected device. *)
      let node_scope =
        match cmd with
        | Command.Connect n -> Ok n
        | Command.Disconnect -> Ok (Option.value t.connected ~default:"-")
        | _ -> (
            match t.connected with Some n -> Ok n | None -> Error Not_connected)
      in
      match node_scope with
      | Error e ->
          record t ~node:"-" ~command:line ~action:(Command.action_name cmd) Denied;
          Error e
      | Ok node ->
          let exists = Network.config node (Emulation.network t.emulation) <> None in
          if (not exists) && node <> "-" then begin
            record t ~node ~command:line ~action:(Command.action_name cmd) Denied;
            Error (Unknown_node node)
          end
          else
            let action = Command.action_name cmd in
            let request =
              Privilege.request ?iface:(Command.target_iface cmd) action node
            in
            if not (Privilege.allows t.privilege request) then begin
              record t ~node ~command:line ~action Denied;
              Heimdall_obs.Obs.event t.obs "privilege.denied"
                ~attrs:
                  [
                    ("technician", t.technician);
                    ("action", action);
                    ("node", node);
                    ("command", line);
                  ];
              Error (Denied_request { action; node })
            end
            else begin
              record t ~node ~command:line ~action Allowed;
              run t cmd node
            end)

let exec_many t lines = List.map (exec t) lines
