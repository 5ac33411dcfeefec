open Heimdall_net
open Heimdall_config
module Smap = Map.Make (String)

type t = {
  topology : Topology.t;
  configs : Ast.t Smap.t;
  (* Structural digests, maintained incrementally: [with_config] re-digests
     exactly one device, so the composed digest of a 1-change network costs
     one device marshal instead of the whole network.  Configs and
     topologies are closure-free structural data, so marshalled-bytes
     digests are sound structural keys. *)
  topo_digest : string;
  cfg_digests : string Smap.t;
}

let digest_of_config (cfg : Ast.t) = Digest.string (Marshal.to_string cfg [])
let digest_of_topology (topo : Topology.t) = Topology.digest topo

let make topo configs =
  let names = Topology.node_names topo in
  let map =
    List.fold_left
      (fun acc (name, (cfg : Ast.t)) ->
        if not (Topology.mem_node name topo) then
          invalid_arg (Printf.sprintf "Network.make: config for unknown node %s" name);
        if cfg.hostname <> name then
          invalid_arg
            (Printf.sprintf "Network.make: node %s has hostname %s" name cfg.hostname);
        if Smap.mem name acc then
          invalid_arg (Printf.sprintf "Network.make: duplicate config for %s" name);
        Smap.add name cfg acc)
      Smap.empty configs
  in
  List.iter
    (fun n ->
      if not (Smap.mem n map) then
        invalid_arg (Printf.sprintf "Network.make: node %s has no config" n))
    names;
  {
    topology = topo;
    configs = map;
    topo_digest = digest_of_topology topo;
    cfg_digests = Smap.map digest_of_config map;
  }

let topology t = t.topology
let config name t = Smap.find_opt name t.configs

let config_exn name t =
  match config name t with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Network.config_exn: unknown node %s" name)

let configs t = Smap.bindings t.configs
let node_names t = Topology.node_names t.topology

let kind name t =
  Option.map (fun (n : Topology.node) -> n.kind) (Topology.node name t.topology)

let with_config name cfg t =
  if not (Smap.mem name t.configs) then
    invalid_arg (Printf.sprintf "Network.with_config: unknown node %s" name);
  {
    t with
    configs = Smap.add name cfg t.configs;
    cfg_digests = Smap.add name (digest_of_config cfg) t.cfg_digests;
  }

let device_digest name t = Smap.find_opt name t.cfg_digests

let digest t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.topo_digest;
  Smap.iter
    (fun name d ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf d)
    t.cfg_digests;
  Digest.string (Buffer.contents buf)

exception Different_nodes

let changed_devices a b =
  (* Same topology and node set required: a device-by-device digest
     comparison is only meaningful when the networks line up. *)
  if
    (not (String.equal a.topo_digest b.topo_digest))
    || Smap.cardinal a.cfg_digests <> Smap.cardinal b.cfg_digests
  then None
  else
    match
      Smap.fold
        (fun name d acc ->
          match Smap.find_opt name b.cfg_digests with
          | None -> raise Different_nodes
          | Some d' -> if String.equal d d' then acc else name :: acc)
        a.cfg_digests []
    with
    | changed -> Some (List.rev changed)
    | exception Different_nodes -> None

let apply_changes changes t =
  match Change.apply_all changes (fun n -> config n t) with
  | Error _ as e -> e
  | Ok updated ->
      Ok (List.fold_left (fun t (name, cfg) -> with_config name cfg t) t updated)

let owner_of_address addr t =
  Smap.fold
    (fun node cfg acc ->
      match acc with
      | Some _ -> acc
      | None ->
          List.find_map
            (fun (iface, a) ->
              if Ipv4.equal (Ifaddr.address a) addr then Some (node, iface) else None)
            (Ast.addresses cfg))
    t.configs None

let host_address name t =
  Option.bind (config name t) (fun cfg ->
      match Ast.addresses cfg with
      | (_, a) :: _ -> Some (Ifaddr.address a)
      | [] -> None)

let restrict keep t =
  let keep_set = List.fold_left (fun s n -> Smap.add n () s) Smap.empty keep in
  let mem n = Smap.mem n keep_set in
  let topo =
    List.fold_left
      (fun acc (n : Topology.node) ->
        if mem n.name then Topology.add_node n.name n.kind acc else acc)
      Topology.empty
      (Topology.nodes t.topology)
  in
  let topo =
    List.fold_left
      (fun acc (l : Topology.link) ->
        if mem l.a.node && mem l.b.node then Topology.add_link l.a l.b acc else acc)
      topo (Topology.links t.topology)
  in
  let cfgs = Smap.filter (fun name _ -> mem name) t.configs in
  {
    topology = topo;
    configs = cfgs;
    topo_digest = digest_of_topology topo;
    cfg_digests = Smap.filter (fun name _ -> mem name) t.cfg_digests;
  }

let total_config_lines t =
  Smap.fold (fun _ cfg n -> n + Printer.line_count cfg) t.configs 0

let validate t =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* L3 links join interfaces in the same subnet. *)
  List.iter
    (fun (l : Topology.link) ->
      let addr_of (e : Topology.endpoint) =
        Option.bind (config e.node t) (fun c -> Ast.interface_addr c e.iface)
      in
      match (addr_of l.a, addr_of l.b) with
      | Some a, Some b when not (Ifaddr.same_subnet a b) ->
          report "link %s <-> %s joins different subnets (%s vs %s)"
            (Topology.endpoint_to_string l.a)
            (Topology.endpoint_to_string l.b)
            (Ifaddr.to_string a) (Ifaddr.to_string b)
      | _ -> ())
    (Topology.links t.topology);
  (* Referenced ACLs exist; switchport VLANs are defined on the device. *)
  Smap.iter
    (fun node cfg ->
      List.iter
        (fun (i : Ast.interface) ->
          let check_acl = function
            | Some name when Ast.find_acl name cfg = None ->
                report "%s: interface %s references missing access-list %s" node i.if_name
                  name
            | _ -> ()
          in
          check_acl i.acl_in;
          check_acl i.acl_out;
          match i.switchport with
          | Some (Ast.Access v) when not (List.mem_assoc v cfg.vlans) ->
              report "%s: interface %s uses undefined vlan %d" node i.if_name v
          | Some (Ast.Trunk vs) ->
              List.iter
                (fun v ->
                  if not (List.mem_assoc v cfg.vlans) then
                    report "%s: interface %s trunks undefined vlan %d" node i.if_name v)
                vs
          | Some (Ast.Access _) | None -> ())
        cfg.interfaces)
    t.configs;
  match !problems with [] -> Ok () | p :: _ -> Error p
