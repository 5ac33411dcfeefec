open Heimdall_net
open Heimdall_config

(* Union-find over string keys.  Keys: "I/<node>/<iface>" for L3 interface
   attachments, "S/<switch>/<vlan>" for a switch's per-VLAN bridge. *)
module Uf = struct
  type t = (string, string) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec find uf x =
    match Hashtbl.find_opt uf x with
    | None ->
        Hashtbl.replace uf x x;
        x
    | Some p when p = x -> x
    | Some p ->
        let root = find uf p in
        Hashtbl.replace uf x root;
        root

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then Hashtbl.replace uf ra rb
end

type domain_id = int

type t = {
  domain_by_iface : (string, domain_id) Hashtbl.t;  (* "node/iface" -> id *)
  switches_by_domain : (domain_id, string list) Hashtbl.t;
  ifaces_by_domain : (domain_id, Topology.endpoint list) Hashtbl.t;
}

let iface_key (e : Topology.endpoint) = Printf.sprintf "I/%s/%s" e.node e.iface
let switch_key sw vlan = Printf.sprintf "S/%s/%d" sw vlan

(* How one end of a cable attaches to L2, given its config. *)
type attachment =
  | L3 of Topology.endpoint  (* untagged endpoint with (potentially) an address *)
  | Sw_access of string * int  (* switch, vlan *)
  | Sw_trunk of string * int list  (* switch, allowed vlans *)
  | Detached  (* shut down or unconfigurable *)

let attachment_of net (e : Topology.endpoint) =
  match Network.config e.node net with
  | None -> Detached
  | Some cfg -> (
      match Ast.find_interface e.iface cfg with
      | None ->
          (* Unconfigured port: hosts/routers attach untagged anyway (an
             unnumbered port still links up); switches default to access
             vlan 1. *)
          (match Network.kind e.node net with
          | Some Topology.Switch -> Sw_access (e.node, 1)
          | Some (Topology.Router | Topology.Host | Topology.Firewall) -> L3 e
          | None -> Detached)
      | Some i -> (
          if not i.enabled then Detached
          else
            (* A switchport stanza makes the port a bridge port on any
               device kind — routers with switchports behave as L3
               switches (their SVIs provide the L3 presence). *)
            match i.switchport with
            | Some (Ast.Access v) -> Sw_access (e.node, v)
            | Some (Ast.Trunk vs) -> Sw_trunk (e.node, vs)
            | None -> (
                match Network.kind e.node net with
                | Some Topology.Switch -> Sw_access (e.node, 1)
                | Some (Topology.Router | Topology.Host | Topology.Firewall) -> L3 e
                | None -> Detached)))

(* SVIs: an interface named "vlan<N>" carrying an address attaches the
   device's own layer-3 presence to its vlan-N bridge domain. *)
let svi_vlan (i : Ast.interface) =
  let name = i.if_name in
  if String.length name > 4 && String.sub name 0 4 = "vlan" then
    int_of_string_opt (String.sub name 4 (String.length name - 4))
  else None

let compute net =
  let uf = Uf.create () in
  let links = Topology.links (Network.topology net) in
  let bridge a b =
    match (a, b) with
    | Detached, _ | _, Detached -> ()
    | L3 ea, L3 eb -> Uf.union uf (iface_key ea) (iface_key eb)
    | L3 ea, Sw_access (sw, v) | Sw_access (sw, v), L3 ea ->
        Uf.union uf (iface_key ea) (switch_key sw v)
    | L3 _, Sw_trunk _ | Sw_trunk _, L3 _ ->
        (* An untagged endpoint facing a trunk: frames are tagged on one
           side only — no connectivity (deliberate: misconfiguration). *)
        ()
    | Sw_access (s1, v1), Sw_access (s2, v2) ->
        (* Untagged bridging joins the two VLANs' domains regardless of id. *)
        Uf.union uf (switch_key s1 v1) (switch_key s2 v2)
    | Sw_trunk (s1, vs1), Sw_trunk (s2, vs2) ->
        List.iter
          (fun v -> if List.mem v vs2 then Uf.union uf (switch_key s1 v) (switch_key s2 v))
          vs1
    | Sw_access _, Sw_trunk _ | Sw_trunk _, Sw_access _ -> ()
  in
  List.iter
    (fun (l : Topology.link) ->
      bridge (attachment_of net l.a) (attachment_of net l.b))
    links;
  (* SVIs join the device's own per-VLAN bridge domain. *)
  let svis =
    List.concat_map
      (fun (node, (cfg : Ast.t)) ->
        List.filter_map
          (fun (i : Ast.interface) ->
            match svi_vlan i with
            | Some v when i.enabled && i.addr <> None ->
                Some ({ Topology.node; iface = i.if_name }, v)
            | _ -> None)
          cfg.interfaces)
      (Network.configs net)
  in
  List.iter
    (fun ((ep : Topology.endpoint), v) ->
      Uf.union uf (iface_key ep) (switch_key ep.node v))
    svis;
  (* Assign dense ids per root and index members. *)
  let root_ids = Hashtbl.create 16 in
  let next = ref 0 in
  let id_of_root r =
    match Hashtbl.find_opt root_ids r with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.replace root_ids r id;
        id
  in
  let domain_by_iface = Hashtbl.create 64 in
  let switches_by_domain = Hashtbl.create 16 in
  let ifaces_by_domain = Hashtbl.create 16 in
  let note_switch id sw =
    let cur = Option.value (Hashtbl.find_opt switches_by_domain id) ~default:[] in
    if not (List.mem sw cur) then Hashtbl.replace switches_by_domain id (sw :: cur)
  in
  let note_iface id e =
    let cur = Option.value (Hashtbl.find_opt ifaces_by_domain id) ~default:[] in
    Hashtbl.replace ifaces_by_domain id (e :: cur)
  in
  (* Walk every endpoint of every link to register attachments. *)
  List.iter
    (fun (l : Topology.link) ->
      List.iter
        (fun e ->
          match attachment_of net e with
          | L3 ep ->
              let id = id_of_root (Uf.find uf (iface_key ep)) in
              let key = Printf.sprintf "%s/%s" ep.node ep.iface in
              if not (Hashtbl.mem domain_by_iface key) then begin
                Hashtbl.replace domain_by_iface key id;
                note_iface id ep
              end
          | Sw_access (sw, v) ->
              let id = id_of_root (Uf.find uf (switch_key sw v)) in
              note_switch id sw
          | Sw_trunk (sw, vs) ->
              List.iter
                (fun v ->
                  let id = id_of_root (Uf.find uf (switch_key sw v)) in
                  note_switch id sw)
                vs
          | Detached -> ())
        [ l.a; l.b ])
    links;
  (* Register SVI attachments (they are not link endpoints). *)
  List.iter
    (fun ((ep : Topology.endpoint), _) ->
      let id = id_of_root (Uf.find uf (iface_key ep)) in
      let key = Printf.sprintf "%s/%s" ep.node ep.iface in
      if not (Hashtbl.mem domain_by_iface key) then begin
        Hashtbl.replace domain_by_iface key id;
        note_iface id ep
      end)
    svis;
  { domain_by_iface; switches_by_domain; ifaces_by_domain }

let domain_of (e : Topology.endpoint) t =
  Hashtbl.find_opt t.domain_by_iface (Printf.sprintf "%s/%s" e.node e.iface)

let same_domain a b t =
  match (domain_of a t, domain_of b t) with
  | Some da, Some db -> da = db
  | _ -> false

let domain_switches id t =
  Option.value (Hashtbl.find_opt t.switches_by_domain id) ~default:[]
  |> List.sort String.compare

let domains t =
  Hashtbl.fold
    (fun id ifaces acc ->
      let sorted =
        List.sort
          (fun (a : Topology.endpoint) b ->
            String.compare (Topology.endpoint_to_string a) (Topology.endpoint_to_string b))
          ifaces
      in
      (id, sorted) :: acc)
    t.ifaces_by_domain []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let changed_endpoints ~before ~after =
  (* What [same_domain] and [domain_switches] answer for an endpoint is a
     function of its domain's content: the attached endpoints and the
     bridging switches.  Ids differ between builds, so compare content,
     once per (before id, after id) pair. *)
  let content t id =
    ( List.sort compare (Option.value (Hashtbl.find_opt t.ifaces_by_domain id) ~default:[]),
      domain_switches id t )
  in
  let same = Hashtbl.create 16 in
  let same_content idb ida =
    match Hashtbl.find_opt same (idb, ida) with
    | Some s -> s
    | None ->
        let s = content before idb = content after ida in
        Hashtbl.replace same (idb, ida) s;
        s
  in
  let changed = ref [] in
  Hashtbl.iter
    (fun idb eps ->
      List.iter
        (fun e ->
          match domain_of e after with
          | Some ida when same_content idb ida -> ()
          | _ -> changed := e :: !changed)
        eps)
    before.ifaces_by_domain;
  Hashtbl.iter
    (fun _ eps ->
      List.iter (fun e -> if domain_of e before = None then changed := e :: !changed) eps)
    after.ifaces_by_domain;
  List.sort_uniq compare !changed
