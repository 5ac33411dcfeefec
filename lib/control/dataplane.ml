open Heimdall_net
open Heimdall_config
module Smap = Map.Make (String)
module Amap = Map.Make (Ipv4)
module Aset = Set.Make (Ipv4)

type t = {
  network : Network.t;
  l2 : L2.t;
  fibs : Fib.t Smap.t;
  (* Pre-merge candidate routes per node, kept so an incremental
     recompute can reuse a node's built FIB (trie and all) whenever its
     candidate list comes out identical. *)
  candidates : Fib.route list Smap.t;
  (* Interface address -> (node, iface): what a trace asks at every hop.
     A [Map], not a [Hashtbl]: dataplanes are marshalled into the
     persistent cache and shared across domains. *)
  owners : (string * string) Amap.t;
}

(* The first owner in (node name, interface order) wins a duplicated
   address — the same answer as [Network.owner_of_address]'s scan. *)
let owner_index network =
  List.fold_left
    (fun acc (node, cfg) ->
      List.fold_left
        (fun acc (iface, a) ->
          let addr = Ifaddr.address a in
          if Amap.mem addr acc then acc else Amap.add addr (node, iface) acc)
        acc (Ast.addresses cfg))
    Amap.empty (Network.configs network)

let connected_routes net node =
  match Network.config node net with
  | None -> []
  | Some cfg ->
      List.filter_map
        (fun (i : Ast.interface) ->
          match i.addr with
          | Some a when i.enabled ->
              Some
                {
                  Fib.prefix = Ifaddr.subnet a;
                  next_hop = None;
                  out_iface = i.if_name;
                  protocol = Fib.Connected;
                  distance = Fib.admin_distance Fib.Connected;
                  metric = 0;
                }
          | _ -> None)
        cfg.interfaces

let resolve_next_hop net node nh =
  (* The next hop must sit inside a connected (enabled) subnet; the route
     then leaves through that interface. *)
  match Network.config node net with
  | None -> None
  | Some cfg ->
      List.find_map
        (fun (i : Ast.interface) ->
          match i.addr with
          | Some a when i.enabled && Prefix.contains (Ifaddr.subnet a) nh -> Some i.if_name
          | _ -> None)
        cfg.interfaces

let static_routes net node =
  match Network.config node net with
  | None -> []
  | Some cfg ->
      let explicit =
        List.filter_map
          (fun (r : Ast.static_route) ->
            match resolve_next_hop net node r.sr_next_hop with
            | Some out_iface ->
                Some
                  {
                    Fib.prefix = r.sr_prefix;
                    next_hop = Some r.sr_next_hop;
                    out_iface;
                    protocol = Fib.Static;
                    distance = r.sr_distance;
                    metric = 0;
                  }
            | None -> None)
          cfg.static_routes
      in
      let gateway =
        match cfg.default_gateway with
        | None -> []
        | Some gw -> (
            match resolve_next_hop net node gw with
            | Some out_iface ->
                [
                  {
                    Fib.prefix = Prefix.any;
                    next_hop = Some gw;
                    out_iface;
                    protocol = Fib.Static;
                    distance = 1;
                    metric = 0;
                  };
                ]
            | None -> [])
      in
      explicit @ gateway

let node_candidates network ospf node =
  connected_routes network node
  @ static_routes network node
  @ Option.value (List.assoc_opt node ospf) ~default:[]

let compute network =
  let l2 = L2.compute network in
  let ospf = Ospf.all_routes network l2 in
  let candidates =
    List.fold_left
      (fun acc node -> Smap.add node (node_candidates network ospf node) acc)
      Smap.empty (Network.node_names network)
  in
  let fibs = Smap.map Fib.of_candidates candidates in
  { network; l2; fibs; candidates; owners = owner_index network }

(* ------------------------------------------------------------------ *)
(* Incremental recomputation                                           *)
(* ------------------------------------------------------------------ *)

(* The parts of a device config each control-plane stage actually reads.
   Comparing projections of the changed devices lets [recompute] skip
   stages that provably cannot have changed — the result must stay
   byte-identical to a full [compute], so every field a stage consumes
   must appear in its projection.

   - L2 ([L2.compute]): interface name/enabled/switchport (attachments)
     and address (SVIs), plus VLAN definitions.
   - Routing (connected/static/OSPF): the L2 projection plus OSPF
     cost/area per interface, [static_routes], [ospf] and
     [default_gateway].

   ACL bodies, ACL bindings, descriptions and secrets appear in neither:
   they only affect trace-time evaluation, which reads the (updated)
   network carried in the dataplane. *)

let l2_projection (cfg : Ast.t) =
  ( List.map
      (fun (i : Ast.interface) -> (i.if_name, i.addr, i.switchport, i.enabled))
      cfg.interfaces,
    cfg.vlans )

let routing_projection (cfg : Ast.t) =
  ( List.map
      (fun (i : Ast.interface) ->
        (i.if_name, i.addr, i.ospf_cost, i.ospf_area, i.switchport, i.enabled))
      cfg.interfaces,
    cfg.vlans,
    cfg.static_routes,
    cfg.ospf,
    cfg.default_gateway )

let projection_unchanged proj base_net net node =
  match (Network.config node base_net, Network.config node net) with
  | Some a, Some b -> proj a = proj b
  | _ -> false

let recompute ~base network =
  match Network.changed_devices base.network network with
  | None -> compute network (* different topology/node set: start over *)
  | Some changed ->
      if
        List.for_all
          (projection_unchanged routing_projection base.network network)
          changed
      then
        (* Routing inputs untouched (ACL/description/secret-only change):
           every FIB, the L2 map and the address index (addresses are
           part of the projection) are provably identical — only the
           network the tracer consults needs swapping. *)
        { base with network }
      else
        let l2 =
          if
            List.for_all
              (projection_unchanged l2_projection base.network network)
              changed
          then base.l2
          else L2.compute network
        in
        let ospf = Ospf.all_routes network l2 in
        let candidates =
          List.fold_left
            (fun acc node -> Smap.add node (node_candidates network ospf node) acc)
            Smap.empty (Network.node_names network)
        in
        let fibs =
          Smap.mapi
            (fun node cands ->
              (* Same candidates -> same (deterministic) merge: reuse the
                 already-built trie instead of rebuilding it. *)
              match (Smap.find_opt node base.candidates, Smap.find_opt node base.fibs) with
              | Some base_cands, Some base_fib when base_cands = cands -> base_fib
              | _ -> Fib.of_candidates cands)
            candidates
        in
        { network; l2; fibs; candidates; owners = owner_index network }

let network t = t.network
let l2 t = t.l2
let fib node t = Option.value (Smap.find_opt node t.fibs) ~default:Fib.empty
let owner_of_address addr t = Amap.find_opt addr t.owners

let l3_neighbour t node addr =
  match owner_of_address addr t with
  | None -> None
  | Some (peer_node, peer_iface) ->
      let peer_ep = { Topology.node = peer_node; iface = peer_iface } in
      let my_ifaces =
        match Network.config node t.network with
        | None -> []
        | Some cfg -> cfg.interfaces
      in
      if
        List.exists
          (fun (i : Ast.interface) ->
            i.enabled
            && L2.same_domain { Topology.node; iface = i.if_name } peer_ep t.l2)
          my_ifaces
      then Some (peer_node, peer_iface)
      else None

(* ------------------------------------------------------------------ *)
(* Delta: what a trace can read that differs                           *)
(* ------------------------------------------------------------------ *)

(* How much of a node a trace must distrust: all of it, or only FIB
   lookups whose destination one of these prefixes covers. *)
type dirt = Whole | Prefixes of Prefix.t list

type delta = { dirty : dirt Smap.t; moved : Aset.t }

let delta ~before ~after =
  match Network.changed_devices before.network after.network with
  | None -> None
  | Some changed ->
      let whole node dirty = Smap.add node Whole dirty in
      (* (a) Config: ACLs, bindings, [owns_addr]. *)
      let dirty = List.fold_left (fun d n -> whole n d) Smap.empty changed in
      (* (b) L2: nodes whose endpoint's domain content changed. *)
      let dirty =
        if before.l2 == after.l2 then dirty
        else
          List.fold_left
            (fun d (e : Topology.endpoint) -> whole e.node d)
            dirty
            (L2.changed_endpoints ~before:before.l2 ~after:after.l2)
      in
      (* (c) FIBs: the prefixes whose installed route changed. *)
      let dirty =
        Smap.fold
          (fun node fa d ->
            let fb = fib node before in
            if fa == fb || Smap.find_opt node d = Some Whole then d
            else
              match Fib.changed_prefixes fb fa with
              | [] -> d
              | ps -> Smap.add node (Prefixes ps) d)
          after.fibs dirty
      in
      (* (d) Addresses whose owner moved, and every node that forwards to
         one of them as a next hop. *)
      let moved =
        if before.owners == after.owners then Aset.empty
        else
          let differs a o other =
            match Amap.find_opt a other with Some o' -> o' <> o | None -> true
          in
          let add other a o acc = if differs a o other then Aset.add a acc else acc in
          Amap.fold (add after.owners) before.owners Aset.empty
          |> Amap.fold (add before.owners) after.owners
      in
      let dirty =
        if Aset.is_empty moved then dirty
        else
          Smap.fold
            (fun node fb d ->
              if
                List.exists
                  (fun (r : Fib.route) ->
                    match r.next_hop with Some nh -> Aset.mem nh moved | None -> false)
                  (Fib.routes fb)
              then whole node d
              else d)
            before.fibs dirty
      in
      Some { dirty; moved }

let rec covers dst = function
  | [] -> false
  | p :: rest -> Prefix.contains p dst || covers dst rest

(* Lookups raise rather than return an option: a trace asks this at every
   hop of every pair, and the check must not allocate. *)
let touches d node dst =
  match Smap.find node d.dirty with
  | Whole -> true
  | Prefixes ps -> covers dst ps
  | exception Not_found -> false

let address_moved d addr = Aset.mem addr d.moved

let route_counts t =
  Smap.bindings t.fibs |> List.map (fun (n, f) -> (n, Fib.route_count f))

let digest t =
  let lines = Buffer.create 4096 in
  let add line =
    Buffer.add_string lines line;
    Buffer.add_char lines '\n'
  in
  Smap.iter
    (fun node fib ->
      add ("fib " ^ node);
      List.iter add (List.sort String.compare (List.map Fib.route_to_string (Fib.routes fib))))
    t.fibs;
  (* Domain ids are an artefact of construction order: a domain is named
     by its attached interfaces and its bridging switches instead. *)
  L2.domains t.l2
  |> List.map (fun (id, eps) ->
         Printf.sprintf "l2 %s | %s"
           (String.concat "," (List.map Topology.endpoint_to_string eps))
           (String.concat "," (L2.domain_switches id t.l2)))
  |> List.sort String.compare |> List.iter add;
  Digest.to_hex (Digest.string (Buffer.contents lines))
