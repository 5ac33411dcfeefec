open Heimdall_net
open Heimdall_config

type iface = { router : string; iface : string; addr : Ifaddr.t; area : int; cost : int }

let default_cost = 10

let enabled_interfaces net =
  List.concat_map
    (fun (router, (cfg : Ast.t)) ->
      match cfg.ospf with
      | None -> []
      | Some o ->
          List.filter_map
            (fun (i : Ast.interface) ->
              match i.addr with
              | Some addr when i.enabled -> (
                  let statement =
                    List.find_opt
                      (fun (p, _) -> Prefix.contains p (Ifaddr.address addr))
                      o.networks
                  in
                  match statement with
                  | None -> None
                  | Some (_, stmt_area) ->
                      let area = Option.value i.ospf_area ~default:stmt_area in
                      let cost = Option.value i.ospf_cost ~default:default_cost in
                      Some { router; iface = i.if_name; addr; area; cost })
              | _ -> None)
            cfg.interfaces)
    (Network.configs net)

let adjacencies net l2 =
  let ifaces = enabled_interfaces net in
  let rec pairs = function
    | [] -> []
    | a :: rest ->
        List.filter_map
          (fun b ->
            if
              a.router <> b.router && a.area = b.area
              && Ifaddr.same_subnet a.addr b.addr
              && L2.same_domain
                   { Topology.node = a.router; iface = a.iface }
                   { Topology.node = b.router; iface = b.iface }
                   l2
            then Some (if a.router < b.router then (a, b) else (b, a))
            else None)
          rest
        @ pairs rest
  in
  pairs ifaces

(* The routing computation below is a simplified SPF + inter-area summary
   propagation:
   1. build one weighted graph per area from the formed adjacencies;
   2. every attached subnet is "originated" into its area at its interface
      cost (default-originate routers originate 0.0.0.0/0 at cost 1);
   3. propagate summaries across area border routers to a fixpoint,
      keeping for each (router, prefix) the best metric and the first-hop
      neighbour it was learned through.

   Step 3 is evaluated semi-naively: origins are offered once, and each
   round walks only the entries set since the previous round's snapshot.
   Every offer this skips is one the full evaluation would have rejected
   without touching the table (the argument is in ospf.mli), so the table
   — contents and insertion order, hence the output — is the same. *)

type learned = {
  metric : int;
  via : (string * int) option; (* neighbour, area *)
  round : int; (* the propagation round that last set this entry *)
}

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

let all_routes net l2 =
  let ifaces = enabled_interfaces net in
  let adjs = adjacencies net l2 in
  let areas =
    List.fold_left (fun acc i -> if List.mem i.area acc then acc else i.area :: acc) [] ifaces
  in
  (* Per-area adjacency graphs. *)
  let graph_of_area area =
    List.fold_left
      (fun g (a, b) ->
        if a.area = area then
          g
          |> Graph.add_edge ~src:a.router ~dst:b.router ~weight:a.cost ~label:()
          |> Graph.add_edge ~src:b.router ~dst:a.router ~weight:b.cost ~label:()
        else g)
      Graph.empty adjs
  in
  let area_graphs = List.map (fun a -> (a, graph_of_area a)) areas in
  (* Distance/path tables, computed lazily per (area, source). *)
  let sp_cache : (int * string, (string, int * string list) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let sp area src =
    match Hashtbl.find_opt sp_cache (area, src) with
    | Some tbl -> tbl
    | None ->
        let g = List.assoc area area_graphs in
        let tbl = Graph.shortest_paths src g in
        Hashtbl.replace sp_cache (area, src) tbl;
        tbl
  in
  (* Interface-derived lookups, built once. *)
  let cons x xs = Some (x :: Option.value xs ~default:[]) in
  let by_router value =
    List.fold_left (fun m i -> Smap.update i.router (cons (value i)) m) Smap.empty ifaces
  in
  let areas_by_router = Smap.map (List.sort_uniq Int.compare) (by_router (fun i -> i.area)) in
  let subnets_by_router = by_router (fun i -> Ifaddr.subnet i.addr) in
  let routers_by_area =
    List.fold_left (fun m i -> Imap.update i.area (cons i.router) m) Imap.empty ifaces
    |> Imap.map (List.sort_uniq String.compare)
  in
  let areas_of r = Option.value (Smap.find_opt r areas_by_router) ~default:[] in
  let subnets_of r = Option.value (Smap.find_opt r subnets_by_router) ~default:[] in
  let routers_in_area a = Option.value (Imap.find_opt a routers_by_area) ~default:[] in
  (* Origins: (prefix, originating router, area, origin cost). *)
  let origins =
    List.map (fun i -> (Ifaddr.subnet i.addr, i.router, i.area, i.cost)) ifaces
    @ List.concat_map
        (fun (r, (cfg : Ast.t)) ->
          match cfg.ospf with
          | Some o when o.default_originate ->
              List.map (fun a -> (Prefix.any, r, a, 1)) (areas_of r)
          | _ -> [])
        (Network.configs net)
  in
  (* best.(router)(prefix) -> learned *)
  (* Unseeded even under [OCAMLRUNPARAM=R]: the fold order decides which
     of two equal-metric offers wins. *)
  let best : (string * string, learned) Hashtbl.t = Hashtbl.create ~random:false 64 in
  let round = ref 0 in
  let update r prefix_s metric via =
    let key = (r, prefix_s) in
    match Hashtbl.find_opt best key with
    | Some cur when cur.metric <= metric -> false
    | _ ->
        Hashtbl.replace best key { metric; via; round = !round };
        true
  in
  let learn_via_area area advertiser prefix_s base_metric =
    (* Every router in [area] can learn [prefix_s] through [advertiser]. *)
    List.fold_left
      (fun changed r ->
        if r = advertiser then changed
        else
          match Hashtbl.find_opt (sp area r) advertiser with
          | None -> changed
          | Some (d, path) -> (
              match path with
              | _ :: hop :: _ ->
                  update r prefix_s (d + base_metric) (Some (hop, area)) || changed
              | _ -> changed))
      false (routers_in_area area)
  in
  (* Seed: intra-area, once. *)
  List.iter
    (fun (prefix, origin, area, cost) ->
      let prefix_s = Prefix.to_string prefix in
      ignore (learn_via_area area origin prefix_s cost);
      (* The originator itself reaches the prefix at its own cost —
         recorded so ABRs can re-advertise subnets they are attached to. *)
      ignore (update origin prefix_s cost None))
    origins;
  (* Propagate through ABRs: each round walks the entries set since the
     previous round's snapshot. *)
  let propagate () =
    let delta =
      Hashtbl.fold (fun k v acc -> if v.round = !round then (k, v) :: acc else acc) best []
    in
    incr round;
    List.fold_left
      (fun changed ((r, prefix_s), l) ->
        match areas_of r with
        | _ :: _ :: _ as r_areas ->
            let learned_area = Option.map snd l.via in
            List.fold_left
              (fun changed b ->
                if learned_area <> Some b then
                  learn_via_area b r prefix_s l.metric || changed
                else changed)
              changed r_areas
        | _ -> changed)
      false delta
  in
  let rec fixpoint n = if n > 0 && propagate () then fixpoint (n - 1) in
  fixpoint 16;
  (* Adjacency detail: (router, neighbour, area) -> egress iface and
     next-hop address, the lowest-cost egress winning (the first adjacency
     listed on ties). *)
  let edge_details =
    List.fold_left
      (fun tbl (a, b) ->
        let offer (mine, theirs) =
          let key = (mine.router, theirs.router, mine.area) in
          match Hashtbl.find_opt tbl key with
          | Some (cur, _) when cur.cost <= mine.cost -> ()
          | _ -> Hashtbl.replace tbl key (mine, theirs)
        in
        offer (a, b);
        offer (b, a);
        tbl)
      (Hashtbl.create 64) adjs
  in
  let edge_detail router neighbour area =
    Option.map
      (fun (mine, theirs) -> (mine.iface, Ifaddr.address theirs.addr))
      (Hashtbl.find_opt edge_details (router, neighbour, area))
  in
  let per_router = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (router, prefix_s) l ->
      let prefix = Prefix.of_string prefix_s in
      if not (List.exists (Prefix.equal prefix) (subnets_of router)) then
        match l.via with
        | None -> ()
        | Some (hop, area) -> (
            match edge_detail router hop area with
            | None -> ()
            | Some (out_iface, next_hop) ->
                let route =
                  {
                    Fib.prefix;
                    next_hop = Some next_hop;
                    out_iface;
                    protocol = Fib.Ospf;
                    distance = Fib.admin_distance Fib.Ospf;
                    metric = l.metric;
                  }
                in
                let cur = Option.value (Hashtbl.find_opt per_router router) ~default:[] in
                Hashtbl.replace per_router router (route :: cur)))
    best;
  Hashtbl.fold (fun r rs acc -> (r, rs) :: acc) per_router []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let routes net l2 router =
  match List.assoc_opt router (all_routes net l2) with
  | Some rs -> rs
  | None -> []
