(* Reference oracles: the straightforward forms of two computations
   the library answers faster.  Each must agree with its library
   counterpart exactly — same result, same order — and the differential
   test checks that.  Keep them naive: they are the specification. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control

(* OSPF: re-seed every origin and re-offer every entry through every
   area border router each round, until a round changes nothing (at most
   16 rounds).  [best] is unseeded, as in the library, so the fold order
   — which decides equal-metric ties — does not depend on OCAMLRUNPARAM. *)

type learned = { metric : int; via : (string * int) option (* neighbour, area *) }

let all_routes net l2 =
  let open Ospf in
  let ifaces = enabled_interfaces net in
  let adjs = adjacencies net l2 in
  let areas =
    List.fold_left (fun acc i -> if List.mem i.area acc then acc else i.area :: acc) [] ifaces
  in
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
  let sp_cache = Hashtbl.create 16 in
  let sp area src =
    match Hashtbl.find_opt sp_cache (area, src) with
    | Some tbl -> tbl
    | None ->
        let tbl = Graph.shortest_paths src (List.assoc area area_graphs) in
        Hashtbl.replace sp_cache (area, src) tbl;
        tbl
  in
  let routers_in_area area =
    List.filter_map (fun i -> if i.area = area then Some i.router else None) ifaces
    |> List.sort_uniq String.compare
  in
  let areas_of r =
    List.filter_map (fun i -> if i.router = r then Some i.area else None) ifaces
    |> List.sort_uniq Int.compare
  in
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
  let best : (string * string, learned) Hashtbl.t = Hashtbl.create ~random:false 64 in
  let update r prefix (cand : learned) =
    let key = (r, Prefix.to_string prefix) in
    match Hashtbl.find_opt best key with
    | Some cur when cur.metric <= cand.metric -> false
    | _ ->
        Hashtbl.replace best key cand;
        true
  in
  let learn_via_area area advertiser prefix base_metric =
    List.fold_left
      (fun changed r ->
        if r = advertiser then changed
        else
          match Hashtbl.find_opt (sp area r) advertiser with
          | None -> changed
          | Some (d, path) ->
              let via = match path with _ :: hop :: _ -> Some (hop, area) | _ -> None in
              if via = None then changed
              else update r prefix { metric = d + base_metric; via } || changed)
      false (routers_in_area area)
  in
  let iterate () =
    let changed = ref false in
    List.iter
      (fun (prefix, origin, area, cost) ->
        if learn_via_area area origin prefix cost then changed := true;
        if update origin prefix { metric = cost; via = None } then changed := true)
      origins;
    let snapshot = Hashtbl.fold (fun k v acc -> (k, v) :: acc) best [] in
    List.iter
      (fun ((r, prefix_s), l) ->
        let r_areas = areas_of r in
        if List.length r_areas > 1 then
          let prefix = Prefix.of_string prefix_s in
          let learned_area = match l.via with Some (_, a) -> Some a | None -> None in
          List.iter
            (fun b ->
              if learned_area <> Some b then
                if learn_via_area b r prefix l.metric then changed := true)
            r_areas)
      snapshot;
    !changed
  in
  let rec fixpoint n = if n > 0 && iterate () then fixpoint (n - 1) in
  fixpoint 16;
  let subnets_of router =
    List.filter_map
      (fun i -> if i.router = router then Some (Ifaddr.subnet i.addr) else None)
      ifaces
  in
  let edge_detail router neighbour area =
    let candidates =
      List.filter_map
        (fun (a, b) ->
          if a.router = router && b.router = neighbour && a.area = area then Some (a, b)
          else if b.router = router && a.router = neighbour && b.area = area then Some (b, a)
          else None)
        adjs
    in
    match List.sort (fun (a, _) (b, _) -> Int.compare a.cost b.cost) candidates with
    | (mine, theirs) :: _ -> Some (mine.iface, Ifaddr.address theirs.addr)
    | [] -> None
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

(* All simple paths of at most [max_len] vertices: plain depth-first
   search, successors by name, no pruning. *)
let all_paths ?(max_len = 16) src dst g =
  let results = ref [] in
  let rec go path visited u =
    if List.length path > max_len then ()
    else if u = dst then results := List.rev path :: !results
    else
      let next =
        Graph.succs u g
        |> List.filter (fun (v, _, _) -> not (List.mem v visited))
        |> List.map (fun (v, _, _) -> v)
        |> List.sort_uniq String.compare
      in
      List.iter (fun v -> go (v :: path) (v :: visited) v) next
  in
  if Graph.mem_vertex src g && Graph.mem_vertex dst g then go [ src ] [ src ] src;
  List.rev !results
