(* Differential test: the library's semi-naive OSPF and pruned
   [Graph.all_paths] against the reference oracles in [Reference], and
   the dataplane's address index against the [Network.owner_of_address]
   scan, which must agree exactly (same value, same order).  The
   delta-scoped passes are held to the full ones they replace: the
   one-pass [Reachability.impact] to [diff] of two full [compute]s,
   [Policy.check_both] to two [check_all]s, and every host pair that
   [Trace.unaffected] lets skip must trace the same on both sides.

     dune exec test/oracle/differential.exe
       enterprise, university, fat-tree k=4 and k=4 with 8 hosts per edge
       (what `dune runtest` runs)
     dune exec test/oracle/differential.exe -- SPEC...
       the named Fleetgen fleets instead (`make oracle`)

   Every network is checked healthy, with each of its issues injected,
   under every single-interface failure of [Metrics.failure_candidates],
   with duplicated addresses and a moved gateway and host address, and with an
   ACL deny, a static route and an OSPF cost change on a transit router;
   the delta checks also run each issue's fix (broken -> healthy).
   Exits 1 on the first mismatch. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify
open Heimdall_scenarios

let failf fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("differential: MISMATCH " ^ m);
      exit 1)
    fmt

let st = Random.State.make [| 0x0AC1E |]
let networks = ref 0
let addresses = ref 0
let path_queries = ref 0
let pairs_checked = ref 0
let pairs_skipped = ref 0

(* ---------------- variants of a base network ---------------- *)

let apply net changes =
  match Network.apply_changes changes net with
  | Ok n -> n
  | Error m -> invalid_arg ("differential: " ^ m)

let ifaddrs net =
  List.concat_map (fun (_, cfg) -> List.map snd (Ast.addresses cfg)) (Network.configs net)

(* Duplicated addresses exercise the owner tie-break: the last addressed
   device takes the first device's first address (first by name wins),
   and a device with two addressed interfaces repeats its first address
   on the second (first by interface order wins). *)
let duplicates net =
  let set_addr label node iface a =
    [ (label, apply net [ Change.v node (Change.Set_interface_addr { iface; addr = Some a }) ]) ]
  in
  let addressed =
    List.filter_map
      (fun (node, cfg) -> match Ast.addresses cfg with [] -> None | a -> Some (node, a))
      (Network.configs net)
  in
  let across =
    match (addressed, List.rev addressed) with
    | (_, (_, a) :: _) :: _, (last, (iface, _) :: _) :: _ -> set_addr "dup-across" last iface a
    | _ -> []
  in
  let within =
    match List.find_opt (fun (_, a) -> List.length a >= 2) addressed with
    | Some (node, (_, a) :: (iface, _) :: _) -> set_addr "dup-within" node iface a
    | _ -> []
  in
  (* An owner moves: the first node by name, if it sorts before the
     owner, takes the address on its last addressed interface.  For a
     host's default gateway, the hosts forwarding to it are touched only
     through their next hop; for a host's own address, the flows it
     sources or sinks only through that address. *)
  let steal label addr =
    match (Network.owner_of_address addr net, addressed) with
    | Some (owner, _), (first, ifaces) :: _ when first < owner ->
        let iface, a = List.nth ifaces (List.length ifaces - 1) in
        set_addr label first iface (Ifaddr.make addr (Prefix.length (Ifaddr.subnet a)))
    | _ -> []
  in
  let hosts =
    List.filter (fun (n, _) -> Network.kind n net = Some Topology.Host) (Network.configs net)
  in
  let gateway =
    match List.find_map (fun (_, (cfg : Ast.t)) -> cfg.default_gateway) hosts with
    | Some gw -> steal "gateway-moved" gw
    | None -> []
  in
  let host =
    match List.rev hosts with
    | (last, _) :: _ -> (
        match Network.host_address last net with
        | Some a -> steal "host-address-moved" a
        | None -> [])
    | [] -> []
  in
  across @ within @ gateway @ host

(* Host pairs in [Reachability]'s order: addressed hosts by name. *)
let host_flows net =
  let hosts =
    List.filter_map
      (fun n ->
        if Network.kind n net = Some Topology.Host then
          Option.map (fun a -> (n, a)) (Network.host_address n net)
        else None)
      (Network.node_names net)
  in
  List.concat_map
    (fun (src, a) ->
      List.filter_map
        (fun (dst, b) -> if src <> dst then Some (Flow.icmp a b) else None)
        hosts)
    hosts

(* A router in the middle of the first delivered host path of three hops
   or more, with the hop's flow, ingress and egress: where the transit
   variants below edit. *)
let transit net dp =
  List.find_map
    (fun flow ->
      match Trace.trace dp flow with
      | Trace.Delivered hops when List.length hops >= 3 -> (
          match List.nth hops (List.length hops / 2) with
          | { Trace.node; in_iface = Some i; out_iface = Some o; _ }
            when Network.kind node net = Some Topology.Router ->
              Some (flow, node, i, o)
          | _ -> None)
      | _ -> None)
    (host_flows net)

(* Op kinds the failures, issues and duplicates leave out: an inbound ACL
   that denies one host pair, a static /32 for that pair's destination
   through another neighbour, and a raised OSPF cost on the egress. *)
let transit_edits net dp =
  match transit net dp with
  | None -> []
  | Some ((flow : Flow.t), node, in_iface, out_iface) ->
      let on_node label ops = (label ^ " " ^ node, apply net (List.map (Change.v node) ops)) in
      let host = Prefix.host_prefix in
      let deny =
        on_node "acl-deny"
          [
            Change.Acl_set_rule
              {
                acl = "ORACLE_DENY";
                rule = Acl.rule ~seq:10 Acl.Deny (host flow.src) (host flow.dst);
              };
            Change.Acl_set_rule
              { acl = "ORACLE_DENY"; rule = Acl.rule ~seq:20 Acl.Permit Prefix.any Prefix.any };
            Change.Set_acl_binding { iface = in_iface; dir = `In; acl = Some "ORACLE_DENY" };
          ]
      in
      let cost =
        on_node "ospf-cost" [ Change.Set_ospf_cost { iface = out_iface; cost = Some 1000 } ]
      in
      let static =
        List.find_map
          (fun (r : Fib.route) -> if r.out_iface <> out_iface then r.next_hop else None)
          (Fib.routes (Dataplane.fib node dp))
        |> Option.map (fun nh ->
               on_node "static"
                 [
                   Change.Add_static_route
                     { sr_prefix = host flow.dst; sr_next_hop = nh; sr_distance = 1 };
                 ])
      in
      deny :: cost :: Option.to_list static

let variants net dp (issues : Heimdall_msp.Issue.t list) =
  let down (e : Topology.endpoint) =
    ( "down " ^ Topology.endpoint_to_string e,
      apply net
        [ Change.v e.node (Change.Set_interface_enabled { iface = e.iface; enabled = false }) ] )
  in
  (("healthy", net)
   :: List.map (fun (i : Heimdall_msp.Issue.t) -> ("issue " ^ i.name, i.inject net)) issues)
  @ List.map down (Metrics.failure_candidates net)
  @ duplicates net @ transit_edits net dp

(* ---------------- the checks ---------------- *)

(* Every configured address, then random ones: half anywhere, half
   inside a configured subnet (near misses and hits). *)
let lookups net =
  let subnets = Array.of_list (List.map Ifaddr.subnet (ifaddrs net)) in
  let random i =
    if i mod 2 = 0 || Array.length subnets = 0 then
      Ipv4.of_int (Random.State.full_int st (1 lsl 32))
    else
      let p = subnets.(Random.State.int st (Array.length subnets)) in
      let size = Prefix.hosts_count p in
      if size <= 0 then Prefix.network p else Prefix.host p (Random.State.int st size)
  in
  List.map Ifaddr.address (ifaddrs net) @ List.init 100 random

let check_owners label net dps =
  List.iter
    (fun addr ->
      incr addresses;
      let want = Network.owner_of_address addr net in
      List.iter
        (fun (how, dp) ->
          if Dataplane.owner_of_address addr dp <> want then
            failf "%s: Dataplane.owner_of_address %s (%s)" label (Ipv4.to_string addr) how)
        dps)
    (lookups net)

(* What a base network's checks share across its variants: its
   dataplane, policies, host flows with their traces, and full matrix. *)
type base = {
  net : Network.t;
  dp : Dataplane.t;
  policies : Policy.t list;
  traced : (Flow.t * Trace.result) list;
  matrix : Reachability.matrix;
}

let make_base net policies =
  let dp = Dataplane.compute net in
  let engine = Engine.create ~domains:1 () in
  {
    net;
    dp;
    policies;
    traced = List.map (fun flow -> (flow, Trace.trace dp flow)) (host_flows net);
    matrix = Reachability.compute ~engine dp;
  }

(* The delta-scoped passes against the full ones, on the dataplane an
   engine builds ([recompute] on the base) and on a full [compute] (no
   physical sharing, so every part is diffed structurally). *)
let check_delta label base net ~full ~incremental =
  let engine = Engine.create ~domains:1 () in
  let want = Reachability.diff ~before:base.matrix ~after:(Reachability.compute ~engine full) in
  if Reachability.impact ~engine ~production:base.net net <> want then
    failf "%s: Reachability.impact" label;
  let check dp = Policy.check_all ~engine dp base.policies in
  let both = Policy.check_both ~engine ~before:base.dp ~after:incremental base.policies in
  if both <> (check base.dp, check full) then failf "%s: Policy.check_both" label;
  let delta after = Dataplane.delta ~before:base.dp ~after in
  match (delta incremental, delta full) with
  | Some d_incr, Some d_full ->
      List.iter
        (fun ((flow : Flow.t), r) ->
          incr pairs_checked;
          if Trace.unaffected d_incr flow r || Trace.unaffected d_full flow r then begin
            incr pairs_skipped;
            if Trace.trace full flow <> r then
              failf "%s: unaffected %s changed its trace" label (Flow.to_string flow)
          end)
        base.traced
  | None, None -> ()
  | _ -> failf "%s: Dataplane.delta is None on one build path only" label

let check_network base (label, net) =
  incr networks;
  let l2 = L2.compute net in
  if Ospf.all_routes net l2 <> Reference.all_routes net l2 then
    failf "%s: Ospf.all_routes" label;
  let full = Dataplane.compute net in
  let incremental = Dataplane.recompute ~base:base.dp net in
  if Dataplane.digest incremental <> Dataplane.digest full then
    failf "%s: recompute digest" label;
  check_owners label net [ ("compute", full); ("recompute", incremental) ];
  check_delta label base net ~full ~incremental

let check_paths label g ~max_len a b =
  incr path_queries;
  if Graph.all_paths ~max_len a b g <> Reference.all_paths ~max_len a b g then
    failf "%s: all_paths %s -> %s (max_len %d)" label a b max_len

(* Random host/router pairs with the slicer's budget: shortest + 2. *)
let check_topology_paths label net =
  let g = Topology.to_graph (Network.topology net) in
  let nodes = Array.of_list (Network.node_names net) in
  for _ = 1 to 40 do
    let a = nodes.(Random.State.int st (Array.length nodes))
    and b = nodes.(Random.State.int st (Array.length nodes)) in
    match Graph.shortest_path a b g with
    | Some (_, shortest) -> check_paths label g ~max_len:(List.length shortest + 2) a b
    | None -> check_paths label g ~max_len:4 a b
  done

(* Directed graphs, where pruning must follow edge direction: the
   diamond of the graph unit tests, then small random ones. *)
let check_directed_paths () =
  let edges g l =
    List.fold_left (fun g (src, dst) -> Graph.add_edge ~src ~dst ~weight:1 ~label:() g) g l
  in
  let diamond = edges Graph.empty [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d"); ("b", "c") ] in
  let all_pairs label g =
    let vs = Graph.vertices g @ [ "absent" ] in
    List.iter
      (fun a ->
        List.iter (fun b -> for max_len = 0 to 7 do check_paths label g ~max_len a b done) vs)
      vs
  in
  all_pairs "diamond" diamond;
  for i = 1 to 30 do
    let name k = String.make 1 (Char.chr (Char.code 'a' + k)) in
    let g =
      edges Graph.empty
        (List.init (4 + Random.State.int st 12) (fun _ ->
             (name (Random.State.int st 6), name (Random.State.int st 6))))
    in
    all_pairs (Printf.sprintf "random digraph %d" i) g
  done

(* ---------------- driver ---------------- *)

let fleet spec =
  match Fleetgen.spec_of_string spec with
  | Error m -> invalid_arg (Printf.sprintf "differential: bad spec %s: %s" spec m)
  | Ok p ->
      let f = Fleetgen.generate p in
      (spec, f.net, f.policies, f.issues)

let () =
  let bases =
    match List.tl (Array.to_list Sys.argv) with
    | [] ->
        let ent = Enterprise.build () and uni = University.build () in
        [
          ("enterprise", ent, Enterprise.policies ent, Enterprise.issues ent);
          ("university", uni, University.policies uni, University.issues uni);
        ]
        @ List.map fleet [ "fat-tree:k=4"; "fat-tree:k=4:hosts=8" ]
    | specs -> List.map fleet specs
  in
  check_directed_paths ();
  List.iter
    (fun (name, net, policies, issues) ->
      let base = make_base net policies in
      List.iter
        (fun (label, n) -> check_network base (name ^ " " ^ label, n))
        (variants net base.dp issues);
      (* The ticket's own direction: production broken, the change heals
         it — where a path that used to stop short starts to cross what
         changed. *)
      List.iter
        (fun (i : Heimdall_msp.Issue.t) ->
          let broken = make_base (i.inject net) policies in
          check_delta
            (Printf.sprintf "%s fix %s" name i.name)
            broken net ~full:(Dataplane.compute net)
            ~incremental:(Dataplane.recompute ~base:broken.dp net))
        issues;
      check_topology_paths name net)
    bases;
  Printf.printf
    "differential: %d networks (OSPF routes, recompute digest, delta impact and policy \
     checks), %d address lookups, %d all_paths queries, %d host-pair traces (%d skipped by \
     the delta, each unchanged): all match their reference\n"
    !networks !addresses !path_queries !pairs_checked !pairs_skipped
