(* Differential test: the library's semi-naive OSPF and pruned
   [Graph.all_paths] against the reference oracles in [Reference], and
   the dataplane's address index against the [Network.owner_of_address]
   scan, which must agree exactly (same value, same order).

     dune exec test/oracle/differential.exe
       enterprise, university, fat-tree k=4 and k=4 with 8 hosts per edge
       (what `dune runtest` runs)
     dune exec test/oracle/differential.exe -- SPEC...
       the named Fleetgen fleets instead (`make oracle`)

   Every network is checked healthy, with each of its issues injected,
   under every single-interface failure of [Metrics.failure_candidates],
   and with duplicated addresses.  Exits 1 on the first mismatch. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
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
  across @ within

let variants net (issues : Heimdall_msp.Issue.t list) =
  let down (e : Topology.endpoint) =
    ( "down " ^ Topology.endpoint_to_string e,
      apply net
        [ Change.v e.node (Change.Set_interface_enabled { iface = e.iface; enabled = false }) ] )
  in
  (("healthy", net)
   :: List.map (fun (i : Heimdall_msp.Issue.t) -> ("issue " ^ i.name, i.inject net)) issues)
  @ List.map down (Metrics.failure_candidates net)
  @ duplicates net

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

let check_network base_dp (label, net) =
  incr networks;
  let l2 = L2.compute net in
  if Ospf.all_routes net l2 <> Reference.all_routes net l2 then
    failf "%s: Ospf.all_routes" label;
  let full = Dataplane.compute net in
  let incremental = Dataplane.recompute ~base:base_dp net in
  if Dataplane.digest incremental <> Dataplane.digest full then
    failf "%s: recompute digest" label;
  check_owners label net [ ("compute", full); ("recompute", incremental) ]

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
      (spec, f.net, f.issues)

let () =
  let bases =
    match List.tl (Array.to_list Sys.argv) with
    | [] ->
        let ent = Enterprise.build () and uni = University.build () in
        [ ("enterprise", ent, Enterprise.issues ent); ("university", uni, University.issues uni) ]
        @ List.map fleet [ "fat-tree:k=4"; "fat-tree:k=4:hosts=8" ]
    | specs -> List.map fleet specs
  in
  check_directed_paths ();
  List.iter
    (fun (name, net, issues) ->
      let base_dp = Dataplane.compute net in
      List.iter
        (fun (label, n) -> check_network base_dp (name ^ " " ^ label, n))
        (variants net issues);
      check_topology_paths name net)
    bases;
  Printf.printf
    "differential: %d networks (OSPF routes, recompute digest), %d address lookups, %d \
     all_paths queries: all match their reference\n"
    !networks !addresses !path_queries
