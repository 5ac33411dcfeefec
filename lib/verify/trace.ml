open Heimdall_net
open Heimdall_config
open Heimdall_control

type direction = In | Out

type drop_reason =
  | No_route of { node : string }
  | Acl_denied of {
      node : string;
      iface : string;
      dir : direction;
      acl : string;
      rule_seq : int option;
    }
  | No_l2_path of { node : string; towards : Ipv4.t }
  | Unknown_destination of { node : string; addr : Ipv4.t }
  | Unknown_source of { addr : Ipv4.t }
  | Ttl_exceeded

let direction_to_string = function In -> "in" | Out -> "out"

let drop_reason_to_string = function
  | No_route { node } -> Printf.sprintf "no route at %s" node
  | Acl_denied { node; iface; dir; acl; rule_seq } ->
      Printf.sprintf "denied by access-list %s (%s %s on %s%s)" acl
        (direction_to_string dir) iface node
        (match rule_seq with
        | Some seq -> Printf.sprintf ", rule %d" seq
        | None -> ", implicit deny")
  | No_l2_path { node; towards } ->
      Printf.sprintf "no layer-2 path from %s towards %s" node (Ipv4.to_string towards)
  | Unknown_destination { node; addr } ->
      Printf.sprintf "destination %s unknown beyond %s" (Ipv4.to_string addr) node
  | Unknown_source { addr } -> Printf.sprintf "source %s owned by no device" (Ipv4.to_string addr)
  | Ttl_exceeded -> "ttl exceeded (forwarding loop)"

type hop = {
  node : string;
  in_iface : string option;
  out_iface : string option;
  l2_path : string list;
}

type result = Delivered of hop list | Dropped of drop_reason * hop list

let is_delivered = function Delivered _ -> true | Dropped _ -> false
let hops = function Delivered hs -> hs | Dropped (_, hs) -> hs

let nodes_on_path result =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let note n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      out := n :: !out
    end
  in
  List.iter
    (fun h ->
      note h.node;
      List.iter note h.l2_path)
    (hops result);
  List.rev !out

let max_ttl = 64

let acl_check (net : Network.t) node iface dir (flow : Flow.t) =
  (* Returns [Some reason] when an ACL on (node, iface, dir) denies. *)
  match Network.config node net with
  | None -> None
  | Some cfg -> (
      match Ast.find_interface iface cfg with
      | None -> None
      | Some i -> (
          let binding = match dir with In -> i.acl_in | Out -> i.acl_out in
          match binding with
          | None -> None
          | Some acl_name -> (
              match Ast.find_acl acl_name cfg with
              | None ->
                  (* A dangling binding denies everything (fail-closed). *)
                  Some (Acl_denied { node; iface; dir; acl = acl_name; rule_seq = None })
              | Some acl -> (
                  match Acl.eval acl flow with
                  | Acl.Permit, _ -> None
                  | Acl.Deny, rule ->
                      Some
                        (Acl_denied
                           {
                             node;
                             iface;
                             dir;
                             acl = acl_name;
                             rule_seq = Option.map (fun (r : Acl.rule) -> r.Acl.seq) rule;
                           })))))

let owns_addr (net : Network.t) node addr =
  match Network.config node net with
  | None -> false
  | Some cfg ->
      List.exists
        (fun (i : Ast.interface) ->
          i.enabled
          && match i.addr with
             | Some a -> Ipv4.equal (Ifaddr.address a) addr
             | None -> false)
        cfg.interfaces

let l2_segment dp node out_iface =
  let l2 = Dataplane.l2 dp in
  match L2.domain_of { Topology.node; iface = out_iface } l2 with
  | None -> []
  | Some d -> L2.domain_switches d l2

let trace dp (flow : Flow.t) =
  let net = Dataplane.network dp in
  let rec step node in_iface acc ttl =
    if ttl <= 0 then Dropped (Ttl_exceeded, List.rev acc)
    else
      (* Inbound ACL on the interface the packet arrived through. *)
      let inbound_denial =
        match in_iface with
        | None -> None
        | Some iface -> acl_check net node iface In flow
      in
      match inbound_denial with
      | Some reason ->
          Dropped (reason, List.rev ({ node; in_iface; out_iface = None; l2_path = [] } :: acc))
      | None ->
          if owns_addr net node flow.dst then
            Delivered (List.rev ({ node; in_iface; out_iface = None; l2_path = [] } :: acc))
          else begin
            match Fib.lookup flow.dst (Dataplane.fib node dp) with
            | None ->
                Dropped
                  ( No_route { node },
                    List.rev ({ node; in_iface; out_iface = None; l2_path = [] } :: acc) )
            | Some route -> (
                let out_iface = route.out_iface in
                match acl_check net node out_iface Out flow with
                | Some reason ->
                    Dropped
                      ( reason,
                        List.rev
                          ({ node; in_iface; out_iface = Some out_iface; l2_path = [] } :: acc)
                      )
                | None -> (
                    let towards =
                      match route.next_hop with Some nh -> nh | None -> flow.dst
                    in
                    let this_hop l2_path =
                      { node; in_iface; out_iface = Some out_iface; l2_path }
                    in
                    match Dataplane.owner_of_address towards dp with
                    | None ->
                        let reason =
                          if route.next_hop = None then
                            Unknown_destination { node; addr = towards }
                          else No_l2_path { node; towards }
                        in
                        Dropped (reason, List.rev (this_hop [] :: acc))
                    | Some (peer_node, peer_iface) ->
                        let l2 = Dataplane.l2 dp in
                        let adjacent =
                          L2.same_domain
                            { Topology.node; iface = out_iface }
                            { Topology.node = peer_node; iface = peer_iface }
                            l2
                        in
                        if not adjacent then
                          Dropped
                            (No_l2_path { node; towards }, List.rev (this_hop [] :: acc))
                        else
                          let seg = l2_segment dp node out_iface in
                          step peer_node (Some peer_iface) (this_hop seg :: acc) (ttl - 1)))
          end
  in
  match Dataplane.owner_of_address flow.src dp with
  | None -> Dropped (Unknown_source { addr = flow.src }, [])
  | Some (src_node, _) -> step src_node None [] max_ttl

(* Plain recursion, no closures: this runs once per pair of every
   delta-scoped pass, and must not allocate. *)
let unaffected delta (flow : Flow.t) result =
  let dst = flow.dst in
  let rec switches_clean = function
    | [] -> true
    | sw :: rest -> (not (Dataplane.touches delta sw dst)) && switches_clean rest
  in
  let rec clean = function
    | [] -> true
    | h :: rest ->
        (not (Dataplane.touches delta h.node dst)) && switches_clean h.l2_path && clean rest
  in
  (not (Dataplane.address_moved delta flow.src))
  && (not (Dataplane.address_moved delta dst))
  && clean (hops result)

let result_to_string result =
  let buf = Buffer.create 256 in
  List.iteri
    (fun idx h ->
      Buffer.add_string buf
        (Printf.sprintf "%2d. %s%s%s%s\n" (idx + 1) h.node
           (match h.in_iface with Some i -> " in:" ^ i | None -> "")
           (match h.out_iface with Some i -> " out:" ^ i | None -> "")
           (match h.l2_path with
           | [] -> ""
           | sws -> " via " ^ String.concat "," sws)))
    (hops result);
  (match result with
  | Delivered _ -> Buffer.add_string buf "delivered\n"
  | Dropped (reason, _) ->
      Buffer.add_string buf (Printf.sprintf "dropped: %s\n" (drop_reason_to_string reason)));
  Buffer.contents buf
