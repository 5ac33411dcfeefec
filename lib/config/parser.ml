open Heimdall_net

exception Parse_error of int * string

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let int_of_word lineno w =
  match int_of_string_opt w with
  | Some n -> n
  | None -> fail lineno "expected integer, found %S" w

let prefix_of_word lineno w =
  match Prefix.of_string_opt w with
  | Some p -> p
  | None -> fail lineno "expected prefix, found %S" w

let addr_of_word lineno w =
  match Ipv4.of_string_opt w with
  | Some a -> a
  | None -> fail lineno "expected address, found %S" w

let ifaddr_of_word lineno w =
  match Ifaddr.of_string_opt w with
  | Some a -> a
  | None -> fail lineno "expected interface address, found %S" w

let acl_prefix_of_word lineno w =
  if w = "any" then Prefix.any else prefix_of_word lineno w

(* Parse an optional port matcher, returning it with the remaining words. *)
let port_match_of_words lineno = function
  | "eq" :: p :: rest -> (Acl.Eq (int_of_word lineno p), rest)
  | "range" :: lo :: hi :: rest ->
      (Acl.Range (int_of_word lineno lo, int_of_word lineno hi), rest)
  | rest -> (Acl.Any_port, rest)

let proto_match_of_word lineno = function
  | "ip" -> Acl.Any_proto
  | w -> (
      match Flow.proto_of_string w with
      | Some p -> Acl.Proto p
      | None -> fail lineno "unknown protocol %S" w)

let acl_rule_of_words lineno ws =
  match ws with
  | seq :: action :: proto :: rest ->
      let seq = int_of_word lineno seq in
      let action =
        match Acl.action_of_string action with
        | Some a -> a
        | None -> fail lineno "expected permit/deny, found %S" action
      in
      let proto = proto_match_of_word lineno proto in
      let src, rest =
        match rest with
        | src :: rest -> (acl_prefix_of_word lineno src, rest)
        | [] -> fail lineno "access-list rule: missing source"
      in
      let src_port, rest = port_match_of_words lineno rest in
      let dst, rest =
        match rest with
        | dst :: rest -> (acl_prefix_of_word lineno dst, rest)
        | [] -> fail lineno "access-list rule: missing destination"
      in
      let dst_port, rest = port_match_of_words lineno rest in
      if rest <> [] then fail lineno "access-list rule: trailing words";
      { Acl.seq; action; proto; src; src_port; dst; dst_port }
  | _ -> fail lineno "malformed access-list rule"

let parse_acl_rule s = acl_rule_of_words 0 (words s)

(* Mutable accumulator for a config under construction. *)
type builder = {
  mutable hostname : string option;
  mutable interfaces : Ast.interface list;  (* reversed *)
  mutable vlans : (int * string) list;
  mutable acl_rules : (string * Acl.rule) list;  (* reversed *)
  mutable static_routes : Ast.static_route list;
  mutable ospf : Ast.ospf option;
  mutable default_gateway : Ipv4.t option;
  mutable secrets : Ast.secret list;  (* reversed *)
}

type section =
  | Top
  | In_interface of Ast.interface
  | In_ospf of Ast.ospf
  | In_vlan of int * string option

let flush_section b lineno = function
  | Top -> ()
  | In_interface i ->
      if List.exists (fun (j : Ast.interface) -> j.if_name = i.if_name) b.interfaces then
        fail lineno "duplicate interface %s" i.if_name;
      b.interfaces <- i :: b.interfaces
  | In_ospf o ->
      if b.ospf <> None then fail lineno "duplicate router ospf stanza";
      b.ospf <- Some { o with networks = List.rev o.networks }
  | In_vlan (id, name) -> (
      match name with
      | None -> fail lineno "vlan %d: missing name" id
      | Some name ->
          if List.mem_assoc id b.vlans then fail lineno "duplicate vlan %d" id;
          b.vlans <- (id, name) :: b.vlans)

let interface_line lineno (i : Ast.interface) ws : Ast.interface =
  match ws with
  | "description" :: rest -> { i with description = Some (String.concat " " rest) }
  | [ "ip"; "address"; p ] -> { i with addr = Some (ifaddr_of_word lineno p) }
  | [ "ospf"; "cost"; c ] -> { i with ospf_cost = Some (int_of_word lineno c) }
  | [ "ospf"; "area"; a ] -> { i with ospf_area = Some (int_of_word lineno a) }
  | [ "access-group"; name; "in" ] -> { i with acl_in = Some name }
  | [ "access-group"; name; "out" ] -> { i with acl_out = Some name }
  | [ "switchport"; "access"; "vlan"; v ] ->
      { i with switchport = Some (Ast.Access (int_of_word lineno v)) }
  | [ "switchport"; "trunk"; "allowed"; "vlan"; vs ] ->
      let vlans = String.split_on_char ',' vs |> List.map (int_of_word lineno) in
      { i with switchport = Some (Ast.Trunk vlans) }
  | [ "shutdown" ] -> { i with enabled = false }
  | [ "no"; "shutdown" ] -> { i with enabled = true }
  | _ -> fail lineno "unknown interface command: %s" (String.concat " " ws)

let ospf_line lineno (o : Ast.ospf) ws : Ast.ospf =
  match ws with
  | [ "router-id"; id ] -> { o with router_id = Some (addr_of_word lineno id) }
  | [ "network"; p; "area"; a ] ->
      { o with networks = (prefix_of_word lineno p, int_of_word lineno a) :: o.networks }
  | [ "default-information"; "originate" ] -> { o with default_originate = true }
  | _ -> fail lineno "unknown ospf command: %s" (String.concat " " ws)

let top_line lineno b ws =
  match ws with
  | [ "hostname"; h ] ->
      if b.hostname <> None then fail lineno "duplicate hostname";
      b.hostname <- Some h
  | [ "enable"; "secret"; s ] -> b.secrets <- Ast.Enable_secret s :: b.secrets
  | [ "snmp-server"; "community"; s ] -> b.secrets <- Ast.Snmp_community s :: b.secrets
  | [ "crypto"; "ipsec"; "key"; k; "peer"; p ] ->
      b.secrets <- Ast.Ipsec_key (k, addr_of_word lineno p) :: b.secrets
  | [ "username"; u; "password"; p ] -> b.secrets <- Ast.User_password (u, p) :: b.secrets
  | [ "ip"; "default-gateway"; g ] ->
      if b.default_gateway <> None then fail lineno "duplicate default-gateway";
      b.default_gateway <- Some (addr_of_word lineno g)
  | [ "ip"; "route"; p; nh ] ->
      b.static_routes <-
        { Ast.sr_prefix = prefix_of_word lineno p;
          sr_next_hop = addr_of_word lineno nh;
          sr_distance = 1 }
        :: b.static_routes
  | [ "ip"; "route"; p; nh; d ] ->
      b.static_routes <-
        { Ast.sr_prefix = prefix_of_word lineno p;
          sr_next_hop = addr_of_word lineno nh;
          sr_distance = int_of_word lineno d }
        :: b.static_routes
  | "access-list" :: name :: rest ->
      b.acl_rules <- (name, acl_rule_of_words lineno rest) :: b.acl_rules
  | _ -> fail lineno "unknown command: %s" (String.concat " " ws)

let build_acls lineno rules =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (name, rule) ->
      if not (Hashtbl.mem tbl name) then order := name :: !order;
      Hashtbl.replace tbl name (rule :: (try Hashtbl.find tbl name with Not_found -> [])))
    rules;
  List.rev_map
    (fun name ->
      let rules = List.rev (Hashtbl.find tbl name) in
      try Acl.make name rules with Invalid_argument m -> fail lineno "%s" m)
    !order

let parse text =
  let b =
    {
      hostname = None;
      interfaces = [];
      vlans = [];
      acl_rules = [];
      static_routes = [];
      ospf = None;
      default_gateway = None;
      secrets = [];
    }
  in
  let section = ref Top in
  let lines = String.split_on_char '\n' text in
  let last = ref 0 in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      last := lineno;
      let trimmed = String.trim raw in
      if trimmed = "" || trimmed = "!" || String.length trimmed > 0 && trimmed.[0] = '#'
      then begin
        (* Separator: close any open stanza. *)
        flush_section b lineno !section;
        section := Top
      end
      else
        let indented = raw.[0] = ' ' in
        let ws = words trimmed in
        if indented then
          match !section with
          | Top -> fail lineno "indented line outside a stanza: %s" trimmed
          | In_interface i -> section := In_interface (interface_line lineno i ws)
          | In_ospf o -> section := In_ospf (ospf_line lineno o ws)
          | In_vlan (id, _) -> (
              match ws with
              | [ "name"; n ] -> section := In_vlan (id, Some n)
              | _ -> fail lineno "unknown vlan command: %s" trimmed)
        else begin
          flush_section b lineno !section;
          section := Top;
          match ws with
          | [ "interface"; name ] -> section := In_interface (Ast.interface name)
          | [ "router"; "ospf" ] ->
              section :=
                In_ospf { Ast.router_id = None; networks = []; default_originate = false }
          | [ "vlan"; id ] -> section := In_vlan (int_of_word lineno id, None)
          | _ -> top_line lineno b ws
        end)
    lines;
  flush_section b !last !section;
  let hostname =
    match b.hostname with Some h -> h | None -> fail !last "missing hostname"
  in
  Ast.make ~interfaces:(List.rev b.interfaces) ~vlans:(List.rev b.vlans)
    ~acls:(build_acls !last (List.rev b.acl_rules))
    ~static_routes:(List.rev b.static_routes) ?ospf:b.ospf
    ?default_gateway:b.default_gateway ~secrets:(List.rev b.secrets) hostname

let parse_result text =
  match parse text with
  | c -> Ok c
  | exception Parse_error (l, m) -> Error (l, m)
