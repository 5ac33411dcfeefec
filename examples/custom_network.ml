(* Bring your own network: build a small campus with the Builder DSL,
   mine its policies, write a Privilege_msp by hand (text DSL and JSON),
   and run the attack-surface sweep on it — i.e. use Heimdall as a
   library on a network the paper never saw.

   Run with: dune exec examples/custom_network.exe *)

open Heimdall
module B = Scenarios.Builder

let pfx = Net.Prefix.of_string
let ia = Net.Ifaddr.of_string
let ip = Net.Ipv4.of_string

let build_network () =
  let b = B.create () in
  (* Two sites joined by a WAN pair, a firewall in front of the lab. *)
  List.iter (B.router b) [ "wan1"; "wan2"; "site-a"; "site-b" ];
  B.firewall b "labfw";
  B.switch b "asw";
  ignore (B.p2p ~area:0 b "wan1" "wan2");
  ignore (B.p2p ~area:0 b "wan1" "site-a");
  ignore (B.p2p ~area:0 b "wan2" "site-b");
  ignore (B.p2p ~area:0 b "site-a" "site-b");
  ignore (B.p2p ~area:0 b "site-b" "labfw");
  (* Site A: a VLAN'd office behind a switch. *)
  B.svi ~area:0 b "site-a" 10 (ia "192.168.10.1/24");
  B.trunk_link b "asw" "site-a" ~vlans:[ 10 ];
  B.attach_host b ~host_name:"alice" ~dev:"asw" ~vlan:10 ~addr:(ia "192.168.10.5/24")
    ~gateway:(ip "192.168.10.1");
  (* Site B: a routed server port. *)
  B.routed_host ~area:0 b ~host_name:"files" ~dev:"site-b" ~subnet:(pfx "192.168.20.0/24")
    ~host_octet:5;
  (* The lab, protected by labfw. *)
  B.routed_host ~area:0 b ~host_name:"lab" ~dev:"labfw" ~subnet:(pfx "192.168.30.0/24")
    ~host_octet:5;
  let acl =
    Net.Acl.make "LAB"
      [
        Net.Acl.rule ~proto:(Net.Acl.Proto Net.Flow.Icmp) ~seq:10 Net.Acl.Deny
          (pfx "192.168.10.0/24") (pfx "192.168.30.0/24");
        Net.Acl.rule ~seq:20 Net.Acl.Permit Net.Prefix.any Net.Prefix.any;
      ]
  in
  B.acl b "labfw" acl;
  B.bind_acl b ~node:"labfw" ~iface:"eth0" ~dir:`In "LAB";
  B.secret b "wan1" (Config.Ast.Enable_secret "wan1-secret-77");
  B.build b

let () =
  let net = build_network () in
  (match Control.Network.validate net with
  | Ok () -> print_endline "custom network validates"
  | Error m -> failwith m);

  (* One verification context for the whole run: the miner's dataplane
     is the one the sweep below starts from. *)
  let engine = Verify.Engine.create ~domains:1 () in
  (* Mine the policies config2spec-style. *)
  let policies = mine_policies ~engine net in
  Printf.printf "%d policies mined:\n" (List.length policies);
  List.iter (fun p -> Printf.printf "  %s\n" (Verify.Policy.to_string p)) policies;

  (* A hand-written Privilege_msp, in the text DSL... *)
  let spec =
    Privilege.Dsl.parse
      {|
      # read-only everywhere, repairs only on the WAN pair
      allow show.*, diag.* on *;
      allow interface.up, interface.shutdown, ospf.cost on wan*;
      deny system.* on *;
      |}
  in
  Printf.printf "\nDSL spec allows 'ospf.cost on wan2': %b\n"
    (Privilege.Spec.allows spec (Privilege.Spec.request "ospf.cost" "wan2"));
  (* ...and the same thing through the JSON front-end. *)
  let json = Privilege.Json_frontend.render ~pretty:true spec in
  print_endline "\nas JSON:";
  print_endline json;
  (match Privilege.Json_frontend.parse json with
  | Ok spec2 ->
      Printf.printf "JSON roundtrip preserves semantics: %b\n"
        (Privilege.Spec.allows spec2 (Privilege.Spec.request "ospf.cost" "wan2"))
  | Error m -> failwith m);

  (* Finally: the Figure-8-style sweep on this custom network. *)
  print_endline "\nattack-surface sweep (bring down each interface):";
  let summaries = Scenarios.Metrics.sweep_all ~engine ~production:net ~policies () in
  List.iter
    (fun (s : Scenarios.Metrics.summary) ->
      Printf.printf "  %-9s feasibility %5.1f%%  attack surface %5.1f%%\n"
        (Scenarios.Metrics.technique_to_string s.technique)
        s.feasibility_pct s.attack_surface_pct)
    summaries
