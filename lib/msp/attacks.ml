open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_twin
open Heimdall_verify

type exfiltration = { attempted : int; denied : int; leaked : string list }

let exfiltrate ~production ~targets session =
  let outputs = ref [] in
  let denied = ref 0 in
  let attempted = ref 0 in
  List.iter
    (fun target ->
      List.iter
        (fun cmd ->
          incr attempted;
          match Session.exec session cmd with
          | Ok out -> outputs := out :: !outputs
          | Error _ -> incr denied)
        [ "connect " ^ target; "show running-config" ])
    targets;
  let all_output = String.concat "\n" !outputs in
  let leaked =
    List.concat_map
      (fun (_, cfg) -> Redact.leaked_secrets ~production:cfg all_output)
      (Network.configs production)
    |> List.sort_uniq String.compare
  in
  { attempted = !attempted; denied = !denied; leaked }

let malicious_acl_commands ~acl ~seq ~src ~dst ~node =
  [
    Printf.sprintf "connect %s" node;
    Printf.sprintf "configure access-list %s %d permit ip %s %s" acl seq
      (Prefix.to_string src) (Prefix.to_string dst);
  ]

let erase_gateway_commands ~gateway =
  [ Printf.sprintf "connect %s" gateway; "erase startup-config" ]

let policy_damage ~engine ~policies ~before ~after =
  let check net =
    let report = Policy.check_all ~engine (Engine.dataplane engine net) policies in
    report.Policy.violations |> List.map (fun (p, _) -> p.Policy.id)
  in
  let before_violated = check before in
  let after_violated = check after in
  List.length
    (List.filter (fun id -> not (List.mem id before_violated)) after_violated)
