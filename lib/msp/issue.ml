open Heimdall_net
open Heimdall_control

type t = {
  name : string;
  ticket : Ticket.t;
  inject : Network.t -> Network.t;
  root_cause : string;
  fix_commands : string list;
  probe : Flow.t;
}

let symptom_present ~engine t net =
  let open Heimdall_verify in
  not (Trace.is_delivered (Engine.trace engine (Engine.dataplane engine net) t.probe))

let to_string t =
  Printf.sprintf "issue %s: %s (root cause: %s, %d-step fix)" t.name
    (Ticket.to_string t.ticket) t.root_cause
    (List.length t.fix_commands)
