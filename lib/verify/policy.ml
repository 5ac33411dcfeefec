open Heimdall_net

type intent = Reachable | Isolated | Waypoint of string

type t = {
  id : string;
  src_label : string;
  dst_label : string;
  flow : Flow.t;
  intent : intent;
}

let default_id intent ~src_label ~dst_label (flow : Flow.t) =
  let kind =
    match intent with
    | Reachable -> "reach"
    | Isolated -> "isolate"
    | Waypoint w -> "waypoint[" ^ w ^ "]"
  in
  let proto =
    match flow.proto with
    | Flow.Icmp -> "icmp"
    | Flow.Tcp -> Printf.sprintf "tcp%d" flow.dst_port
    | Flow.Udp -> Printf.sprintf "udp%d" flow.dst_port
  in
  Printf.sprintf "%s:%s->%s:%s" kind src_label dst_label proto

let reachable ?id ~src_label ~dst_label flow =
  let id = Option.value id ~default:(default_id Reachable ~src_label ~dst_label flow) in
  { id; src_label; dst_label; flow; intent = Reachable }

let isolated ?id ~src_label ~dst_label flow =
  let id = Option.value id ~default:(default_id Isolated ~src_label ~dst_label flow) in
  { id; src_label; dst_label; flow; intent = Isolated }

let waypoint ?id ~src_label ~dst_label ~via flow =
  let id =
    Option.value id ~default:(default_id (Waypoint via) ~src_label ~dst_label flow)
  in
  { id; src_label; dst_label; flow; intent = Waypoint via }

let to_string p =
  match p.intent with
  | Reachable -> Printf.sprintf "%s can reach %s (%s)" p.src_label p.dst_label (Flow.to_string p.flow)
  | Isolated ->
      Printf.sprintf "%s must not reach %s (%s)" p.src_label p.dst_label
        (Flow.to_string p.flow)
  | Waypoint w ->
      Printf.sprintf "%s reaches %s through %s (%s)" p.src_label p.dst_label w
        (Flow.to_string p.flow)

let pp fmt p = Format.pp_print_string fmt (to_string p)
let equal a b = a = b

type verdict = Holds | Violated of string

let verdict_of_trace p (result : Trace.result) =
  match p.intent with
  | Reachable -> (
      match result with
      | Trace.Delivered _ -> Holds
      | Trace.Dropped (reason, _) ->
          Violated
            (Printf.sprintf "%s cannot reach %s: %s" p.src_label p.dst_label
               (Trace.drop_reason_to_string reason)))
  | Isolated -> (
      match result with
      | Trace.Dropped _ -> Holds
      | Trace.Delivered hops ->
          Violated
            (Printf.sprintf "%s reaches %s (path: %s)" p.src_label p.dst_label
               (String.concat " -> " (List.map (fun (h : Trace.hop) -> h.node) hops))))
  | Waypoint via -> (
      match result with
      | Trace.Dropped (reason, _) ->
          Violated
            (Printf.sprintf "%s cannot reach %s: %s" p.src_label p.dst_label
               (Trace.drop_reason_to_string reason))
      | Trace.Delivered _ ->
          if List.mem via (Trace.nodes_on_path result) then Holds
          else
            Violated
              (Printf.sprintf "%s reaches %s without passing %s" p.src_label p.dst_label via))

type report = { total : int; violations : (t * string) list }

(* The report of one set of verdicts, fed to the [policy.*] counters. *)
let report obs verdicts =
  let violations =
    List.filter_map
      (function _, Holds -> None | p, Violated reason -> Some (p, reason))
      verdicts
  in
  let total = List.length verdicts and violated = List.length violations in
  Heimdall_obs.Obs.incr obs ~by:(total - violated) ~labels:[ ("verdict", "holds") ]
    "policy.checked";
  Heimdall_obs.Obs.incr obs ~by:violated ~labels:[ ("verdict", "violated") ] "policy.checked";
  Heimdall_obs.Obs.incr obs ~by:violated "policy.violations";
  { total; violations }

let check_all ~engine dp policies =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "policy.check_all"
    ~attrs:[ ("policies", string_of_int (List.length policies)) ]
    (fun () ->
      (* Parallel fan-out, one trace per policy. *)
      let r =
        report obs
          (Engine.map engine
             (fun p -> (p, verdict_of_trace p (Engine.trace engine dp p.flow)))
             policies)
      in
      Heimdall_obs.Obs.add_attr obs "violations" (string_of_int (List.length r.violations));
      r)

let check_both ~engine ~before ~after policies =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "policy.check_both"
    ~attrs:[ ("policies", string_of_int (List.length policies)) ]
    (fun () ->
      let delta = Heimdall_control.Dataplane.delta ~before ~after in
      let verdicts =
        Engine.map engine
          (fun p ->
            let r = Engine.trace engine before p.flow in
            let was = verdict_of_trace p r in
            match delta with
            | Some d when Trace.unaffected d p.flow r -> (p, was, was, false)
            | _ -> (p, was, verdict_of_trace p (Engine.trace engine after p.flow), true))
          policies
      in
      let retraced = List.length (List.filter (fun (_, _, _, r) -> r) verdicts) in
      let before = report obs (List.map (fun (p, v, _, _) -> (p, v)) verdicts) in
      let after = report obs (List.map (fun (p, _, v, _) -> (p, v)) verdicts) in
      Heimdall_obs.Obs.add_attr obs "retraced" (string_of_int retraced);
      Heimdall_obs.Obs.add_attr obs "violations" (string_of_int (List.length after.violations));
      Heimdall_obs.Obs.incr obs ~by:retraced "policy.retraced";
      (before, after))

let holds_all ~engine dp policies = (check_all ~engine dp policies).violations = []
