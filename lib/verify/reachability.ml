open Heimdall_net
open Heimdall_control

type matrix = {
  hosts : (string * Ipv4.t) list;  (* sorted by name *)
  reach : (string * string, bool) Hashtbl.t;
}

let addressed_hosts net =
  Network.node_names net
  |> List.filter_map (fun n ->
         if Network.kind n net = Some Topology.Host then
           Option.map (fun a -> (n, a)) (Network.host_address n net)
         else None)

let host_pairs hosts =
  List.concat_map
    (fun (src, src_addr) ->
      List.filter_map
        (fun (dst, dst_addr) ->
          if src <> dst then Some (src, dst, Flow.icmp src_addr dst_addr) else None)
        hosts)
    hosts

let compute ~engine dp =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "reachability.compute" (fun () ->
  let hosts = addressed_hosts (Dataplane.network dp) in
  let pairs = host_pairs hosts in
  let delivered =
    Engine.map engine
      (fun (_, _, flow) -> Trace.is_delivered (Engine.trace engine dp flow))
      pairs
  in
  let reach = Hashtbl.create (max 16 (List.length pairs)) in
  List.iter2 (fun (src, dst, _) ok -> Hashtbl.replace reach (src, dst) ok) pairs delivered;
  Heimdall_obs.Obs.add_attr obs "hosts" (string_of_int (List.length hosts));
  Heimdall_obs.Obs.add_attr obs "pairs" (string_of_int (List.length pairs));
  Heimdall_obs.Obs.incr obs ~by:(List.length pairs) "reachability.pairs_traced";
  { hosts; reach })

let reachable ~src ~dst m = Hashtbl.find_opt m.reach (src, dst)
let pair_count m = Hashtbl.length m.reach
let reachable_count m = Hashtbl.fold (fun _ ok n -> if ok then n + 1 else n) m.reach 0

type impact = { gained : (string * string) list; lost : (string * string) list }

let diff ~before ~after =
  (* Iterate the union of both matrices: a pair present on one side only
     (host or interface added/removed by the change) still gains or
     loses connectivity. *)
  let union = Hashtbl.create (Hashtbl.length before.reach + Hashtbl.length after.reach) in
  Hashtbl.iter (fun pair _ -> Hashtbl.replace union pair ()) before.reach;
  Hashtbl.iter (fun pair _ -> Hashtbl.replace union pair ()) after.reach;
  let gained = ref [] and lost = ref [] in
  Hashtbl.iter
    (fun pair () ->
      let was = Hashtbl.find_opt before.reach pair = Some true in
      let is = Hashtbl.find_opt after.reach pair = Some true in
      if is && not was then gained := pair :: !gained
      else if was && not is then lost := pair :: !lost)
    union;
  {
    gained = List.sort compare !gained;
    lost = List.sort compare !lost;
  }

let impact_to_string i =
  if i.gained = [] && i.lost = [] then "no reachability change"
  else
    let fmt sign (a, b) = Printf.sprintf "%s %s -> %s" sign a b in
    String.concat "\n" (List.map (fmt "+") i.gained @ List.map (fmt "-") i.lost)

(* Bits of one pair's outcome in the delta-scoped pass: an [int], so
   that the pass allocates no tuple per pair. *)
let was_bit = 1
let is_bit = 2
let retraced_bit = 4

let impact ~engine ~production updated =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "reachability.impact" (fun () ->
  (* [updated] is a small variation of production: reuse the production
     dataplane as the incremental base. *)
  let before = Engine.dataplane engine production in
  let after = Engine.dataplane ~base:before engine updated in
  let hosts = addressed_hosts (Dataplane.network before) in
  let result, pairs, retraced =
    match Dataplane.delta ~before ~after with
    | Some delta when addressed_hosts (Dataplane.network after) = hosts ->
        (* One pass: trace production, and trace [updated] only for the
           pairs whose production path the change can reach; for the
           rest the trace on [updated] is the same trace. *)
        let pairs = host_pairs hosts in
        let bits =
          Engine.map engine
            (fun (_, _, flow) ->
              let r = Engine.trace engine before flow in
              let was = if Trace.is_delivered r then was_bit else 0 in
              (* Unaffected: [updated] delivers iff production does. *)
              if Trace.unaffected delta flow r then if was <> 0 then was_bit lor is_bit else 0
              else if Trace.is_delivered (Engine.trace engine after flow) then
                was lor is_bit lor retraced_bit
              else was lor retraced_bit)
            pairs
        in
        let gained = ref [] and lost = ref [] and retraced = ref 0 in
        List.iter2
          (fun (src, dst, _) b ->
            if b land retraced_bit <> 0 then incr retraced;
            match (b land was_bit <> 0, b land is_bit <> 0) with
            | false, true -> gained := (src, dst) :: !gained
            | true, false -> lost := (src, dst) :: !lost
            | _ -> ())
          pairs bits;
        let n = List.length pairs in
        Heimdall_obs.Obs.incr obs ~by:n "reachability.pairs_traced";
        ( { gained = List.sort compare !gained; lost = List.sort compare !lost },
          n,
          !retraced )
    | _ ->
        (* Another topology, node set or host set: both matrices. *)
        let before = compute ~engine before and after = compute ~engine after in
        (diff ~before ~after, pair_count before, pair_count after)
  in
  Heimdall_obs.Obs.add_attr obs "pairs" (string_of_int pairs);
  Heimdall_obs.Obs.add_attr obs "retraced" (string_of_int retraced);
  Heimdall_obs.Obs.incr obs ~by:retraced "reachability.pairs_retraced";
  result)
