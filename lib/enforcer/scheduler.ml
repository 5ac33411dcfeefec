open Heimdall_config
open Heimdall_control
open Heimdall_verify

type step = {
  change : Change.t;
  transient_violations : (Policy.t * string) list;
  checkpoint : Network.t;
}

type plan = {
  steps : step list;
  safe : bool;
  footprint : (string * Heimdall_sem.Plan_sem.section) list;
}

let plan ~engine ~production ~policies ~changes () =
  (* The static write footprint does not depend on scheduling order (or
     on the network), so it is computed once up front — the mediator and
     audit trail consume it even when planning later fails. *)
  let footprint = (Heimdall_sem.Plan_sem.analyze changes).Heimdall_sem.Plan_sem.footprint in
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "enforcer.schedule"
    ~attrs:[ ("changes", string_of_int (List.length changes)) ]
    (fun () ->
  let check net = Policy.check_all ~engine (Engine.dataplane engine net) policies in
  let held_of (report : Policy.report) =
    List.filter
      (fun p -> not (List.exists (fun (q, _) -> Policy.equal p q) report.violations))
      policies
  in
  (* [held] is threaded through the loop: the chosen candidate's full
     report already describes the next intermediate network, so each
     iteration reuses it instead of re-running the policy check from
     scratch.  Plans are byte-identical to the recompute-every-time
     version — [held_of report] on the winner's report equals [held_on]
     of the network it was computed from. *)
  let rec go current held remaining steps =
    match remaining with
    | [] ->
        let steps = List.rev steps in
        Ok
          ( { steps;
              safe = List.for_all (fun s -> s.transient_violations = []) steps;
              footprint },
            current )
    | _ ->
        (* Evaluate each candidate's transient damage. *)
        let evaluate c =
          match Network.apply_changes [ c ] current with
          | Error m -> Error m
          | Ok net ->
              let report = check net in
              let damage =
                List.filter
                  (fun (p, _) -> List.exists (Policy.equal p) held)
                  report.Policy.violations
              in
              Ok (c, net, report, damage)
        in
        let rec eval_all acc = function
          | [] -> Ok (List.rev acc)
          | c :: rest -> (
              match evaluate c with
              | Error m -> Error m
              | Ok r -> eval_all (r :: acc) rest)
        in
        (match eval_all [] remaining with
        | Error m -> Error m
        | Ok candidates ->
            (* Prefer the first zero-damage candidate (stable order keeps
               the plan deterministic); otherwise the least-damage one.
               Selection is by index so that removing the winner drops
               exactly one occurrence — a change value duplicated in the
               list is scheduled once per occurrence, not collapsed. *)
            let indexed = List.mapi (fun i c -> (i, c)) candidates in
            let best =
              match List.find_opt (fun (_, (_, _, _, d)) -> d = []) indexed with
              | Some c -> c
              | None ->
                  List.fold_left
                    (fun acc c ->
                      let _, (_, _, _, d) = c and _, (_, _, _, da) = acc in
                      if List.length d < List.length da then c else acc)
                    (List.hd indexed) (List.tl indexed)
            in
            let idx, (c, net, report, damage) = best in
            let remaining' = List.filteri (fun i _ -> i <> idx) remaining in
            go net (held_of report) remaining'
              ({ change = c; transient_violations = damage; checkpoint = net } :: steps))
  in
  let result =
    match changes with
    | [] -> Ok ({ steps = []; safe = true; footprint }, production)
    | _ -> go production (held_of (check production)) changes []
  in
  (match result with
  | Ok (p, _) ->
      Heimdall_obs.Obs.add_attr obs "safe" (string_of_bool p.safe);
      Heimdall_obs.Obs.event obs "schedule.decision"
        ~attrs:
          [
            ("steps", string_of_int (List.length p.steps));
            ("safe", string_of_bool p.safe);
          ]
  | Error m ->
      Heimdall_obs.Obs.add_attr obs "error" m;
      Heimdall_obs.Obs.event obs "schedule.decision" ~attrs:[ ("error", m) ]);
  result)

let plan_to_string p =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "%2d. %s%s\n" (i + 1) (Change.to_string s.change)
           (match s.transient_violations with
           | [] -> ""
           | vs -> Printf.sprintf "  (transient: %d violations)" (List.length vs))))
    p.steps;
  if p.footprint <> [] then
    Buffer.add_string buf
      (Printf.sprintf "footprint: %s\n"
         (Heimdall_sem.Plan_sem.footprint_to_string p.footprint));
  Buffer.add_string buf (if p.safe then "plan: safe\n" else "plan: contains transient violations\n");
  Buffer.contents buf
