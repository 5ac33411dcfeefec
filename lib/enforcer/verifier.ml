open Heimdall_config
open Heimdall_control
open Heimdall_privilege
open Heimdall_verify

type rejection =
  | Privilege_violation of { change : Change.t; action : Action.t }
  | Policy_violation of { policy : Policy.t; reason : string }
  | Apply_error of string

let rejection_to_string = function
  | Privilege_violation { change; action } ->
      Printf.sprintf "privilege violation: %s requires %s" (Change.to_string change) action
  | Policy_violation { policy; reason } ->
      Printf.sprintf "policy violation: %s — %s" (Policy.to_string policy) reason
  | Apply_error m -> Printf.sprintf "cannot apply changes: %s" m

type outcome = {
  accepted : bool;
  rejections : rejection list;
  shadow : Network.t option;
  fixed_policies : Policy.t list;
}

(* Requests are built by Plan_sem — the same construction the static
   pre-flight proof evaluates, so "statically sufficient" and "no
   rejection here" can never disagree about a change. *)
let privilege_rejections ~privilege changes =
  List.filter_map
    (fun (c : Change.t) ->
      let r = Heimdall_sem.Plan_sem.op_requirement c in
      if Privilege.allows privilege (Heimdall_sem.Plan_sem.request_of_requirement r)
      then None
      else Some (Privilege_violation { change = c; action = r.req_action }))
    changes

let verify ~engine ~production ~policies ~privilege ~changes () =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "enforcer.verify"
    ~attrs:[ ("changes", string_of_int (List.length changes)) ]
    (fun () ->
      let priv_rejections = privilege_rejections ~privilege changes in
      let result =
        match Network.apply_changes changes production with
        | Error m ->
            {
              accepted = false;
              rejections = priv_rejections @ [ Apply_error m ];
              shadow = None;
              fixed_policies = [];
            }
        | Ok shadow ->
            (* The shadow network differs from production only by the
               proposed change set: build its dataplane incrementally. *)
            let production_dp = Engine.dataplane engine production in
            let before, after =
              Policy.check_both ~engine ~before:production_dp
                ~after:(Engine.dataplane ~base:production_dp engine shadow)
                policies
            in
            let violated_before p =
              List.exists (fun (q, _) -> Policy.equal p q) before.violations
            in
            let policy_rejections =
              (* Only *new* violations block the import: a policy already broken
                 in production (e.g. the ticket's own symptom) cannot be held
                 against the fix. *)
              List.filter_map
                (fun (p, reason) ->
                  if violated_before p then None
                  else Some (Policy_violation { policy = p; reason }))
                after.violations
            in
            let fixed_policies =
              List.filter_map
                (fun (p, _) ->
                  if List.exists (fun (q, _) -> Policy.equal p q) after.violations
                  then None
                  else Some p)
                before.violations
            in
            let rejections = priv_rejections @ policy_rejections in
            {
              accepted = rejections = [];
              rejections;
              shadow = Some shadow;
              fixed_policies;
            }
      in
      Heimdall_obs.Obs.add_attr obs "accepted" (string_of_bool result.accepted);
      Heimdall_obs.Obs.add_attr obs "rejections"
        (string_of_int (List.length result.rejections));
      Heimdall_obs.Obs.incr obs ~by:(List.length result.rejections)
        "enforcer.rejections";
      result)
