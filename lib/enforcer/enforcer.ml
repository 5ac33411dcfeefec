open Heimdall_config
open Heimdall_verify

type outcome = {
  approved : bool;
  rejections : Verifier.rejection list;
  conflicts : Mediator.conflict list;
  plan : Scheduler.plan option;
  updated : Heimdall_control.Network.t option;
  apply : Applier.summary option;
  fixed_policies : Policy.t list;
  impact : Reachability.impact option;
  lint_findings : Heimdall_lint.Diagnostic.t list;
  sem_findings : Heimdall_lint.Diagnostic.t list;
  acl_diffs : (string * string * Heimdall_sem.Acl_sem.diff) list;
  audit : Audit.t;
  report : Enclave.report;
  sealed_head : string;
}

let default_enclave = Enclave.load ~code_identity:"heimdall-policy-enforcer-v1"

(* Every outcome ends the same way: the final audit head is attested and
   sealed to the enforcer's enclave. *)
let finish ~enclave ~approved ?(rejections = []) ?(conflicts = []) ?plan ?updated ?apply
    ?(fixed_policies = []) ?impact ?(lint_findings = []) ?(sem_findings = [])
    ?(acl_diffs = []) audit =
  let head = Audit.head audit in
  {
    approved;
    rejections;
    conflicts;
    plan;
    updated;
    apply;
    fixed_policies;
    impact;
    lint_findings;
    sem_findings;
    acl_diffs;
    audit;
    report = Enclave.attest enclave ~report_data:head;
    sealed_head = Enclave.seal enclave head;
  }

(* Static-analysis pre-check: lint the twin as the technician left it and
   keep only findings that were not already present before the session
   started.  The delta is advisory — it lands in the audit trail for the
   MSP customer to review, but does not by itself reject the import
   (policy verification is the gate). *)
let lint_delta ~engine emulation =
  let open Heimdall_lint in
  let baseline =
    Lint.check_network ~engine ~twin_exposed:true
      (Heimdall_twin.Emulation.baseline emulation)
  in
  let current =
    Lint.check_network ~engine ~twin_exposed:true
      (Heimdall_twin.Emulation.network emulation)
  in
  List.filter
    (fun d -> not (List.exists (Diagnostic.equal d) baseline))
    current

let session_acl_diffs emulation =
  let open Heimdall_net in
  let before = Heimdall_twin.Emulation.baseline emulation in
  let after = Heimdall_twin.Emulation.network emulation in
  List.concat_map
    (fun node ->
      let acls net =
        match Heimdall_control.Network.config node net with
        | Some (cfg : Ast.t) -> cfg.acls
        | None -> []
      in
      let names =
        List.sort_uniq String.compare
          (List.map (fun (a : Acl.t) -> a.name) (acls before @ acls after))
      in
      List.filter_map
        (fun name ->
          let find net =
            match Heimdall_control.Network.config node net with
            | Some cfg -> Option.value (Ast.find_acl name cfg) ~default:(Acl.empty name)
            | None -> Acl.empty name
          in
          let d = Heimdall_sem.Acl_sem.diff ~before:(find before) ~after:(find after) in
          if Heimdall_sem.Acl_sem.diff_is_empty d then None else Some (node, name, d))
        names)
    (Heimdall_control.Network.node_names after)

let process_unlabeled ?(enclave = default_enclave) ~engine ?injector ?max_attempts
    ?(in_flight = []) ~production ~policies ~privilege ~session () =
  let obs = Engine.obs engine in
  let emulation = Heimdall_twin.Session.emulation session in
  let changes = Heimdall_twin.Emulation.changes emulation in
  let audit = Audit.of_session_log (Heimdall_twin.Session.log session) in
  (* Correlate the tamper-evident trail with the trace: the outermost
     span open on this domain (the session root when the workflow opened
     one) is recorded as an ordinary audit record, so an auditor can join
     the chained log against the emitted JSONL spans. *)
  let audit =
    match Heimdall_obs.Obs.root obs with
    | Some root ->
        Audit.append ~actor:"enforcer" ~action:"obs.trace" ~resource:"session"
          ~detail:(Printf.sprintf "root-span-id=%d" root)
          ~verdict:"recorded" audit
    | None -> audit
  in
  (* Pre-flight conflict mediation: intersect this session's static
     footprint and predicted delta with every in-flight plan.  A
     conflicting session is held — not rejected on its merits — before
     any verification work is spent on it; the audit trail says why. *)
  let session_label = "session" in
  let conflicts =
    match in_flight with
    | [] -> []
    | _ ->
        let tickets =
          List.map
            (fun (label, chs) -> { Mediator.label; changes = chs })
            in_flight
          @ [ { Mediator.label = session_label; changes } ]
        in
        let d = Mediator.mediate ~network:production tickets in
        List.filter_map
          (fun ((t : Mediator.ticket), c) ->
            if t.label = session_label then Some c else None)
          d.Mediator.held
  in
  if conflicts <> [] then begin
    let audit =
      List.fold_left
        (fun audit (c : Mediator.conflict) ->
          Heimdall_obs.Obs.event obs "plan.conflict"
            ~attrs:
              [
                ("first", c.first);
                ("second", c.second);
                ("shared_slots", string_of_int (List.length c.shared_footprint));
              ];
          Audit.append ~actor:"enforcer" ~action:"plan.conflict" ~resource:c.first
            ~detail:(Mediator.conflict_to_string c) ~verdict:"held" audit)
        audit conflicts
    in
    finish ~enclave ~approved:false ~conflicts audit
  end
  else
  let verdict =
    Verifier.verify ~engine ~production ~policies ~privilege ~changes ()
  in
  Heimdall_obs.Obs.event obs "policy.verdict"
    ~attrs:
      [
        ("accepted", string_of_bool verdict.Verifier.accepted);
        ("rejections", string_of_int (List.length verdict.Verifier.rejections));
        ("fixed", string_of_int (List.length verdict.Verifier.fixed_policies));
      ];
  let lint_findings =
    Heimdall_obs.Obs.span obs "enforcer.lint" (fun () ->
        let delta = lint_delta ~engine emulation in
        Heimdall_obs.Obs.add_attr obs "new_findings"
          (string_of_int (List.length delta));
        delta)
  in
  Heimdall_obs.Obs.event obs "lint.delta"
    ~attrs:[ ("new_findings", string_of_int (List.length lint_findings)) ];
  (* Semantic pre-check: exact packet-set diffs of every touched ACL,
     and the over-grant analysis of the session's privilege spec against
     what the changes actually exercised.  Advisory, like lint. *)
  let sem_findings, acl_diffs =
    Heimdall_obs.Obs.span obs "enforcer.sem" (fun () ->
        let acl_diffs = session_acl_diffs emulation in
        let sem_findings =
          Heimdall_lint.Lint.check_privilege_usage ~network:production
            ~spec:privilege ~changes ()
        in
        Heimdall_obs.Obs.add_attr obs "acl_diffs"
          (string_of_int (List.length acl_diffs));
        Heimdall_obs.Obs.add_attr obs "overgrants"
          (string_of_int (List.length sem_findings));
        (sem_findings, acl_diffs))
  in
  Heimdall_obs.Obs.event obs "sem.precheck"
    ~attrs:
      [
        ("acl_diffs", string_of_int (List.length acl_diffs));
        ("overgrants", string_of_int (List.length sem_findings));
      ];
  let audit =
    List.fold_left
      (fun audit (c : Change.t) ->
        Audit.append ~actor:"enforcer" ~action:(Change.op_action_name c.op)
          ~resource:c.node ~detail:(Change.to_string c) ~verdict:"extracted" audit)
      audit changes
  in
  let audit =
    List.fold_left
      (fun audit (d : Heimdall_lint.Diagnostic.t) ->
        Audit.append ~actor:"enforcer" ~action:"lint"
          ~resource:(Option.value d.device ~default:"twin")
          ~detail:(Heimdall_lint.Diagnostic.to_string d)
          ~verdict:(Heimdall_lint.Diagnostic.severity_to_string d.severity)
          audit)
      audit lint_findings
  in
  let audit =
    List.fold_left
      (fun audit (node, name, d) ->
        Audit.append ~actor:"enforcer" ~action:"sem.diff" ~resource:node
          ~detail:
            (Printf.sprintf "acl %s: %s" name (Heimdall_sem.Acl_sem.diff_to_string d))
          ~verdict:"recorded" audit)
      audit acl_diffs
  in
  let audit =
    List.fold_left
      (fun audit (d : Heimdall_lint.Diagnostic.t) ->
        Audit.append ~actor:"enforcer" ~action:"sem.overgrant"
          ~resource:(Option.value d.device ~default:"privilege")
          ~detail:(Heimdall_lint.Diagnostic.to_string d)
          ~verdict:(Heimdall_lint.Diagnostic.severity_to_string d.severity)
          audit)
      audit sem_findings
  in
  let audit =
    List.fold_left
      (fun audit r ->
        Audit.append ~actor:"enforcer" ~action:"verify" ~resource:"production"
          ~detail:(Verifier.rejection_to_string r) ~verdict:"rejected" audit)
      audit verdict.rejections
  in
  if not verdict.accepted then begin
    let audit =
      Audit.append ~actor:"enforcer" ~action:"verify" ~resource:"production"
        ~detail:(Printf.sprintf "%d changes" (List.length changes))
        ~verdict:"rejected" audit
    in
    finish ~enclave ~approved:false ~rejections:verdict.rejections
      ~fixed_policies:verdict.fixed_policies ~lint_findings ~sem_findings ~acl_diffs audit
  end
  else
    match Scheduler.plan ~engine ~production ~policies ~changes () with
    | Error m ->
        let audit =
          Audit.append ~actor:"enforcer" ~action:"schedule" ~resource:"production"
            ~detail:m ~verdict:"rejected" audit
        in
        finish ~enclave ~approved:false ~rejections:[ Verifier.Apply_error m ]
          ~fixed_policies:verdict.fixed_policies ~lint_findings ~sem_findings ~acl_diffs
          audit
    | Ok (plan, updated) ->
        let impact =
          Heimdall_obs.Obs.span obs "enforcer.impact" (fun () ->
              Reachability.impact ~engine ~production updated)
        in
        (* Transactional push to production: per-step checkpoint
           validation, retry with backoff, rollback on persistent
           failure.  Without an injector this appends exactly the
           per-step "apply" records and lands on the scheduler's final
           network. *)
        let apply =
          Applier.run ?injector ?max_attempts ?obs ~production ~plan ~audit ()
        in
        let audit = apply.Applier.audit in
        (* The committed state: byte-identical to the scheduler's final
           network when the plan landed; the restored checkpoint after a
           rollback (the pre-computed [impact] then describes the plan
           that was abandoned — [apply.committed] disambiguates). *)
        let updated = apply.Applier.network in
        let audit =
          Audit.append ~actor:"enforcer" ~action:"verify" ~resource:"production"
            ~detail:
              (Printf.sprintf "%d changes approved, %d policies repaired; impact: %s"
                 (List.length changes)
                 (List.length verdict.fixed_policies)
                 (Reachability.impact_to_string impact))
            ~verdict:"approved" audit
        in
        finish ~enclave ~approved:true ~plan ~updated ~apply
          ~fixed_policies:verdict.fixed_policies ~impact ~lint_findings ~sem_findings
          ~acl_diffs audit

(* One labeled counter per processed session, bucketed by how it ended —
   what the Watchtower's /metrics page breaks enforcer traffic down by. *)
let process ?enclave ~engine ?injector ?max_attempts ?in_flight ~production
    ~policies ~privilege ~session () =
  let outcome =
    process_unlabeled ?enclave ~engine ?injector ?max_attempts ?in_flight
      ~production ~policies ~privilege ~session ()
  in
  let obs = Engine.obs engine in
  let verdict =
    if not outcome.approved then
      if outcome.conflicts <> [] then "held" else "rejected"
    else
      match outcome.apply with
      | Some a when not a.Applier.committed -> "rolled_back"
      | _ -> "approved"
  in
  Heimdall_obs.Obs.incr obs "enforcer.sessions" ~labels:[ ("verdict", verdict) ];
  outcome

let outcome_to_string o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (if o.approved then "APPROVED\n" else "REJECTED\n");
  List.iter
    (fun r -> Buffer.add_string buf ("  " ^ Verifier.rejection_to_string r ^ "\n"))
    o.rejections;
  List.iter
    (fun c -> Buffer.add_string buf ("  " ^ Mediator.conflict_to_string c ^ "\n"))
    o.conflicts;
  (match o.plan with
  | Some p -> Buffer.add_string buf (Scheduler.plan_to_string p)
  | None -> ());
  (match o.apply with
  | Some a when a.Applier.retries <> [] || a.Applier.rollback <> None ->
      Buffer.add_string buf (Applier.summary_to_string a)
  | Some _ | None -> ());
  (match o.impact with
  | Some i -> Buffer.add_string buf ("impact: " ^ Reachability.impact_to_string i ^ "\n")
  | None -> ());
  if o.lint_findings <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "lint: %d new finding%s\n"
         (List.length o.lint_findings)
         (if List.length o.lint_findings = 1 then "" else "s"));
    List.iter
      (fun d ->
        Buffer.add_string buf ("  " ^ Heimdall_lint.Diagnostic.to_string d ^ "\n"))
      o.lint_findings
  end;
  if o.acl_diffs <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "sem: %d ACL diff%s\n" (List.length o.acl_diffs)
         (if List.length o.acl_diffs = 1 then "" else "s"));
    List.iter
      (fun (node, name, d) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s/%s: %s\n" node name
             (Heimdall_sem.Acl_sem.diff_to_string d)))
      o.acl_diffs
  end;
  if o.sem_findings <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "sem: %d over-grant finding%s\n"
         (List.length o.sem_findings)
         (if List.length o.sem_findings = 1 then "" else "s"));
    List.iter
      (fun d ->
        Buffer.add_string buf ("  " ^ Heimdall_lint.Diagnostic.to_string d ^ "\n"))
      o.sem_findings
  end;
  Buffer.add_string buf
    (Printf.sprintf "audit: %d records, head %s...\n" (Audit.length o.audit)
       (String.sub (Audit.head o.audit) 0 12));
  Buffer.contents buf
