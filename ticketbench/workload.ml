open Heimdall_net
open Heimdall_control
open Heimdall_verify
open Heimdall_msp
open Heimdall_scenarios
open Heimdall_twin
open Heimdall_enforcer
module Clock = Heimdall_obs.Clock
module Tracer = Heimdall_obs.Tracer

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type ticket = {
  label : string;
  production : Network.t;
  policies : Policy.t list;
  issue : Issue.t;
  hostile : bool;
}

type inputs =
  | Tickets of ticket list
  | Sweep of { net : Network.t; policies : Policy.t list; candidates : int }

type t = {
  name : string;
  why : string;
  setup : seed:int -> inputs;
  tail_pct : float;
  traced : int;
}

let honest prefix production policies (issue : Issue.t) =
  {
    label = Printf.sprintf "%s/%s@%s" prefix issue.name issue.root_cause;
    production;
    policies;
    issue;
    hostile = false;
  }

(* The inputs of [Experiments.malicious_acl_scenario]: a rogue SRV_PROT
   permit slipped in on r8 under a connectivity ticket.  The monitor
   allows the edit (ACL edits are in class for the ticket); policy
   verification must reject it and leave production untouched. *)
let hostile production policies =
  let addr host = Option.get (Network.host_address host production) in
  let issue =
    {
      Issue.name = "hostile";
      ticket =
        Ticket.make ~id:"ENT-900" ~kind:Ticket.Connectivity
          ~description:"h1 reports intermittent access to the web server"
          ~endpoints:[ "h1"; Enterprise.web_server ];
      inject = Fun.id;
      root_cause = "r8";
      fix_commands =
        Attacks.malicious_acl_commands ~acl:"SRV_PROT" ~seq:5
          ~src:(Prefix.of_string "10.1.10.0/24") ~dst:Enterprise.sensitive_subnet
          ~node:"r8";
      probe = Flow.icmp (addr "h1") (addr Enterprise.web_server);
    }
  in
  { (honest "enterprise" production policies issue) with hostile = true }

let paper_mix ~seed:_ =
  let ent = Enterprise.build () in
  let ent_policies = Enterprise.policies ent in
  let uni = University.build () in
  let uni_policies = University.policies uni in
  Tickets
    (List.map (honest "enterprise" ent ent_policies) (Enterprise.issues ent)
    @ List.map (honest "university" uni uni_policies) (University.issues uni)
    @ [ hostile ent ent_policies ])

(* Seeds S .. S+63 strike every edge device of the fleets below with
   every injector, so each class quota fills whatever S is. *)
let fleet_seeds = 64

(* A fleet ticket's class is its issue, except that a misconfig whose
   probe crosses an OSPF area (a pod boundary) is a class of its own: its
   twin slice spans two pods and the ticket costs about half as much
   again. *)
let ticket_class (f : Fleetgen.fleet) (i : Issue.t) =
  let area addr =
    List.find_map
      (fun (e : Fleetgen.edge) -> if Prefix.contains e.subnet addr then Some e.area else None)
      f.edges
  in
  if i.name = "misconfig" && area i.probe.src <> area i.probe.dst then "misconfig-cross-area"
  else i.name

(* The first [quota] distinct tickets of each class, in seed order, dealt
   round-robin across classes.  A ticket is distinct by (issue, root
   cause).  Fixed quotas keep the mix of cheap and expensive tickets, and
   so each percentile's place in it, the same for every seed. *)
let fleet_tickets ~spec ~prefix ~quotas ~seed =
  let params =
    match Fleetgen.spec_of_string spec with Ok p -> p | Error m -> invalid_arg m
  in
  let candidates =
    List.concat_map
      (fun i ->
        let f = Fleetgen.generate { params with seed = seed + i } in
        List.map (fun issue -> (ticket_class f issue, honest prefix f.net f.policies issue)) f.issues)
      (List.init fleet_seeds Fun.id)
  in
  let pick (cls, quota) =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun (c, t) ->
        if c = cls && Hashtbl.length seen < quota && not (Hashtbl.mem seen t.label) then begin
          Hashtbl.replace seen t.label ();
          Some t
        end
        else None)
      candidates
  in
  let rec deal = function
    | [] -> []
    | classes ->
        List.filter_map (function t :: _ -> Some t | [] -> None) classes
        @ deal (List.filter (( <> ) []) (List.map (function _ :: ts -> ts | [] -> []) classes))
  in
  Tickets (deal (List.map pick quotas))

let sweep_university ~seed:_ =
  let net = University.build () in
  let policies = University.policies net in
  Sweep { net; policies; candidates = List.length (Metrics.failure_candidates net) }

let all =
  [
    {
      name = "paper-mix";
      why =
        "enterprise + university: the 6 scripted tickets plus the hostile SRV_PROT \
         rule; small networks, where fixed per-ticket costs dominate";
      setup = paper_mix;
      tail_pct = 90.;
      traced = 7;
    };
    {
      name = "fleet-routers";
      why =
        "fat-tree k=6 (45 routers, 36 hosts), misconfig and drift tickets placed by \
         the seed plus overgrant; dominated by dataplane builds and scheduling";
      setup =
        fleet_tickets ~spec:"fat-tree:k=6" ~prefix:"fat-tree-k6"
          ~quotas:
            [ ("overgrant", 1); ("misconfig", 3); ("misconfig-cross-area", 2); ("drift", 4) ];
      tail_pct = 75.;
      traced = 10;
    };
    {
      name = "fleet-hosts";
      why =
        "fat-tree k=4 with 8 hosts per edge (20 routers, 64 hosts); dominated by the \
         all-pairs reachability of enforcer.impact";
      setup =
        fleet_tickets ~spec:"fat-tree:k=4:hosts=8" ~prefix:"fat-tree-k4-h8"
          ~quotas:
            [ ("overgrant", 1); ("misconfig", 4); ("misconfig-cross-area", 4); ("drift", 8) ];
      tail_pct = 90.;
      traced = 17;
    };
    {
      name = "sweep-university";
      why =
        "Figure 9 failure sweep on the university network at the host's domain \
         count; read-only verify, the only workload where parallelism can pay";
      setup = sweep_university;
      tail_pct = 75.;
      traced = 0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* The composed ticket and its checks                                  *)
(* ------------------------------------------------------------------ *)

(* A fresh engine per ticket, so no ticket is answered from another
   ticket's caches; one domain, because a fresh pool per ticket makes
   the run-to-run spread too wide to gate on. *)
let run_composed t =
  let engine = Engine.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      Workflow.run_heimdall ~engine ~production:t.production ~policies:t.policies
        ~issue:t.issue ())

let observe t (run : Workflow.run) =
  let o = Option.get run.outcome in
  let digest = Network.digest run.final_network in
  {
    Harness.hostile = t.hostile;
    resolved = run.resolved;
    denied = run.denied;
    audit_ok = Result.is_ok (Audit.verify o.Enforcer.audit);
    report_ok = Enclave.verify_report o.Enforcer.report;
    production_changed = digest <> Network.digest t.production;
    fingerprint =
      { approved = o.Enforcer.approved; digest; audit_head = Audit.head o.Enforcer.audit };
  }

(* Checks every run of a ticket against its verdict rules and against the
   first run of the same distinct ticket, across every pass of a
   process. *)
let checker tally =
  let first = Hashtbl.create 16 in
  fun ?extra t run ->
    let o = observe t run in
    let f = Hashtbl.find_opt first t.label in
    if f = None then Hashtbl.replace first t.label o.fingerprint;
    let failure =
      match Harness.ticket_failure ~first:f o with None -> extra | some -> some
    in
    Harness.record tally ~label:t.label failure

let run_sweep ~domains net policies =
  let engine = Engine.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      let summaries = Metrics.sweep_all ~engine ~production:net ~policies () in
      (summaries, Engine.stats engine))

let check_sweep tally ~reference summaries =
  Harness.record tally ~label:"sweep"
    (if summaries = reference then None else Some "summaries differ from the 1-domain sweep")

(* ------------------------------------------------------------------ *)
(* Timed pass                                                          *)
(* ------------------------------------------------------------------ *)

(* Closed loop, one client: the next operation starts when the previous
   one finished.  Runs until [seconds] have passed and at least [min_n]
   operations completed, so the workload's tail percentile is defined, and
   stops only after a whole cycle of the distinct inputs, so every run
   measures the same mix. *)
let closed_loop ~seconds ~min_n ~cycle op =
  let start = Clock.now_s () in
  let rec go i acc =
    if i >= min_n && i mod cycle = 0 && Clock.now_s () -. start >= seconds then List.rev acc
    else go (i + 1) (op i :: acc)
  in
  go 0 []

let timed_tickets g ~seconds ~min_n check tickets =
  let cycle = Array.of_list tickets in
  closed_loop ~seconds ~min_n ~cycle:(Array.length cycle) (fun i ->
      let t = cycle.(i mod Array.length cycle) in
      let _, dt = Gate.measure g (fun () -> run_composed t) (check t) in
      dt)

let timed_sweeps g ~seconds ~min_n tally ~reference net policies =
  let domains = Engine.default_domains () in
  closed_loop ~seconds ~min_n ~cycle:1 (fun _ ->
      snd
        (Gate.measure g
           (fun () -> run_sweep ~domains net policies)
           (fun (summaries, _) -> check_sweep tally ~reference summaries)))

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)
(* ------------------------------------------------------------------ *)

type counts = { traces : int; dp_full : int; dp_incr : int; dp_hits : int }

let zero = { traces = 0; dp_full = 0; dp_incr = 0; dp_hits = 0 }

let counts_of (s : Engine.stats) =
  {
    traces = s.traces_run;
    dp_full = s.dataplanes_built - s.dataplanes_incremental;
    dp_incr = s.dataplanes_incremental;
    dp_hits = s.dataplane_cache_hits + s.dataplane_persistent_hits;
  }

let combine f a b =
  {
    traces = f a.traces b.traces;
    dp_full = f a.dp_full b.dp_full;
    dp_incr = f a.dp_incr b.dp_incr;
    dp_hits = f a.dp_hits b.dp_hits;
  }

let ticket_layers =
  [
    "twin.slice";
    "msp.privgen";
    "sem.preflight";
    "twin.build";
    "twin.session";
    "enforcer.verify";
    "enforcer.lint";
    "enforcer.sem";
    "enforcer.schedule";
    "enforcer.impact";
    "enforcer.apply";
    "enforcer.audit";
    "workflow.probe";
  ]

let sweep_layers = [ "metrics.candidates"; "engine.phase.prepare"; "engine.phase.evaluate" ]

type traced = {
  ops : int;
  self_s : (string * float) list;
      (** Per layer, summed over operations; [""] is the unattributed
          rest of the root spans. *)
  counts : (string * counts) list;  (** Engine-counter deltas per layer. *)
  wall_s : float;  (** Sum of the root spans. *)
  untraced_s : float;  (** The same operations, run untraced. *)
  engine : Engine.stats list;  (** One per traced operation at the timed domain count. *)
  schedule_steps : int;
  impact_flipped : int;
  impact_pairs : int;
  denied : int;
  map_speedup : float;
  spans : Tracer.span list;
}

(* Self time of every non-root span (duration minus its children's),
   summed per name; the roots' self time is filed under [""]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (s : Tracer.span) -> Option.iter (fun p -> bump children p s.duration_s) s.parent)
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Tracer.span) ->
      bump totals
        (if s.parent = None then "" else s.name)
        (s.duration_s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
    spans;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt totals name)

let root_wall spans =
  List.fold_left
    (fun a (s : Tracer.span) -> if s.parent = None then a +. s.duration_s else a)
    0. spans

(* [Enforcer]'s private semantic ACL diff: every ACL of every device,
   before vs after the session, empty diffs dropped. *)
let session_acl_diffs emulation =
  let before = Emulation.baseline emulation in
  let after = Emulation.network emulation in
  List.concat_map
    (fun node ->
      let acls net =
        match Network.config node net with
        | Some (cfg : Heimdall_config.Ast.t) -> cfg.acls
        | None -> []
      in
      let names =
        List.sort_uniq String.compare
          (List.map (fun (a : Acl.t) -> a.name) (acls before @ acls after))
      in
      List.filter_map
        (fun name ->
          let find net =
            match Network.config node net with
            | Some cfg ->
                Option.value (Heimdall_config.Ast.find_acl name cfg) ~default:(Acl.empty name)
            | None -> Acl.empty name
          in
          let d = Heimdall_sem.Acl_sem.diff ~before:(find before) ~after:(find after) in
          if Heimdall_sem.Acl_sem.diff_is_empty d then None else Some (node, name, d))
        names)
    (Network.node_names after)

let append_all ~action ~resource ~detail ~verdict xs audit =
  List.fold_left
    (fun audit x ->
      Audit.append ~actor:"enforcer" ~action:(action x) ~resource:(resource x)
        ~detail:(detail x) ~verdict:(verdict x) audit)
    audit xs

let seal audit =
  let head = Audit.head audit in
  ignore (Enclave.attest Enforcer.default_enclave ~report_data:head);
  ignore (Enclave.seal Enforcer.default_enclave head)

type mirrored = {
  approved : bool;
  final : Network.t;
  impact : Reachability.impact option;
  steps : int;
  flipped : int;
  pairs : int;
}

type layer = { layer : 'a. string -> (unit -> 'a) -> 'a }

(* [Enforcer.process] without obs, injector or in-flight plans: one
   public call per layer, in the same order. *)
let mirror_enforcer l ~engine ~production ~policies ~privilege ~session =
  let open Heimdall_lint in
  let layer name f = l.layer name f in
  let module Change = Heimdall_config.Change in
  let emulation = Session.emulation session in
  let changes = Emulation.changes emulation in
  let rejected ?(action = "verify") audit ~detail =
    layer "enforcer.audit" (fun () ->
        seal
          (Audit.append ~actor:"enforcer" ~action ~resource:"production" ~detail
             ~verdict:"rejected" audit));
    { approved = false; final = production; impact = None; steps = 0; flipped = 0; pairs = 0 }
  in
  let audit = layer "enforcer.audit" (fun () -> Audit.of_session_log (Session.log session)) in
  let verdict =
    layer "enforcer.verify" (fun () ->
        Verifier.verify ~engine ~production ~policies ~privilege ~changes ())
  in
  let lint_findings =
    layer "enforcer.lint" (fun () ->
        let baseline =
          Lint.check_network ~engine ~twin_exposed:true (Emulation.baseline emulation)
        in
        Lint.check_network ~engine ~twin_exposed:true (Emulation.network emulation)
        |> List.filter (fun d -> not (List.exists (Diagnostic.equal d) baseline)))
  in
  let acl_diffs, sem_findings =
    layer "enforcer.sem" (fun () ->
        let diffs = session_acl_diffs emulation in
        (diffs, Lint.check_privilege_usage ~network:production ~spec:privilege ~changes ()))
  in
  let device default (d : Diagnostic.t) = Option.value d.device ~default in
  let severity (d : Diagnostic.t) = Diagnostic.severity_to_string d.severity in
  let audit =
    layer "enforcer.audit" (fun () ->
        audit
        |> append_all
             ~action:(fun (c : Change.t) -> Change.op_action_name c.op)
             ~resource:(fun (c : Change.t) -> c.node)
             ~detail:Change.to_string
             ~verdict:(fun _ -> "extracted")
             changes
        |> append_all ~action:(fun _ -> "lint") ~resource:(device "twin")
             ~detail:Diagnostic.to_string ~verdict:severity lint_findings
        |> append_all
             ~action:(fun _ -> "sem.diff")
             ~resource:(fun (node, _, _) -> node)
             ~detail:(fun (_, name, d) ->
               Printf.sprintf "acl %s: %s" name (Heimdall_sem.Acl_sem.diff_to_string d))
             ~verdict:(fun _ -> "recorded")
             acl_diffs
        |> append_all ~action:(fun _ -> "sem.overgrant") ~resource:(device "privilege")
             ~detail:Diagnostic.to_string ~verdict:severity sem_findings
        |> append_all ~action:(fun _ -> "verify") ~resource:(fun _ -> "production")
             ~detail:Verifier.rejection_to_string ~verdict:(fun _ -> "rejected")
             verdict.rejections)
  in
  if not verdict.accepted then
    rejected audit ~detail:(Printf.sprintf "%d changes" (List.length changes))
  else
    match
      layer "enforcer.schedule" (fun () ->
          Scheduler.plan ~engine ~production ~policies ~changes ())
    with
    | Error m -> rejected ~action:"schedule" audit ~detail:m
    | Ok (plan, updated) ->
        let impact, pairs =
          layer "enforcer.impact" (fun () ->
              let p = Engine.dataplane engine production in
              let u = Engine.dataplane ~base:p engine updated in
              let before = Reachability.compute ~engine p in
              let after = Reachability.compute ~engine u in
              ( Reachability.diff ~before ~after,
                Reachability.pair_count before + Reachability.pair_count after ))
        in
        let apply = layer "enforcer.apply" (fun () -> Applier.run ~production ~plan ~audit ()) in
        layer "enforcer.audit" (fun () ->
            seal
              (Audit.append ~actor:"enforcer" ~action:"verify" ~resource:"production"
                 ~detail:
                   (Printf.sprintf "%d changes approved, %d policies repaired; impact: %s"
                      (List.length changes)
                      (List.length verdict.fixed_policies)
                      (Reachability.impact_to_string impact))
                 ~verdict:"approved" apply.Applier.audit));
        {
          approved = true;
          final = apply.Applier.network;
          impact = Some impact;
          steps = List.length plan.Scheduler.steps;
          flipped = List.length impact.gained + List.length impact.lost;
          pairs;
        }

(* [Workflow.run_heimdall] step by step: each public call in a span of
   the bench's own tracer, bracketed by engine-counter snapshots. *)
let mirror_ticket tracer acc t =
  Tracer.with_span tracer "ticket" ~attrs:[ ("ticket", t.label) ] @@ fun () ->
  let engine = Engine.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let layer name f =
    let before = counts_of (Engine.stats engine) in
    let r = Tracer.with_span tracer name f in
    let d = combine ( - ) (counts_of (Engine.stats engine)) before in
    Hashtbl.replace acc name
      (combine ( + ) d (Option.value ~default:zero (Hashtbl.find_opt acc name)));
    r
  in
  let issue = t.issue in
  let broken = issue.inject t.production in
  let endpoints = issue.ticket.Ticket.endpoints in
  let slice =
    layer "twin.slice" (fun () ->
        Twin.slice_nodes ~strategy:Slicer.Task ~production:broken ~endpoints ())
  in
  let privilege =
    layer "msp.privgen" (fun () -> Priv_gen.for_ticket ~network:broken ~slice issue.ticket)
  in
  layer "sem.preflight" (fun () ->
      let open Heimdall_sem in
      let script = Plan_sem.script_of_commands issue.fix_commands in
      ignore (Plan_sem.prove ~spec:privilege (Plan_sem.plan_requirements ~network:broken script));
      ignore (Plan_sem.analyze ~network:broken script.Plan_sem.script_changes));
  let emulation =
    layer "twin.build" (fun () ->
        let em = Twin.build ~strategy:Slicer.Task ~production:broken ~endpoints () in
        ignore (Emulation.dataplane em);
        em)
  in
  let session =
    layer "twin.session" (fun () ->
        let s = Twin.open_session ~privilege emulation in
        ignore (Session.exec_many s issue.fix_commands);
        s)
  in
  let m =
    mirror_enforcer { layer } ~engine ~production:broken ~policies:t.policies ~privilege
      ~session
  in
  (* The resolution probe as the workflow runs it: on a dataplane built
     outside the engine. *)
  if m.approved then
    ignore
      (layer "workflow.probe" (fun () ->
           Trace.is_delivered (Trace.trace (Dataplane.compute m.final) issue.probe)));
  (m, Session.denied_count session, Engine.stats engine)

let reproduces (run : Workflow.run) m =
  let o = Option.get run.outcome in
  o.Enforcer.approved = m.approved
  && Network.digest run.final_network = Network.digest m.final
  && o.Enforcer.impact = m.impact

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let sum_int f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* Each traced ticket follows an untraced run of the same ticket: the
   pair gives [trace.coverage], and the traced one must reproduce it. *)
let traced_tickets g tracer check tickets =
  let acc = Hashtbl.create 16 in
  let rows =
    List.map
      (fun t ->
        Gate.settle g;
        let run, untraced = Clock.elapsed (fun () -> run_composed t) in
        Gate.settle g;
        let m, denied, stats = mirror_ticket tracer acc t in
        check
          ?extra:
            (if reproduces run m then None
             else Some "traced pass does not reproduce the workflow")
          t run;
        (untraced, m, denied, stats))
      tickets
  in
  let spans = Tracer.flush tracer in
  let self = self_times spans in
  {
    ops = List.length rows;
    self_s = List.map (fun l -> (l, self l)) ("" :: ticket_layers);
    counts =
      List.map (fun l -> (l, Option.value ~default:zero (Hashtbl.find_opt acc l))) ticket_layers;
    wall_s = root_wall spans;
    untraced_s = sum (fun (u, _, _, _) -> u) rows;
    engine = List.map (fun (_, _, _, s) -> s) rows;
    schedule_steps = sum_int (fun (_, m, _, _) -> m.steps) rows;
    impact_flipped = sum_int (fun (_, m, _, _) -> m.flipped) rows;
    impact_pairs = sum_int (fun (_, m, _, _) -> m.pairs) rows;
    denied = sum_int (fun (_, _, d, _) -> d) rows;
    map_speedup = 0.;
    spans;
  }

let phase_s prefix (s : Engine.stats) =
  sum
    (fun (name, v) ->
      if String.starts_with ~prefix name then v else 0.)
    s.phase_seconds

(* Per round: an untraced and a traced sweep at the timed domain count,
   then a traced cold sweep at 1 domain.  Layer shares come from the
   timed-count sweeps; the speedup is a ratio of medians. *)
let traced_sweeps g tracer tally ~rounds ~reference net policies =
  let domains = Engine.default_domains () in
  let traced_sweep d =
    Gate.settle g;
    let (summaries, stats), wall =
      Clock.elapsed (fun () ->
          Tracer.with_span tracer "sweep" ~attrs:[ ("domains", string_of_int d) ] @@ fun () ->
          ignore
            (Tracer.with_span tracer "metrics.candidates" (fun () ->
                 Metrics.failure_candidates net));
          run_sweep ~domains:d net policies)
    in
    check_sweep tally ~reference summaries;
    (stats, wall, Tracer.flush tracer)
  in
  let rows =
    List.init rounds (fun _ ->
        Gate.settle g;
        let (summaries, _), untraced = Clock.elapsed (fun () -> run_sweep ~domains net policies) in
        check_sweep tally ~reference summaries;
        let stats, wall_n, spans = traced_sweep domains in
        let _, wall_1, _ = traced_sweep 1 in
        (untraced, stats, spans, wall_n, wall_1))
  in
  let spans = List.concat_map (fun (_, _, s, _, _) -> s) rows in
  let stats = List.map (fun (_, s, _, _, _) -> s) rows in
  let self = self_times spans in
  let wall_s = root_wall spans in
  let prepare_s = sum (phase_s "sweep/prepare") stats in
  let evaluate_s = sum (phase_s "sweep/evaluate") stats in
  let median f = (Harness.summarize (List.map f rows)).median in
  {
    ops = rounds;
    self_s =
      [
        ("", self "" -. prepare_s -. evaluate_s);
        ("metrics.candidates", self "metrics.candidates");
        ("engine.phase.prepare", prepare_s);
        ("engine.phase.evaluate", evaluate_s);
      ];
    counts = [];
    wall_s;
    untraced_s = sum (fun (u, _, _, _, _) -> u) rows;
    engine = stats;
    schedule_steps = 0;
    impact_flipped = 0;
    impact_pairs = 0;
    denied = 0;
    map_speedup = median (fun (_, _, _, _, w1) -> w1) /. median (fun (_, _, _, wn, _) -> wn);
    spans;
  }

(* ------------------------------------------------------------------ *)
(* One workload, end to end                                            *)
(* ------------------------------------------------------------------ *)

type timed = {
  latency : Harness.summary;
  tail_s : float;
  throughput_per_s : float;
  peak_rss_mb : float;
}

type result = {
  workload : t;
  distinct : int;
  inputs : string;
  op : string;
  tally : Harness.tally;
  setup_s : float;
  timed : timed option;
  traced : traced option;
}

(* Set-up runs several times and reports the median, so that work moved
   into set-up shows and one slow build does not decide it. *)
let setup_reps = 9
let sweep_rounds = 5

let run ?min_n ~seed ~seconds ~timed ~traced w =
  let tally = Harness.tally () in
  let g = Gate.create () in
  let builds = List.init setup_reps (fun _ -> Gate.measure g (fun () -> w.setup ~seed) ignore) in
  let inputs = fst (List.hd builds) in
  let setup_s = (Harness.summarize (List.map snd builds)).median in
  let min_n = Option.value min_n ~default:(Harness.min_samples w.tail_pct) in
  let tracer = Tracer.create ~cap:max_int () in
  let summarize latencies =
    {
      latency = Harness.summarize latencies;
      tail_s = Harness.percentile latencies w.tail_pct;
      throughput_per_s = float_of_int (List.length latencies) /. sum Fun.id latencies;
      peak_rss_mb =
        float_of_int (Option.value ~default:0 (Fleetgen.peak_rss_kb ())) /. 1024.;
    }
  in
  let distinct, inputs, op, timed, traced =
    match inputs with
    | Tickets tickets ->
        let check = checker tally in
        (* The first ticket in a process is slower (lazy initialisation
           in the runtime and libraries): run one untimed. *)
        let first = List.hd tickets in
        check first (run_composed first);
        let timed =
          if timed then Some (summarize (timed_tickets g ~seconds ~min_n check tickets))
          else None
        in
        let traced =
          if traced then
            Some (traced_tickets g tracer check (List.filteri (fun i _ -> i < w.traced) tickets))
          else None
        in
        let n = List.length tickets in
        (n, Printf.sprintf "%d distinct tickets" n, "tickets", timed, traced)
    | Sweep { net; policies; candidates } ->
        let reference = fst (run_sweep ~domains:1 net policies) in
        let timed =
          if timed then
            Some (summarize (timed_sweeps g ~seconds ~min_n tally ~reference net policies))
          else None
        in
        let traced =
          if traced then
            Some (traced_sweeps g tracer tally ~rounds:sweep_rounds ~reference net policies)
          else None
        in
        (1, Printf.sprintf "one sweep over %d failure candidates" candidates, "sweeps", timed, traced)
  in
  { workload = w; distinct; inputs; op; tally; setup_s; timed; traced }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let ratio a b = if b = 0. then 0. else a /. b

let end_to_end_metrics r =
  match r.timed with
  | None -> []
  | Some t ->
      let values =
        [
          ("latency_p50_s", t.latency.median);
          ("latency_tail_s", t.tail_s);
          ("throughput_per_s", t.throughput_per_s);
          ("setup_s", r.setup_s);
          ("peak_rss_mb", t.peak_rss_mb);
        ]
      in
      List.map
        (fun (m : Harness.metric) -> { name = m.name; value = List.assoc m.name values; unit = m.unit })
        Harness.end_to_end

let per_layer_metrics r =
  match r.traced with
  | None -> []
  | Some tr ->
      let self l = Option.value ~default:0. (List.assoc_opt l tr.self_s) in
      let counts l = Option.value ~default:zero (List.assoc_opt l tr.counts) in
      let count name v = { name; value = float_of_int v; unit = "count" } in
      let share l = { name = l ^ ".share"; value = ratio (self l) tr.wall_s; unit = "ratio" } in
      let total = List.fold_left (fun a s -> combine ( + ) a (counts_of s)) zero tr.engine in
      let engine_sum f = sum_int f tr.engine in
      let hits = engine_sum (fun s -> s.trace_cache_hits + s.trace_coalesced) in
      let schedule = counts "enforcer.schedule" in
      List.concat_map
        (fun l ->
          let c = counts l in
          [
            share l;
            count (l ^ ".traces") c.traces;
            count (l ^ ".dp_full") c.dp_full;
            count (l ^ ".dp_incr") c.dp_incr;
            count (l ^ ".dp_hits") c.dp_hits;
          ])
        ticket_layers
      @ List.map share sweep_layers
      @ [
          {
            name = "enforcer.schedule.useful_ratio";
            value =
              ratio (float_of_int tr.schedule_steps)
                (float_of_int (schedule.dp_full + schedule.dp_incr + schedule.dp_hits));
            unit = "ratio";
          };
          {
            name = "enforcer.impact.useful_ratio";
            value = ratio (float_of_int tr.impact_flipped) (float_of_int tr.impact_pairs);
            unit = "ratio";
          };
          count "twin.session.denied" tr.denied;
          { name = "trace.wall_s"; value = tr.wall_s; unit = "s" };
          { name = "trace.unattributed_s"; value = self ""; unit = "s" };
          { name = "trace.coverage"; value = ratio tr.wall_s tr.untraced_s; unit = "ratio" };
          count "engine.traces" total.traces;
          {
            name = "engine.trace_hit_rate";
            value = ratio (float_of_int hits) (float_of_int (hits + total.traces));
            unit = "ratio";
          };
          count "engine.trace_coalesced" (engine_sum (fun s -> s.trace_coalesced));
          count "engine.dp_full" total.dp_full;
          count "engine.dp_incr" total.dp_incr;
          count "engine.dp_hits" total.dp_hits;
          { name = "engine.map.speedup"; value = tr.map_speedup; unit = "ratio" };
        ]
