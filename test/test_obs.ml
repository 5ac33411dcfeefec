(* Tests for Heimdall_obs: clock clamping, sinks, the span tracer
   (nesting, domain safety, JSONL round-trips), the metrics registry,
   the event log — and the two system-level invariants the rest of the
   tree relies on: instrumentation never changes computed values, and
   the audit trail's obs.trace record joins against the emitted spans. *)

open Heimdall_obs
module Json = Heimdall_json.Json
module Experiments = Heimdall_scenarios.Experiments

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------------- clock ---------------- *)

let test_clock () =
  checkb "clamp negative" true (Clock.clamp (-3.0) = 0.0);
  checkb "clamp positive" true (Clock.clamp 1.5 = 1.5);
  let v, dt = Clock.elapsed (fun () -> 42) in
  checki "elapsed value" 42 v;
  checkb "elapsed non-negative" true (dt >= 0.0)

(* ---------------- sinks ---------------- *)

let test_sinks () =
  let sink, lines = Sink.memory () in
  Sink.write sink "one";
  Sink.write sink "two";
  checkb "memory order" true (lines () = [ "one"; "two" ]);
  Sink.close sink;
  Sink.close sink;
  (* idempotent *)
  Sink.write Sink.null "dropped";
  let path = Filename.temp_file "heimdall_obs" ".jsonl" in
  let fsink = Sink.file path in
  Sink.write fsink "a";
  Sink.write fsink "b";
  Sink.close fsink;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  checks "file contents" "a\nb\n" text

(* ---------------- tracer ---------------- *)

let test_tracer_nesting () =
  let t = Tracer.create () in
  let v =
    Tracer.with_span t "outer" ~attrs:[ ("k", "v") ] (fun () ->
        Tracer.add_attr t "added" "yes";
        Tracer.with_span t "inner" (fun () -> 7) + 1)
  in
  checki "value" 8 v;
  let spans = Tracer.flush t in
  checki "two spans" 2 (List.length spans);
  let outer = List.find (fun (s : Tracer.span) -> s.name = "outer") spans in
  let inner = List.find (fun (s : Tracer.span) -> s.name = "inner") spans in
  checkb "outer is root" true (outer.parent = None);
  checkb "inner child of outer" true (inner.parent = Some outer.id);
  checkb "ids unique" true (outer.id <> inner.id);
  checkb "attrs kept" true (List.mem_assoc "k" outer.attrs);
  checkb "added attr kept" true (List.assoc "added" outer.attrs = "yes");
  checkb "durations clamped" true
    (List.for_all (fun (s : Tracer.span) -> s.duration_s >= 0.0) spans);
  checki "flush clears" 0 (List.length (Tracer.flush t))

let test_tracer_current_root () =
  let t = Tracer.create () in
  checkb "no current" true (Tracer.current t = None);
  Tracer.with_span t "a" (fun () ->
      let a = Tracer.current t in
      Tracer.with_span t "b" (fun () ->
          checkb "current is inner" true (Tracer.current t <> a);
          checkb "root is outer" true (Tracer.root t = a)))

let test_tracer_exception_safety () =
  let t = Tracer.create () in
  (try Tracer.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  let spans = Tracer.flush t in
  checki "span recorded on raise" 1 (List.length spans);
  checkb "stack popped" true (Tracer.current t = None)

let test_tracer_domains () =
  let t = Tracer.create () in
  Tracer.with_span t "parent" (fun () ->
      let parent = Option.get (Tracer.current t) in
      let workers =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                Tracer.with_span t ~parent
                  (Printf.sprintf "worker-%d" i)
                  (fun () -> i)))
      in
      List.iter (fun d -> ignore (Domain.join d)) workers);
  let spans = Tracer.flush t in
  checki "all spans collected" 5 (List.length spans);
  let ids = List.map (fun (s : Tracer.span) -> s.id) spans in
  checki "ids unique across domains" 5 (List.length (List.sort_uniq compare ids));
  checkb "sorted by id" true (List.sort compare ids = ids);
  let parent = List.find (fun (s : Tracer.span) -> s.name = "parent") spans in
  checki "workers attached to parent" 4
    (List.length
       (List.filter (fun (s : Tracer.span) -> s.parent = Some parent.id) spans))

let test_span_json_roundtrip () =
  let t = Tracer.create () in
  Tracer.with_span t "outer" ~attrs:[ ("x", "1") ] (fun () ->
      Tracer.with_span t "inner" (fun () -> ()));
  let spans = Tracer.flush t in
  List.iter
    (fun s ->
      checkb "roundtrip" true (Tracer.span_of_json (Tracer.span_to_json s) = Some s))
    spans;
  let sink, lines = Sink.memory () in
  Tracer.emit sink spans;
  checki "one line per span" (List.length spans) (List.length (lines ()));
  List.iter
    (fun line ->
      checkb "line parses" true
        (match Json.of_string_opt line with
        | Some j -> Tracer.span_of_json j <> None
        | None -> false))
    (lines ())

let test_render_tree () =
  let t = Tracer.create () in
  Tracer.with_span t "root" (fun () -> Tracer.with_span t "leaf" (fun () -> ()));
  let out = Tracer.render_tree (Tracer.flush t) in
  checkb "root unindented" true
    (String.length out >= 4 && String.sub out 0 4 = "root");
  checkb "leaf indented" true
    (List.exists
       (fun l -> String.length l > 2 && String.sub l 0 2 = "  ")
       (String.split_on_char '\n' out))

(* ---------------- metrics ---------------- *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  checki "counter" 5 (Metrics.counter_value m "c");
  checki "unknown counter" 0 (Metrics.counter_value m "missing");
  Metrics.set_gauge m "g" 2.5;
  checkb "gauge" true (Metrics.gauge_value m "g" = Some 2.5);
  checkb "unknown gauge" true (Metrics.gauge_value m "missing" = None);
  Metrics.incr m "a";
  checkb "counters sorted" true (List.map fst (Metrics.counters m) = [ "a"; "c" ])

let test_metrics_histogram () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "h") [ 0.001; 0.001; 0.001; 0.002; 1.0 ];
  Metrics.observe m "h" (-5.0);
  (* clamped to 0 *)
  match Metrics.histogram_summary m "h" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
      checki "count" 6 s.Metrics.count;
      checkb "max exact" true (s.Metrics.max = 1.0);
      checkb "p50 near 1ms" true (s.Metrics.p50 >= 0.001 && s.Metrics.p50 <= 0.003);
      checkb "p95 >= p50" true (s.Metrics.p95 >= s.Metrics.p50);
      checkb "sum clamps negatives" true (s.Metrics.sum >= 1.004)

let test_metrics_render () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "engine.trace.cache_hit";
  Metrics.set_gauge m "engine.domains_used" 4.0;
  Metrics.observe m "phase:verify/s" 0.25;
  let text = Metrics.to_prometheus m in
  let contains sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  checkb "counter line" true (contains "engine_trace_cache_hit 3" text);
  checkb "gauge line" true (contains "engine_domains_used 4" text);
  checkb "name sanitised" true (contains "phase:verify_s" text);
  checkb "quantile series" true (contains "quantile=\"0.95\"" text);
  (* Deterministic rendering: a second registry fed the same updates
     renders byte-identically. *)
  let m' = Metrics.create () in
  Metrics.incr m' ~by:3 "engine.trace.cache_hit";
  Metrics.set_gauge m' "engine.domains_used" 4.0;
  Metrics.observe m' "phase:verify/s" 0.25;
  checks "prometheus deterministic" text (Metrics.to_prometheus m');
  checkb "json deterministic" true (Json.equal (Metrics.to_json m) (Metrics.to_json m'));
  match Metrics.to_json m with
  | Json.Obj fields ->
      checkb "json sections" true
        (List.map fst fields = [ "counters"; "gauges"; "histograms" ])
  | _ -> Alcotest.fail "metrics json not an object"

(* ---------------- events ---------------- *)

let test_events () =
  let e = Events.create () in
  Events.record e "policy.verdict" ~attrs:[ ("accepted", "true") ];
  Events.record e "lint.delta";
  checki "length" 2 (Events.length e);
  let evs = Events.events e in
  checkb "seq ascending" true
    (List.map (fun (ev : Events.event) -> ev.seq) evs = [ 1; 2 ]);
  checks "kind kept" "policy.verdict" (List.hd evs).Events.kind;
  let sink, lines = Sink.memory () in
  Events.emit sink evs;
  checki "one line per event" 2 (List.length (lines ()));
  checkb "lines parse" true
    (List.for_all (fun l -> Json.of_string_opt l <> None) (lines ()))

(* ---------------- obs context: no-op when absent ---------------- *)

let test_obs_option_helpers () =
  (* All helpers must be inert on None — this is what lets every call
     site instrument unconditionally. *)
  checki "span none" 3 (Obs.span None "x" (fun () -> 3));
  Obs.add_attr None "k" "v";
  Obs.incr None "c";
  Obs.set_gauge None "g" 1.0;
  Obs.observe None "h" 1.0;
  Obs.event None "e";
  checkb "current none" true (Obs.current None = None);
  checkb "root none" true (Obs.root None = None);
  let o = Obs.create () in
  let some = Some o in
  Obs.span some "outer" (fun () ->
      Obs.incr some "c";
      checkb "root set" true (Obs.root some <> None));
  checki "counter through context" 1 (Metrics.counter_value o.Obs.metrics "c");
  checki "span recorded" 1 (List.length (Tracer.flush o.Obs.tracer))

(* ---------------- engine stats reset (satellite) ---------------- *)

let test_engine_reset_stats () =
  let open Heimdall_verify in
  let net, policies = Experiments.enterprise () in
  let engine = Engine.create ~domains:2 () in
  (* min_per_domain:1 defeats the sequential cutoff so the pool engages
     even on this small policy list. *)
  ignore (Engine.map ~min_per_domain:1 engine (fun p -> p) policies);
  ignore (Engine.phase engine "warm" (fun () -> ignore (Engine.dataplane engine net)));
  ignore (Policy.check_all ~engine (Engine.dataplane engine net) policies);
  let s = Engine.stats engine in
  checkb "phases populated" true (s.Engine.phase_seconds <> []);
  checkb "domains used" true (s.Engine.domains_used > 1);
  checkb "dataplane counted" true (s.Engine.dataplanes_built > 0);
  Engine.reset_stats engine;
  let s = Engine.stats engine in
  checki "traces cleared" 0 s.Engine.traces_run;
  checki "dataplanes cleared" 0 s.Engine.dataplanes_built;
  checki "dp hits cleared" 0 s.Engine.dataplane_cache_hits;
  checki "domains reset" 1 s.Engine.domains_used;
  checkb "phase buckets cleared" true (s.Engine.phase_seconds = [])

(* ---------------- determinism: obs never changes results ---------------- *)

let issue_of net name =
  List.find
    (fun (i : Heimdall_msp.Issue.t) -> i.Heimdall_msp.Issue.name = name)
    (Heimdall_scenarios.Enterprise.issues net)

(* Everything the enforcer decides, rendered without the audit trail
   (the trail legitimately gains the obs.trace correlation record when
   observability is on). *)
let decision_fingerprint (run : Heimdall_msp.Workflow.run) =
  let o = Option.get run.Heimdall_msp.Workflow.outcome in
  let open Heimdall_enforcer.Enforcer in
  String.concat "|"
    [
      string_of_bool o.approved;
      String.concat ";" (List.map Heimdall_enforcer.Verifier.rejection_to_string o.rejections);
      (match o.plan with
      | Some p -> Heimdall_enforcer.Scheduler.plan_to_string p
      | None -> "-");
      (match o.impact with
      | Some i -> Heimdall_verify.Reachability.impact_to_string i
      | None -> "-");
      String.concat ";"
        (List.map Heimdall_lint.Diagnostic.to_string o.lint_findings);
      string_of_bool run.Heimdall_msp.Workflow.resolved;
      string_of_int run.Heimdall_msp.Workflow.denied;
    ]

let run_with ?obs ~domains net policies issue =
  let engine = Heimdall_verify.Engine.create ~domains ?obs () in
  Heimdall_msp.Workflow.run_heimdall ~engine ~production:net ~policies ~issue ()

let test_determinism () =
  let net, policies = Experiments.enterprise () in
  let issue = issue_of net "vlan" in
  let plain = decision_fingerprint (run_with ~domains:1 net policies issue) in
  let traced =
    decision_fingerprint (run_with ~obs:(Obs.create ()) ~domains:1 net policies issue)
  in
  checks "obs on = obs off" plain traced;
  let many = decision_fingerprint (run_with ~obs:(Obs.create ()) ~domains:4 net policies issue) in
  checks "4 domains = 1 domain" plain many

(* ---------------- audit <-> span correlation ---------------- *)

let test_audit_span_correlation () =
  let net, policies = Experiments.enterprise () in
  let issue = issue_of net "vlan" in
  let obs = Obs.create () in
  let run = run_with ~obs ~domains:2 net policies issue in
  let outcome = Option.get run.Heimdall_msp.Workflow.outcome in
  let audit = outcome.Heimdall_enforcer.Enforcer.audit in
  checkb "audit verifies" true (Heimdall_enforcer.Audit.verify audit = Ok ());
  let trace_rec =
    List.find_opt
      (fun (r : Heimdall_enforcer.Audit.record) -> r.action = "obs.trace")
      (Heimdall_enforcer.Audit.records audit)
  in
  match trace_rec with
  | None -> Alcotest.fail "no obs.trace record in audit trail"
  | Some r ->
      let root_id =
        Scanf.sscanf r.detail "root-span-id=%d" (fun n -> n)
      in
      let spans = Tracer.flush obs.Obs.tracer in
      (* Every parent must exist in the flushed list... *)
      let ids = List.map (fun (s : Tracer.span) -> s.id) spans in
      checkb "every parent exists" true
        (List.for_all
           (fun (s : Tracer.span) ->
             match s.parent with None -> true | Some p -> List.mem p ids)
           spans);
      (* ...and the recorded root must be the session root span. *)
      (match List.find_opt (fun (s : Tracer.span) -> s.id = root_id) spans with
      | None -> Alcotest.fail "audited root span not emitted"
      | Some s ->
          checks "root is the session span" "session" s.Tracer.name;
          checkb "root has no parent" true (s.Tracer.parent = None));
      (* Denials and commands flowed into the metrics registry. *)
      checkb "session.commands counted" true
        (Metrics.counter_value obs.Obs.metrics "session.commands" > 0);
      (* And the engine cache metrics registered. *)
      checkb "engine cache metrics present" true
        (Metrics.counter_value obs.Obs.metrics "engine.dataplane.built" > 0
        || Metrics.counter_value obs.Obs.metrics "engine.dataplane.cache_hit" > 0)

let test_denial_events () =
  let net, _ = Experiments.enterprise () in
  let issue = issue_of net "vlan" in
  let broken = issue.Heimdall_msp.Issue.inject net in
  let endpoints = issue.Heimdall_msp.Issue.ticket.Heimdall_msp.Ticket.endpoints in
  let obs = Obs.create () in
  let em = Heimdall_twin.Twin.build ~obs ~production:broken ~endpoints () in
  let slice = Heimdall_twin.Twin.slice_nodes ~production:broken ~endpoints () in
  let privilege =
    Heimdall_msp.Priv_gen.for_ticket ~network:broken ~slice
      issue.Heimdall_msp.Issue.ticket
  in
  let session = Heimdall_twin.Twin.open_session ~obs ~privilege em in
  (* An action the least-privilege spec denies. *)
  (match Heimdall_twin.Session.exec session ("connect " ^ List.hd slice) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "connect failed: %s" (Heimdall_twin.Session.error_to_string e));
  (match Heimdall_twin.Session.exec session "erase startup-config" with
  | Ok _ -> Alcotest.fail "erase should be denied"
  | Error _ -> ());
  let denied =
    List.filter
      (fun (e : Events.event) -> e.kind = "privilege.denied")
      (Events.events obs.Obs.events)
  in
  checki "one denial event" 1 (List.length denied);
  let attrs = (List.hd denied).Events.attrs in
  checkb "action attr" true (List.mem_assoc "action" attrs);
  checkb "node attr" true (List.mem_assoc "node" attrs);
  checki "denied counter" 1 (Metrics.counter_value obs.Obs.metrics "session.denied")

let suite =
  [
    ("clock", `Quick, test_clock);
    ("sinks", `Quick, test_sinks);
    ("tracer nesting", `Quick, test_tracer_nesting);
    ("tracer current/root", `Quick, test_tracer_current_root);
    ("tracer exception safety", `Quick, test_tracer_exception_safety);
    ("tracer domain safety", `Quick, test_tracer_domains);
    ("span json roundtrip", `Quick, test_span_json_roundtrip);
    ("render tree", `Quick, test_render_tree);
    ("metrics counters/gauges", `Quick, test_metrics_counters_gauges);
    ("metrics histogram", `Quick, test_metrics_histogram);
    ("metrics rendering", `Quick, test_metrics_render);
    ("events", `Quick, test_events);
    ("obs option helpers", `Quick, test_obs_option_helpers);
    ("engine reset_stats", `Quick, test_engine_reset_stats);
    ("determinism under obs", `Quick, test_determinism);
    ("audit/span correlation", `Quick, test_audit_span_correlation);
    ("privilege denial events", `Quick, test_denial_events);
  ]
