(* Tests for the Watchtower: labeled metrics and Prometheus exposition
   correctness, the bounded event/span buffers, the HTTP exporter (all
   endpoints, error paths, concurrent scrapes, port collisions), the
   runtime sampler, and the continuous drift monitor — including its
   composition with the chaos injector and the tier-1 invariant that
   monitoring never changes workflow verdicts. *)

open Heimdall_obs
module Json = Heimdall_json.Json
module Experiments = Heimdall_scenarios.Experiments
module Network = Heimdall_control.Network
module Monitor = Heimdall_msp.Monitor

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* ---------------- labeled metrics ---------------- *)

let test_labeled_series () =
  let m = Metrics.create () in
  Metrics.incr m "policy.checked" ~labels:[ ("verdict", "holds") ] ~by:3;
  Metrics.incr m "policy.checked" ~labels:[ ("verdict", "violated") ];
  (* Label order must not matter: same canonical series. *)
  Metrics.incr m "rpc" ~labels:[ ("a", "1"); ("b", "2") ];
  Metrics.incr m "rpc" ~labels:[ ("b", "2"); ("a", "1") ];
  checki "exact series" 3
    (Metrics.counter_value m ~labels:[ ("verdict", "holds") ] "policy.checked");
  checki "other series" 1
    (Metrics.counter_value m ~labels:[ ("verdict", "violated") ] "policy.checked");
  (* Unlabeled read = sum over the family. *)
  checki "family sum" 4 (Metrics.counter_value m "policy.checked");
  checki "canonical labels merge" 2
    (Metrics.counter_value m ~labels:[ ("a", "1"); ("b", "2") ] "rpc");
  checki "absent series" 0
    (Metrics.counter_value m ~labels:[ ("verdict", "nope") ] "policy.checked")

let test_scoped_view () =
  let o = Obs.create () in
  let scoped = Obs.scoped o [ ("scenario", "enterprise") ] in
  let deeper = Obs.scoped scoped [ ("session", "vlan") ] in
  Obs.incr (Some deeper) "session.commands";
  Obs.incr (Some scoped) "session.commands";
  (* All views share one registry; the base labels only stamp writes. *)
  checki "shared registry sum" 2 (Metrics.counter_value o.Obs.metrics "session.commands");
  checki "deep series" 1
    (Metrics.counter_value o.Obs.metrics
       ~labels:[ ("scenario", "enterprise"); ("session", "vlan") ]
       "session.commands");
  (* An explicit label overrides the base label with the same key. *)
  Obs.incr (Some scoped) "session.commands" ~labels:[ ("scenario", "override") ];
  checki "override wins" 1
    (Metrics.counter_value o.Obs.metrics ~labels:[ ("scenario", "override") ]
       "session.commands")

let test_prometheus_exposition () =
  let m = Metrics.create () in
  Metrics.incr m "9weird.name" ~labels:[ ("bad label", "va\"l\\ue\nx") ];
  Metrics.set_gauge m "drift.active" 1.0;
  Metrics.observe m "engine.phase_s" ~labels:[ ("phase", "verify") ] 0.5;
  Metrics.set_help m "drift.active" "1 while the observed network diverges";
  let text = Metrics.to_prometheus m in
  (* Names sanitised to [a-zA-Z_:][a-zA-Z0-9_:]*. *)
  checkb "leading digit prefixed" true (contains text "_9weird_name");
  checkb "label name sanitised" true (contains text "bad_label=");
  (* Label values escaped: backslash, quote, newline. *)
  checkb "escaped value" true (contains text {|va\"l\\ue\nx|});
  checkb "help text" true
    (contains text "# HELP drift_active 1 while the observed network diverges");
  checkb "type line" true (contains text "# TYPE drift_active gauge");
  checkb "histogram quantile" true
    (contains text "engine_phase_s{phase=\"verify\",quantile=\"0.5\"}");
  checkb "histogram count" true (contains text "engine_phase_s_count{phase=\"verify\"} 1");
  (* HELP/TYPE once per family even with several series. *)
  Metrics.incr m "fam" ~labels:[ ("k", "a") ];
  Metrics.incr m "fam" ~labels:[ ("k", "b") ];
  let text = Metrics.to_prometheus m in
  let count_sub sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length text then acc
      else go (i + 1) (if String.sub text i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  checki "one TYPE line for fam" 1 (count_sub "# TYPE fam counter");
  (* Deterministic rendering: a second registry fed the same updates
     renders byte-identically. *)
  let m2 = Metrics.create () in
  Metrics.incr m2 "fam" ~labels:[ ("k", "b") ];
  Metrics.incr m2 "fam" ~labels:[ ("k", "a") ];
  let fam_only t =
    String.concat "\n"
      (List.filter (fun l -> contains l "fam") (String.split_on_char '\n' t))
  in
  checks "deterministic series order" (fam_only (Metrics.to_prometheus m))
    (fam_only (Metrics.to_prometheus m2))

(* ---------------- bounded buffers ---------------- *)

let test_event_ring_cap () =
  let e = Events.create ~cap:4 () in
  for i = 1 to 10 do
    Events.record e ("k" ^ string_of_int i)
  done;
  checki "total length" 10 (Events.length e);
  checki "dropped" 6 (Events.dropped e);
  let retained = Events.events e in
  checki "retained = cap" 4 (List.length retained);
  checks "oldest retained" "k7" (List.hd retained).Events.kind;
  checki "seq keeps growing" 10
    (List.nth retained 3).Events.seq

let test_tracer_cap () =
  let t = Tracer.create ~cap:8 () in
  for i = 1 to 50 do
    Tracer.with_span t ("s" ^ string_of_int i) (fun () -> ())
  done;
  checkb "dropped some" true (Tracer.dropped t > 0);
  let retained = Tracer.recent t in
  checkb "bounded" true (List.length retained <= 16);
  checkb "newest kept" true
    (List.exists (fun (s : Tracer.span) -> s.name = "s50") retained);
  (* recent is non-destructive: flush still returns them. *)
  checki "flush sees the same" (List.length retained) (List.length (Tracer.flush t));
  checki "flush drained" 0 (List.length (Tracer.recent t))

(* ---------------- exporter ---------------- *)

let with_exporter ?health obs f =
  match Exporter.create ?health ~port:0 obs with
  | Error m -> Alcotest.failf "exporter create: %s" m
  | Ok ex ->
      Exporter.start ex;
      Fun.protect ~finally:(fun () -> Exporter.stop ex) (fun () -> f ex)

let test_exporter_endpoints () =
  let obs = Obs.create () in
  Obs.incr (Some obs) "policy.checked" ~labels:[ ("verdict", "holds") ] ~by:7;
  Obs.event (Some obs) "drift.detected" ~attrs:[ ("devices", "r1") ];
  Obs.span (Some obs) "session" (fun () -> ());
  with_exporter obs (fun ex ->
      let port = Exporter.port ex in
      (match Exporter.get ~port "/metrics" with
      | Ok (200, body) ->
          checkb "series present" true (contains body "policy_checked{verdict=\"holds\"} 7");
          checkb "self counter" true (contains body "exporter_requests")
      | Ok (code, _) -> Alcotest.failf "/metrics -> %d" code
      | Error m -> Alcotest.fail m);
      (match Exporter.get ~port "/metrics.json" with
      | Ok (200, body) ->
          let json = Json.of_string body in
          checkb "json has counters" true (Json.member "counters" json <> None)
      | _ -> Alcotest.fail "/metrics.json");
      (match Exporter.get ~port "/healthz" with
      | Ok (200, body) -> checkb "status ok" true (contains body "\"ok\"")
      | _ -> Alcotest.fail "/healthz");
      (match Exporter.get ~port "/spans" with
      | Ok (200, body) -> checkb "span tree" true (contains body "session")
      | _ -> Alcotest.fail "/spans");
      (match Exporter.get ~port "/events" with
      | Ok (200, body) ->
          let json = Json.of_string body in
          checkb "events listed" true (Json.member "events" json <> None);
          checkb "dropped field" true (Json.member "dropped" json <> None)
      | _ -> Alcotest.fail "/events");
      match Exporter.get ~port "/nope" with
      | Ok (404, _) -> ()
      | _ -> Alcotest.fail "unknown path should 404")

let test_exporter_unhealthy () =
  let obs = Obs.create () in
  let health () = (false, [ ("reason", Json.String "drift monitor dead") ]) in
  with_exporter ~health obs (fun ex ->
      match Exporter.get ~port:(Exporter.port ex) "/healthz" with
      | Ok (503, body) -> checkb "unhealthy body" true (contains body "unhealthy")
      | Ok (code, _) -> Alcotest.failf "expected 503, got %d" code
      | Error m -> Alcotest.fail m)

(* Raw-socket requests for the malformed / non-GET paths the client
   helper can't produce. *)
let raw_request port payload =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring sock payload 0 (String.length payload));
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read sock chunk 0 1024 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents buf)

let test_exporter_malformed () =
  let obs = Obs.create () in
  with_exporter obs (fun ex ->
      let port = Exporter.port ex in
      checkb "garbage -> 400" true
        (contains (raw_request port "not an http request\r\n\r\n") "400");
      checkb "post -> 405" true
        (contains (raw_request port "POST /metrics HTTP/1.1\r\n\r\n") "405"))

(* Regression: a client that connects and sends nothing must not wedge
   the one-at-a-time accept loop.  The read deadline drops it, so
   /healthz still answers and [stop] returns instead of hanging in the
   join.  Every wait here is bounded, so a regression fails rather than
   hangs. *)
let test_exporter_silent_client () =
  let obs = Obs.create () in
  match Exporter.create ~port:0 obs with
  | Error m -> Alcotest.fail m
  | Ok ex ->
      Exporter.start ex;
      let port = Exporter.port ex in
      let connect ?timeout () =
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Option.iter (Unix.setsockopt_float sock Unix.SO_RCVTIMEO) timeout;
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        sock
      in
      let close sock = try Unix.close sock with Unix.Unix_error _ -> () in
      let silent = connect () in
      let probe = connect ~timeout:5.0 () in
      let request = "GET /healthz HTTP/1.1\r\n\r\n" in
      ignore (Unix.write_substring probe request 0 (String.length request));
      let reply = Bytes.create 1024 in
      let n =
        try Unix.read probe reply 0 (Bytes.length reply) with Unix.Unix_error _ -> 0
      in
      close probe;
      checkb "/healthz answers behind a silent client" true
        (contains (Bytes.sub_string reply 0 n) "200");
      (* A second silent client is being read when stop is called. *)
      let silent' = connect () in
      Thread.delay 0.05;
      let stopped = Atomic.make false in
      let stopper = Thread.create (fun () -> Exporter.stop ex; Atomic.set stopped true) () in
      let rec wait i =
        if Atomic.get stopped || i = 0 then Atomic.get stopped
        else (Thread.delay 0.05; wait (i - 1))
      in
      let returned = wait 100 in
      checkb "stop returns" true returned;
      if returned then Thread.join stopper;
      close silent;
      close silent'

let test_exporter_port_in_use () =
  let obs = Obs.create () in
  match Exporter.create ~port:0 obs with
  | Error m -> Alcotest.fail m
  | Ok first ->
      Fun.protect
        ~finally:(fun () -> Exporter.stop first)
        (fun () ->
          match Exporter.create ~port:(Exporter.port first) obs with
          | Error m -> checkb "mentions bind" true (contains m "bind")
          | Ok second ->
              Exporter.stop second;
              Alcotest.fail "second bind on the same port should fail")

let test_exporter_concurrent_scrapes () =
  let obs = Obs.create () in
  Obs.incr (Some obs) "policy.checked" ~by:5;
  with_exporter obs (fun ex ->
      let port = Exporter.port ex in
      let scrape () =
        let oks = ref 0 in
        for _ = 1 to 10 do
          match Exporter.get ~port "/metrics" with
          | Ok (200, body) when contains body "policy_checked" -> incr oks
          | _ -> ()
        done;
        !oks
      in
      let workers = List.init 4 (fun _ -> Domain.spawn scrape) in
      let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 workers in
      checki "all concurrent scrapes served" 40 total)

(* ---------------- runtime sampler ---------------- *)

let test_runtime_sampler () =
  let obs = Obs.create ~event_cap:2 () in
  Obs.event (Some obs) "a";
  Obs.event (Some obs) "b";
  Obs.event (Some obs) "c";
  let rt = Runtime.create obs in
  Runtime.add_sampler rt (fun () -> [ ("custom.answer", 42.0) ]);
  Runtime.sample rt;
  let gauge name = Metrics.gauge_value obs.Obs.metrics name in
  checkb "gc heap gauge" true (match gauge "runtime.gc.heap_words" with
    | Some v -> v > 0.0
    | None -> false);
  checkb "event drop gauge" true (gauge "obs.events.dropped" = Some 1.0);
  checkb "custom sampler" true (gauge "custom.answer" = Some 42.0);
  (* A sampler that raises is skipped, not fatal. *)
  Runtime.add_sampler rt (fun () -> failwith "boom");
  Runtime.sample rt;
  checkb "still sampling after bad sampler" true (gauge "custom.answer" = Some 42.0)

let test_engine_runtime_sampler () =
  let open Heimdall_verify in
  let sc = Result.get_ok (Experiments.scenario_of_name "enterprise") in
  let engine = Engine.create ~domains:1 () in
  let dp = Engine.dataplane engine sc.Experiments.net in
  ignore (Engine.dataplane engine sc.Experiments.net);
  ignore (Policy.check_all ~engine dp sc.Experiments.policies);
  let gauges = Engine.runtime_sampler engine () in
  Engine.shutdown engine;
  let v name = List.assoc_opt name gauges in
  checkb "domains gauge" true (v "engine.domains" = Some 1.0);
  checkb "dataplane hit rate positive" true
    (match v "engine.dataplane.cache_hit_rate" with
    | Some r -> r > 0.0 && r <= 1.0
    | None -> false)

(* ---------------- drift monitor ---------------- *)

let test_monitor_detect_clear () =
  let open Heimdall_verify in
  let sc = Result.get_ok (Experiments.scenario_of_name "enterprise") in
  let issue = List.hd sc.Experiments.issues in
  let obs = Obs.create () in
  let engine = Engine.create ~domains:1 ~obs () in
  let observed = ref sc.Experiments.net in
  let monitor =
    Monitor.create ~engine ~expected:sc.Experiments.net
      ~observe:(fun () -> !observed)
      sc.Experiments.policies
  in
  checks "baseline clean" "clean" (Monitor.check monitor);
  observed := issue.Heimdall_msp.Issue.inject sc.Experiments.net;
  checks "drift edge" "detected" (Monitor.check monitor);
  checks "still drifted" "drift" (Monitor.check monitor);
  observed := sc.Experiments.net;
  checks "clear edge" "clear" (Monitor.check monitor);
  checks "clean again" "clean" (Monitor.check monitor);
  Engine.shutdown engine;
  let s = Monitor.status monitor in
  checki "cycles" 5 s.Monitor.cycles;
  checkb "no longer active" true (not s.Monitor.drift_active);
  checki "one detection" 1 s.Monitor.detections;
  checki "one clear" 1 s.Monitor.clears;
  (* Events: exactly one detected and one clear, edge-triggered. *)
  let kinds =
    List.map (fun (e : Events.event) -> e.Events.kind) (Events.events obs.Obs.events)
  in
  checki "one detected event" 1
    (List.length (List.filter (( = ) "drift.detected") kinds));
  checki "one clear event" 1 (List.length (List.filter (( = ) "drift.clear") kinds));
  (* Metrics: per-result counters and the final gauge state. *)
  let counter r =
    Metrics.counter_value obs.Obs.metrics ~labels:[ ("result", r) ] "drift.checks"
  in
  checki "clean checks" 2 (counter "clean");
  checki "detected checks" 1 (counter "detected");
  checki "drift checks" 1 (counter "drift");
  checki "clear checks" 1 (counter "clear");
  checkb "gauge cleared" true
    (Metrics.gauge_value obs.Obs.metrics "drift.active" = Some 0.0);
  (* The audit chain has both transitions and verifies end to end. *)
  let audit = Monitor.audit monitor in
  checkb "audit verifies" true (Heimdall_enforcer.Audit.verify audit = Ok ());
  let verdicts =
    List.map
      (fun (r : Heimdall_enforcer.Audit.record) -> r.Heimdall_enforcer.Audit.verdict)
      (Heimdall_enforcer.Audit.records audit)
  in
  checkb "detected audited" true (List.mem "detected" verdicts);
  checkb "clear audited" true (List.mem "clear" verdicts);
  (* /healthz thunk: healthy, reporting the status fields. *)
  let ok, fields = Monitor.health monitor () in
  checkb "healthy" true ok;
  checkb "cycles reported" true
    (List.assoc_opt "drift_cycles" fields = Some (Json.Int 5))

let test_monitor_with_injector () =
  let sc = Result.get_ok (Experiments.scenario_of_name "enterprise") in
  let node =
    (* A non-host infrastructure device whose crash degrades the net. *)
    List.find
      (fun n ->
        Network.kind n sc.Experiments.net = Some Heimdall_net.Topology.Router)
      (Network.node_names sc.Experiments.net)
  in
  let inj =
    Heimdall_faults.Injector.create
      [
        {
          Heimdall_faults.Fault.kind = Heimdall_faults.Fault.Device_crash node;
          stage = Heimdall_faults.Fault.Apply;
          at = 2;
          duration = 1;
        };
      ]
  in
  let monitor =
    Monitor.create ~engine ~injector:inj ~expected:sc.Experiments.net
      ~observe:(fun () -> sc.Experiments.net)
      []
  in
  checks "cycle 1 clean" "clean" (Monitor.check monitor);
  checks "cycle 2 fault fires" "detected" (Monitor.check monitor);
  checks "cycle 3 fault expired" "clear" (Monitor.check monitor);
  checki "occurrence recorded" 1
    (List.length (Heimdall_faults.Injector.occurrences inj))

let test_monitor_accept () =
  let sc = Result.get_ok (Experiments.scenario_of_name "enterprise") in
  let issue = List.hd sc.Experiments.issues in
  let drifted = issue.Heimdall_msp.Issue.inject sc.Experiments.net in
  let monitor =
    Monitor.create ~engine ~expected:sc.Experiments.net ~observe:(fun () -> drifted) []
  in
  checks "drift" "detected" (Monitor.check monitor);
  Monitor.accept monitor;
  checks "accepted baseline is clean" "clean" (Monitor.check monitor);
  let verdicts =
    List.map
      (fun (r : Heimdall_enforcer.Audit.record) -> r.Heimdall_enforcer.Audit.verdict)
      (Heimdall_enforcer.Audit.records (Monitor.audit monitor))
  in
  checkb "accept audited" true (List.mem "accepted" verdicts)

(* Tier-1 invariant: a workflow run with the monitor checking away on the
   same engine produces byte-identical verdicts to one without. *)
let test_monitor_determinism () =
  let open Heimdall_verify in
  let sc = Result.get_ok (Experiments.scenario_of_name "enterprise") in
  let issue = List.hd sc.Experiments.issues in
  let fingerprint ~monitored () =
    let engine = Engine.create ~domains:1 () in
    let monitor =
      if monitored then
        Some
          (Monitor.create ~engine ~expected:sc.Experiments.net
             ~observe:(fun () -> sc.Experiments.net)
             sc.Experiments.policies)
      else None
    in
    Option.iter (fun m -> ignore (Monitor.check m)) monitor;
    let run =
      Heimdall_msp.Workflow.run_heimdall ~engine ~production:sc.Experiments.net
        ~policies:sc.Experiments.policies ~issue ()
    in
    Option.iter (fun m -> ignore (Monitor.check m)) monitor;
    Engine.shutdown engine;
    ( run.Heimdall_msp.Workflow.resolved,
      run.Heimdall_msp.Workflow.denied,
      Network.digest run.Heimdall_msp.Workflow.final_network,
      (match run.Heimdall_msp.Workflow.outcome with
      | Some o -> Heimdall_enforcer.Audit.head o.Heimdall_enforcer.Enforcer.audit
      | None -> "-") )
  in
  checkb "monitor on/off byte-identical" true
    (fingerprint ~monitored:false () = fingerprint ~monitored:true ())

let suite =
  [
    ("labeled series", `Quick, test_labeled_series);
    ("scoped views", `Quick, test_scoped_view);
    ("prometheus exposition", `Quick, test_prometheus_exposition);
    ("event ring cap", `Quick, test_event_ring_cap);
    ("tracer cap", `Quick, test_tracer_cap);
    ("exporter endpoints", `Quick, test_exporter_endpoints);
    ("exporter unhealthy 503", `Quick, test_exporter_unhealthy);
    ("exporter malformed requests", `Quick, test_exporter_malformed);
    ("exporter silent client", `Quick, test_exporter_silent_client);
    ("exporter port in use", `Quick, test_exporter_port_in_use);
    ("exporter concurrent scrapes", `Quick, test_exporter_concurrent_scrapes);
    ("runtime sampler", `Quick, test_runtime_sampler);
    ("engine runtime sampler", `Quick, test_engine_runtime_sampler);
    ("monitor detect/clear", `Quick, test_monitor_detect_clear);
    ("monitor + chaos injector", `Quick, test_monitor_with_injector);
    ("monitor accept baseline", `Quick, test_monitor_accept);
    ("monitor determinism", `Quick, test_monitor_determinism);
  ]
