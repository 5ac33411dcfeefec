open Ticketbench

(* A tail percentile needs at least ten samples beyond it, on the same
   interpolation the benchmark reports. *)
let test_tail_rule () =
  let valid n p = n >= Harness.min_samples p in
  Alcotest.(check bool) "n=140 gives p90" true (valid 140 90.);
  Alcotest.(check bool) "n=40 gives p75" true (valid 40 75.);
  Alcotest.(check bool) "n=40 gives no p90" false (valid 40 90.);
  Alcotest.(check bool) "n=39 gives no p75" false (valid 39 75.);
  Alcotest.(check int) "p90 needs 100 samples" 100 (Harness.min_samples 90.);
  List.iter
    (fun p ->
      for n = Harness.min_samples p to 400 do
        let xs = List.init n float_of_int in
        let v = Harness.percentile xs p in
        let beyond = List.length (List.filter (fun x -> x > v) xs) in
        if beyond < 10 then Alcotest.failf "n=%d: p%g has %d samples beyond it" n p beyond
      done)
    [ 50.; 75.; 90.; 95.; 99. ];
  let s = Harness.summarize [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check (float 1e-12)) "even-count median" 2.5 s.median

let test_bounds () =
  let setup = Harness.metric "setup_s" "s" Harness.Lower 0.10 ~abs_floor:0.02 in
  let check msg expected ~base ~value =
    Alcotest.(check bool) msg expected (Harness.regressed setup ~base ~value)
  in
  check "within the relative bound" false ~base:1.0 ~value:1.09;
  check "beyond the relative bound" true ~base:1.0 ~value:1.11;
  check "within the absolute floor" false ~base:0.05 ~value:0.065;
  check "beyond the absolute floor" true ~base:0.05 ~value:0.075;
  check "an improvement" false ~base:1.0 ~value:0.5;
  let rate = Harness.metric "throughput_per_s" "1/s" Harness.Higher 0.10 in
  Alcotest.(check bool) "higher-better within" false (Harness.regressed rate ~base:10. ~value:9.1);
  Alcotest.(check bool) "higher-better beyond" true (Harness.regressed rate ~base:10. ~value:8.9)

let test_compare () =
  let m = Harness.metric "latency_p50_s" "s" Harness.Lower 0.10 in
  let base = [ 1.00; 1.01; 0.99; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00; 1.00 ] in
  let verdict change = Harness.verdict_to_string (Harness.compare_runs m ~base ~change) in
  let shift d = List.map (fun x -> x +. d) base in
  Alcotest.(check string) "every pair faster" "gain" (verdict (shift (-0.2)));
  Alcotest.(check string) "same runs" "no change" (verdict base);
  Alcotest.(check string) "20% slower" "REGRESSION" (verdict (shift 0.2));
  Alcotest.(check string) "too noisy to tell" "unresolved"
    (verdict [ 0.7; 1.3; 0.8; 1.2; 0.75; 1.25; 0.9; 1.1; 0.85; 1.15 ])

let fingerprint = { Harness.approved = true; digest = "after"; audit_head = "head" }

let honest =
  {
    Harness.hostile = false;
    resolved = true;
    denied = 0;
    audit_ok = true;
    report_ok = true;
    production_changed = true;
    fingerprint;
  }

let rejected_hostile =
  {
    honest with
    hostile = true;
    resolved = false;
    production_changed = false;
    fingerprint = { fingerprint with approved = false; digest = "before" };
  }

let test_verdicts () =
  let fails ?first o = Harness.ticket_failure ~first o <> None in
  Alcotest.(check bool) "resolved honest ticket" false (fails honest);
  Alcotest.(check bool) "rejected hostile ticket" false (fails rejected_hostile);
  Alcotest.(check bool) "approved hostile ticket" true
    (fails { rejected_hostile with fingerprint });
  Alcotest.(check bool) "hostile ticket changing production" true
    (fails { rejected_hostile with production_changed = true });
  Alcotest.(check bool) "unresolved honest ticket" true (fails { honest with resolved = false });
  Alcotest.(check bool) "denied command" true (fails { honest with denied = 1 });
  Alcotest.(check bool) "broken audit chain" true (fails { honest with audit_ok = false });
  Alcotest.(check bool) "repeat equal to its first run" false (fails ~first:fingerprint honest);
  Alcotest.(check bool) "repeat differing from its first run" true
    (fails ~first:{ fingerprint with audit_head = "other" } honest);
  let t = Harness.tally () in
  Harness.record t ~label:"a" None;
  Harness.record t ~label:"b" (Some "x");
  Alcotest.(check (pair int int)) "tally" (2, 1) (t.attempted, t.failed)

(* Every distinct paper ticket once through the timed pass and once
   through the traced pass.  [trace.coverage] is a ratio of two walls of
   about 0.1 s each, which a burst on a shared host can push out of range
   once, so it gets three runs; every run must be free of failures. *)
let test_paper_mix_smoke () =
  let w = Option.get (Workload.find "paper-mix") in
  let rec attempt k =
    let r = Workload.run ~min_n:7 ~seed:1 ~seconds:0. ~timed:true ~traced:true w in
    Alcotest.(check int) "distinct tickets" 7 r.distinct;
    Alcotest.(check int) "timed tickets" 7 (Option.get r.timed).latency.n;
    Alcotest.(check int) "traced tickets" 7 (Option.get r.traced).ops;
    Alcotest.(check (list string)) "failures" [] r.tally.reasons;
    Alcotest.(check int) "one metric per end-to-end name"
      (List.length Harness.end_to_end)
      (List.length (Workload.end_to_end_metrics r));
    let coverage =
      (List.find
         (fun (m : Workload.metric) -> m.name = "trace.coverage")
         (Workload.per_layer_metrics r))
        .value
    in
    if coverage < 0.8 || coverage > 1.25 then
      if k < 3 then attempt (k + 1)
      else Alcotest.failf "trace.coverage %g outside [0.8, 1.25] in 3 runs" coverage
  in
  attempt 1

let () =
  Alcotest.run "ticketbench"
    [
      ( "harness",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "bounds with an absolute floor" `Quick test_bounds;
          Alcotest.test_case "comparing two commits" `Quick test_compare;
          Alcotest.test_case "verdict accounting" `Quick test_verdicts;
        ] );
      ("workloads", [ Alcotest.test_case "paper-mix smoke" `Quick test_paper_mix_smoke ]);
    ]
