(* Ticket benchmark: what one Heimdall ticket (and one Figure 9 sweep)
   costs end to end, and which layer the time goes to.

   Usage:
     perf.exe [--workload W]... [--seed S] [--seconds N] [--trace 0|1]
              [--json FILE] [--trace-out FILE]
     perf.exe --base FILE... --change FILE...

   With one workload it runs in this process.  With several (the default
   is all four) each runs in a child process of its own, so peak RSS, the
   GC heap and the first Domain.spawn never carry over.  Without --trace
   it runs both the timed pass (end-to-end metrics) and the traced pass
   (per-layer metrics); --trace 0 runs only the first, --trace 1 only the
   second.  The last line of standard output is one JSON object; the exit
   code is 1 when any operation failed its checks.

   --base/--change compare result files that --json wrote on two commits,
   run by run, and exit 1 on a regression. *)

open Ticketbench
module Json = Heimdall_json.Json

let workloads = ref []
let seed = ref 1
let seconds = ref 15.
let trace = ref None
let json_out = ref None
let trace_out = ref None
let bases = ref []
let changes = ref []

let specs =
  Arg.align
    [
      ( "--workload",
        Arg.String (fun w -> workloads := !workloads @ [ w ]),
        "W Run workload W (repeatable; default: all of "
        ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)
        ^ ")" );
      ("--seed", Arg.Set_int seed, "S Place the fleet issues with Fleetgen seeds S, S+1, ...");
      ("--seconds", Arg.Set_float seconds, "N Length of the timed pass (default 15)");
      ( "--trace",
        Arg.Int
          (function
          | (0 | 1) as t -> trace := Some t
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 Only the timed pass (0) or only the traced pass (1)" );
      ("--json", Arg.String (fun f -> json_out := Some f), "FILE Write the results to FILE");
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE Write the traced pass's spans to FILE as JSON lines (FILE.W per workload W \
         when there are several)" );
      ("--base", Arg.String (fun f -> bases := !bases @ [ f ]), "FILE A result of the parent");
      ("--change", Arg.String (fun f -> changes := !changes @ [ f ]), "FILE A result of the change");
    ]

let usage =
  "perf.exe [--workload W]... [--seed S] [--seconds N] [--trace 0|1] [--json FILE] \
   [--trace-out FILE]\n\
   perf.exe --base FILE... --change FILE..."

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)
(* ------------------------------------------------------------------ *)

let result_json (r : Workload.result) =
  let metric (m : Workload.metric) =
    let value = if m.unit = "count" then Json.Int (int_of_float m.value) else Json.Float m.value in
    (m.name, Json.Obj [ ("value", value); ("unit", Json.String m.unit) ])
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.tally.failed = 0));
      ("attempted", Json.Int r.tally.attempted);
      ("failed", Json.Int r.tally.failed);
      ( "metrics",
        Json.Obj
          (List.map metric (Workload.end_to_end_metrics r @ Workload.per_layer_metrics r)) );
    ]

let layer_fields = [ "share"; "traces"; "dp_full"; "dp_incr"; "dp_hits" ]

let in_layer_table name =
  List.exists
    (fun l -> List.exists (fun f -> name = l ^ "." ^ f) layer_fields)
    (Workload.ticket_layers @ Workload.sweep_layers)

let print_traced (r : Workload.result) (tr : Workload.traced) =
  Printf.printf "traced pass: %d %s, one span per public call\n" tr.ops r.op;
  Printf.printf "  %-22s %10s %6s %8s %8s %8s %8s\n" "layer" "self_s" "share" "traces" "dp_full"
    "dp_incr" "dp_hits";
  let row (layer, self) =
    Printf.printf "  %-22s %10.4f %6.3f"
      (if layer = "" then "(unattributed)" else layer)
      self (Workload.ratio self tr.wall_s);
    Option.iter
      (fun (c : Workload.counts) ->
        Printf.printf " %8d %8d %8d %8d" c.traces c.dp_full c.dp_incr c.dp_hits)
      (List.assoc_opt layer tr.counts);
    print_newline ()
  in
  List.iter row (List.filter (fun (l, _) -> l <> "") tr.self_s);
  row ("", List.assoc "" tr.self_s);
  List.iter
    (fun (m : Workload.metric) ->
      if not (in_layer_table m.name) then Printf.printf "  %-32s %12.6g %s\n" m.name m.value m.unit)
    (Workload.per_layer_metrics r)

let print_result (r : Workload.result) =
  let w = r.workload in
  Printf.printf "== %s (seed %d) ==\n%s\n%s; setup_s is the median of %d builds\n" w.name !seed
    w.why r.inputs Workload.setup_reps;
  Option.iter
    (fun (t : Workload.timed) ->
      Printf.printf "timed pass: %d %s, closed loop with 1 client, tracing off\n" t.latency.n r.op;
      List.iter
        (fun (m : Workload.metric) ->
          Printf.printf "  %-20s %12.6f %s%s\n" m.name m.value m.unit
            (if m.name = "latency_tail_s" then
               Printf.sprintf "  (p%g of n=%d)" w.tail_pct t.latency.n
             else ""))
        (Workload.end_to_end_metrics r))
    r.timed;
  Option.iter (print_traced r) r.traced;
  Printf.printf "failed_frac %g (%d of %d operations)\n" (Harness.failed_frac r.tally)
    r.tally.failed r.tally.attempted;
  List.iter (Printf.printf "  FAILED %s\n") (List.rev r.tally.reasons)

let run_one (w : Workload.t) =
  let r =
    Workload.run ~seed:!seed ~seconds:!seconds ~timed:(!trace <> Some 1)
      ~traced:(!trace <> Some 0) w
  in
  print_result r;
  (match (!trace_out, r.traced) with
  | Some path, Some tr ->
      let sink = Heimdall_obs.Sink.file path in
      Heimdall_obs.Tracer.emit sink tr.spans;
      Heimdall_obs.Sink.close sink
  | _ -> ());
  let json = result_json r in
  Option.iter
    (fun path -> write_file path (Json.to_string ~pretty:true (Json.Obj [ (w.name, json) ])))
    !json_out;
  print_endline (Json.to_string json);
  if r.tally.failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Several workloads, one child process each                           *)
(* ------------------------------------------------------------------ *)

(* Runs one workload in a child, echoing its output; returns its last
   line parsed, or [None] when the child died without a result. *)
let run_child name =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int !seed; "--seconds";
      Printf.sprintf "%g" !seconds ]
    @ (match !trace with Some t -> [ "--trace"; string_of_int t ] | None -> [])
    @ match !trace_out with Some f -> [ "--trace-out"; f ^ "." ^ name ] | None -> []
  in
  flush stdout;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec echo last =
    match In_channel.input_line ic with
    | Some line ->
        print_endline line;
        echo line
    | None -> last
  in
  let last = echo "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  (name, Json.of_string_opt last)

let run_all names =
  let rows = List.map run_child names in
  let int key j = Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int_opt) in
  (* A child that died without a result counts as one failed operation. *)
  let sum key =
    List.fold_left (fun a (_, j) -> a + match j with Some j -> int key j | None -> 1) 0 rows
  in
  let failed = sum "failed" in
  let metrics =
    List.concat_map
      (fun (name, j) ->
        match Option.bind j (Json.member "metrics") with
        | Some (Json.Obj ms) -> List.map (fun (m, v) -> (name ^ "." ^ m, v)) ms
        | _ -> [])
      rows
  in
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string ~pretty:true
           (Json.Obj (List.map (fun (name, j) -> (name, Option.value j ~default:Json.Null)) rows))))
    !json_out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int (sum "attempted"));
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]));
  if failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Comparing two commits                                               *)
(* ------------------------------------------------------------------ *)

let load path =
  match Json.of_string_opt (In_channel.with_open_text path In_channel.input_all) with
  | Some (Json.Obj results) -> results
  | _ ->
      Printf.eprintf "%s: not a result file written by --json\n" path;
      exit 2

let compare_commits () =
  let base = List.map load !bases and change = List.map load !changes in
  let find path runs w =
    List.filter_map
      (fun run -> Option.bind (List.assoc_opt w run) (fun r -> Option.bind (path r) Json.to_float_opt))
      runs
  in
  let value m r =
    Option.bind (Json.member "metrics" r) (fun ms ->
        Option.bind (Json.member m ms) (Json.member "value"))
  in
  let workloads = List.sort_uniq compare (List.concat_map (List.map fst) (base @ change)) in
  let failed =
    List.exists
      (fun w -> List.exists (fun f -> f > 0.) (find (Json.member "failed") (base @ change) w))
      workloads
  in
  if failed then print_endline "some runs had failed operations";
  Printf.printf "%-18s %-18s %12s %12s %12s %6s  %s\n" "workload" "metric" "base p50"
    "base IQR" "change p50" "wins" "verdict";
  let regression = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Harness.metric) ->
          let b = find (value m.name) base w and c = find (value m.name) change w in
          if b <> [] && c <> [] then begin
            let sb = Harness.summarize b and sc = Harness.summarize c in
            let won, pairs = Harness.wins m ~base:b ~change:c in
            let v = Harness.compare_runs m ~base:b ~change:c in
            if v = Harness.Regression then regression := true;
            Printf.printf "%-18s %-18s %12.6g %12.6g %12.6g %3d/%-2d  %s\n" w m.name sb.median
              (sb.q3 -. sb.q1) sc.median won pairs (Harness.verdict_to_string v)
          end)
        Harness.end_to_end)
    workloads;
  if failed || !regression then exit 1

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !bases <> [] || !changes <> [] then compare_commits ()
  else
    let names =
      if !workloads = [] then List.map (fun (w : Workload.t) -> w.name) Workload.all
      else !workloads
    in
    match List.filter (fun n -> Workload.find n = None) names with
    | n :: _ ->
        Printf.eprintf "unknown workload %S\n%s\n" n usage;
        exit 2
    | [] -> (
        match names with
        | [ name ] -> run_one (Option.get (Workload.find name))
        | _ -> run_all names)
