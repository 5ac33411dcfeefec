(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

type summary = { n : int; median : float; q1 : float; q3 : float }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics (numpy's default), so
   the median of an even count is the mean of the middle two. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  let h = float_of_int (n - 1) *. p /. 100. in
  let i = int_of_float h in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let percentile xs p = percentile_sorted (sorted xs) p

let summarize xs =
  let a = sorted xs in
  {
    n = Array.length a;
    median = percentile_sorted a 50.;
    q1 = percentile_sorted a 25.;
    q3 = percentile_sorted a 75.;
  }

let spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

(* In tenths of a percent, so that "exactly ten beyond" stays exact. *)
let min_samples pct =
  let beyond = 1000 - int_of_float (Float.round (pct *. 10.)) in
  (10_000 + beyond - 1) / beyond

(* ------------------------------------------------------------------ *)
(* Metrics and bounds                                                  *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  rel_bound : float;
  abs_floor : float;
}

let metric ?(abs_floor = 0.) name unit better rel_bound =
  { name; unit; better; rel_bound; abs_floor }

let end_to_end =
  [
    metric "latency_p50_s" "s" Lower 0.25;
    metric "latency_tail_s" "s" Lower 0.25;
    metric "throughput_per_s" "1/s" Higher 0.25;
    metric "setup_s" "s" Lower 0.25 ~abs_floor:0.02;
    metric "peak_rss_mb" "MB" Lower 0.15 ~abs_floor:4.;
  ]

let allowed m ~base = Float.max (m.rel_bound *. Float.abs base) m.abs_floor

let regressed m ~base ~value =
  match m.better with
  | Lower -> value -. base > allowed m ~base
  | Higher -> base -. value > allowed m ~base

type verdict = Gain | No_change | Regression | Unresolved

let verdict_to_string = function
  | Gain -> "gain"
  | No_change -> "no change"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

let better m a b = match m.better with Lower -> a < b | Higher -> a > b

let wins m ~base ~change =
  let rec go won n = function
    | b :: bs, c :: cs -> go (if better m c b then won + 1 else won) (n + 1) (bs, cs)
    | _ -> (won, n)
  in
  go 0 0 (base, change)

(* The rule for comparing two commits.  A gain needs the change to win
   at least nine pairs in ten and its median to differ by more than the
   parent's interquartile distance; "no change" needs both spreads within
   the bound, unless every change run beats every parent run. *)
let compare_runs m ~base ~change =
  let sb = summarize base and sc = summarize change in
  let won, pairs = wins m ~base ~change in
  let all_better = List.for_all (fun c -> List.for_all (better m c) base) change in
  if
    pairs > 0
    && 10 * won >= 9 * pairs
    && better m sc.median sb.median
    && Float.abs (sc.median -. sb.median) > sb.q3 -. sb.q1
  then Gain
  else if regressed m ~base:sb.median ~value:sc.median then Regression
  else if Float.max (spread sb) (spread sc) > m.rel_bound && not all_better then Unresolved
  else No_change

(* ------------------------------------------------------------------ *)
(* Verdict accounting                                                  *)
(* ------------------------------------------------------------------ *)

type fingerprint = { approved : bool; digest : string; audit_head : string }

type observation = {
  hostile : bool;
  resolved : bool;
  denied : int;
  audit_ok : bool;
  report_ok : bool;
  production_changed : bool;
  fingerprint : fingerprint;
}

let ticket_failure ~first o =
  let own =
    if o.hostile then
      if o.fingerprint.approved then Some "hostile ticket approved"
      else if o.production_changed then Some "hostile ticket changed production"
      else None
    else if not o.resolved then Some "honest ticket not resolved"
    else if o.denied > 0 then Some (Printf.sprintf "%d commands denied" o.denied)
    else if not o.audit_ok then Some "audit chain does not verify"
    else if not o.report_ok then Some "enclave report does not verify"
    else None
  in
  match (own, first) with
  | Some _, _ -> own
  | None, Some f when f <> o.fingerprint -> Some "repeat differs from the first run"
  | None, _ -> None

type tally = { mutable attempted : int; mutable failed : int; mutable reasons : string list }

let tally () = { attempted = 0; failed = 0; reasons = [] }

let record t ~label failure =
  t.attempted <- t.attempted + 1;
  match failure with
  | None -> ()
  | Some reason ->
      t.failed <- t.failed + 1;
      t.reasons <- (label ^ ": " ^ reason) :: t.reasons

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted
