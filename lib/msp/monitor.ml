(* The drift monitor: the Watchtower's long-running loop that keeps
   asking "does the network still look like what we verified?".

   Each cycle observes the live network (through a thunk, so tests and
   the chaos injector can interpose), compares its structural digest
   against the expected baseline, and — only when the digest moved —
   re-runs the full policy set through the shared verify engine against
   the observed dataplane.  Drift transitions are edge-triggered: one
   [drift.detected] event + hash-chained audit record when drift
   appears, one [drift.clear] pair when the network returns to baseline.
   Gauges ([drift.active], [drift.policy_violations],
   [drift.last_check_s]) and the [drift.checks{result=...}] counter
   track the steady state between transitions.

   Composability with chaos: when an {!Heimdall_faults.Injector} is
   supplied, each cycle asks it for the faults active at that cycle
   index and overlays them on the observation with {!Fault.degrade} —
   so a link-down fault plan shows up as detected drift, then clears
   when the fault expires, with no special-casing here. *)

open Heimdall_control
open Heimdall_verify
open Heimdall_faults
module Obs = Heimdall_obs.Obs
module Clock = Heimdall_obs.Clock
module Audit = Heimdall_enforcer.Audit

type status = {
  cycles : int;
  drift_active : bool;
  drifted_devices : string list;
  policy_violations : int;
  detections : int;
  clears : int;
  last_check_age_s : float;
  running : bool;
}

type t = {
  engine : Engine.t;
  injector : Injector.t option;
  observe : unit -> Network.t;
  policies : Policy.t list;
  lock : Mutex.t;
  mutable expected : Network.t;
  mutable expected_digest : string;
  mutable drift_active : bool;
  mutable drifted : string list;
  mutable violations : int;
  mutable cycles : int;
  mutable detections : int;
  mutable clears : int;
  mutable last_check : float;  (* Clock.now_s of the last completed check; nan before the first *)
  mutable audit : Audit.t;
  stopped : bool Atomic.t;
  mutable thread : Thread.t option;
}

let create ~engine ?injector ~expected ~observe policies =
  {
    engine;
    injector;
    observe;
    policies;
    lock = Mutex.create ();
    expected;
    expected_digest = Network.digest expected;
    drift_active = false;
    drifted = [];
    violations = 0;
    cycles = 0;
    detections = 0;
    clears = 0;
    last_check = Float.nan;
    audit = Audit.empty;
    stopped = Atomic.make false;
    thread = None;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let audit t = locked t (fun () -> t.audit)

let status t =
  locked t (fun () ->
      {
        cycles = t.cycles;
        drift_active = t.drift_active;
        drifted_devices = t.drifted;
        policy_violations = t.violations;
        detections = t.detections;
        clears = t.clears;
        last_check_age_s =
          (if Float.is_nan t.last_check then Float.infinity
           else Clock.clamp (Clock.now_s () -. t.last_check));
        running = t.thread <> None;
      })

(* One verification pass over the drifted observation.  Runs outside the
   monitor lock: digests, dataplane builds and policy checks can be
   slow, and the exporter's health thunk must never block behind them. *)
let verify_drift t observed =
  let report =
    Policy.check_all ~engine:t.engine (Engine.dataplane t.engine observed) t.policies
  in
  List.length report.Policy.violations

let check t =
  let cycle = locked t (fun () -> t.cycles + 1) in
  let observed =
    let raw = t.observe () in
    match t.injector with
    | None -> raw
    | Some inj ->
        Fault.degrade (Injector.on_attempt inj ~step:cycle ~attempt:1 ~node:"-") raw
  in
  let expected, expected_digest, was_active =
    locked t (fun () -> (t.expected, t.expected_digest, t.drift_active))
  in
  let drifted =
    if Network.digest observed = expected_digest then []
    else
      match Network.changed_devices expected observed with
      | Some [] -> []  (* digest differs only via topology ordering; treat as clean *)
      | Some devices -> devices
      | None -> Network.node_names observed  (* incomparable: everything suspect *)
  in
  let result, violations =
    match (drifted, was_active) with
    | [], false -> ("clean", 0)
    | [], true -> ("clear", 0)
    | _ :: _, _ -> ((if was_active then "drift" else "detected"), verify_drift t observed)
  in
  let devices_label = String.concat "," drifted in
  locked t (fun () ->
      t.cycles <- cycle;
      t.last_check <- Clock.now_s ();
      t.drifted <- drifted;
      t.violations <- violations;
      match result with
      | "detected" ->
          t.drift_active <- true;
          t.detections <- t.detections + 1;
          t.audit <-
            Audit.append ~actor:"monitor" ~action:"drift" ~resource:devices_label
              ~detail:
                (Printf.sprintf "cycle %d: %d device(s) drifted, %d policy violation(s)"
                   cycle (List.length drifted) violations)
              ~verdict:"detected" t.audit
      | "clear" ->
          t.drift_active <- false;
          t.clears <- t.clears + 1;
          t.audit <-
            Audit.append ~actor:"monitor" ~action:"drift" ~resource:"-"
              ~detail:(Printf.sprintf "cycle %d: network back at baseline" cycle)
              ~verdict:"clear" t.audit
      | _ -> ());
  let obs = Engine.obs t.engine in
  (match result with
  | "detected" ->
      Obs.event obs "drift.detected"
        ~attrs:
          [
            ("cycle", string_of_int cycle);
            ("devices", devices_label);
            ("violations", string_of_int violations);
          ]
  | "clear" -> Obs.event obs "drift.clear" ~attrs:[ ("cycle", string_of_int cycle) ]
  | _ -> ());
  Obs.incr obs "drift.checks" ~labels:[ ("result", result) ];
  Obs.set_gauge obs "drift.active" (if drifted = [] then 0.0 else 1.0);
  Obs.set_gauge obs "drift.policy_violations" (float_of_int violations);
  Obs.set_gauge obs "drift.last_check_s" (Clock.now_s ());
  result

let accept t =
  let observed = t.observe () in
  locked t (fun () ->
      t.expected <- observed;
      t.expected_digest <- Network.digest observed;
      t.drift_active <- false;
      t.drifted <- [];
      t.violations <- 0;
      t.audit <-
        Audit.append ~actor:"monitor" ~action:"drift" ~resource:"-"
          ~detail:"observed network accepted as new baseline" ~verdict:"accepted"
          t.audit);
  let obs = Engine.obs t.engine in
  Obs.event obs "drift.accepted";
  Obs.set_gauge obs "drift.active" 0.0

let rec nap t remaining =
  if remaining > 0. && not (Atomic.get t.stopped) then begin
    Thread.delay (Float.min 0.05 remaining);
    nap t (remaining -. 0.05)
  end

let loop t interval_s =
  while not (Atomic.get t.stopped) do
    (try ignore (check t) with _ -> ());
    nap t interval_s
  done

let start ?(interval_s = 5.0) t =
  match t.thread with
  | Some _ -> ()
  | None ->
      Atomic.set t.stopped false;
      t.thread <- Some (Thread.create (fun () -> loop t (Float.max 0.05 interval_s)) ())

let stop t =
  Atomic.set t.stopped true;
  match t.thread with
  | Some th ->
      Thread.join th;
      t.thread <- None
  | None -> ()

(* The exporter's /healthz thunk: alive = we have checked at least once
   and — when the background loop owns the cadence — not gone silent for
   more than [max_age_s].  Drift itself is NOT unhealth: a monitor that
   detects drift is doing its job. *)
let health ?(max_age_s = 30.0) t () =
  let s = status t in
  let fresh = (not s.running) || s.last_check_age_s <= max_age_s in
  let ok = s.cycles > 0 && fresh in
  let module Json = Heimdall_json.Json in
  ( ok,
    [
      ("monitor_running", Json.Bool s.running);
      ("drift_cycles", Json.Int s.cycles);
      ("drift_active", Json.Bool s.drift_active);
      ("drifted_devices", Json.List (List.map (fun d -> Json.String d) s.drifted_devices));
      ("policy_violations", Json.Int s.policy_violations);
      ( "last_check_age_s",
        if Float.is_finite s.last_check_age_s then Json.Float s.last_check_age_s
        else Json.Null );
    ] )
