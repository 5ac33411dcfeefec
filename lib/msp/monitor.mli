(** The continuous drift monitor: the Watchtower loop that re-checks the
    live network against the verified baseline.

    Each {!check} cycle observes the network through a caller-supplied
    thunk, overlays any active {!Heimdall_faults.Injector} faults
    ({!Heimdall_faults.Fault.degrade} — so chaos plans compose without
    special cases), and compares structural digests
    ({!Heimdall_control.Network.digest}).  Only when the digest moves
    does it rebuild the observed dataplane (through the shared engine's
    memoizing cache) and re-run the policy set.

    Transitions are edge-triggered and triply recorded: a
    [drift.detected] / [drift.clear] structured event, a hash-chained
    audit record (actor ["monitor"], action ["drift"]), and the gauges
    [drift.active] / [drift.policy_violations] / [drift.last_check_s]
    plus the [drift.checks{result=...}] counter.

    Monitoring is read-only: it never mutates the observed network or
    the engine's verdict-relevant state, so runs with the monitor on and
    off produce byte-identical pipeline results (tier-1 tested). *)

open Heimdall_control
open Heimdall_verify

type t

type status = {
  cycles : int;  (** Completed {!check} cycles. *)
  drift_active : bool;
  drifted_devices : string list;  (** Devices whose digest moved, name order. *)
  policy_violations : int;  (** From the most recent drift verification. *)
  detections : int;  (** Clean→drift transitions so far. *)
  clears : int;  (** Drift→clean transitions so far. *)
  last_check_age_s : float;  (** Seconds since the last check; [infinity] before the first. *)
  running : bool;  (** Whether the background loop is up. *)
}

val create :
  engine:Engine.t ->
  ?injector:Heimdall_faults.Injector.t ->
  expected:Network.t ->
  observe:(unit -> Network.t) ->
  Policy.t list ->
  t
(** [observe] is called once per cycle and must return the current live
    network (tests swap in a mutable ref).  Drift re-verification builds
    dataplanes through the engine's memo cache and reports to the
    engine's context, if it has one. *)

val check : t -> string
(** Run one cycle synchronously; returns the cycle result, one of
    ["clean"], ["detected"] (clean→drift edge), ["drift"] (still
    drifted), ["clear"] (drift→clean edge) — the same strings used as
    the [drift.checks] counter's [result] label. *)

val accept : t -> unit
(** Re-baseline: adopt the currently-observed network as the new
    expected state (audited with verdict ["accepted"]). *)

val status : t -> status
val audit : t -> Heimdall_enforcer.Audit.t
(** The monitor's own hash-chained trail of drift transitions. *)

val start : ?interval_s:float -> t -> unit
(** Spawn the background loop ([interval_s] default 5.0, clamped to
    ≥ 0.05; first check immediately).  Idempotent. *)

val stop : t -> unit
(** Stop and join the loop.  Idempotent; safe without {!start}. *)

val health :
  ?max_age_s:float -> t -> unit -> bool * (string * Heimdall_json.Json.t) list
(** An {!Heimdall_obs.Exporter.health} thunk: healthy once at least one
    cycle has completed and, when the loop is running, the last check is
    no older than [max_age_s] (default 30).  Detected drift does {e not}
    make the monitor unhealthy — reporting drift is its job.  The JSON
    members expose {!status}. *)
