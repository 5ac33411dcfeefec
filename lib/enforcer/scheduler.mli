(** Change scheduling: pick an order in which to push verified changes to
    production so intermediate states stay safe ("updating routers in the
    wrong order can result in inconsistent behavior", §3).

    Greedy algorithm: at each step apply, from the remaining changes, the
    first one that keeps every currently-satisfied policy satisfied on a
    shadow dataplane.  When no single change is transiently safe, the
    smallest-damage change is taken and its transient violation count is
    recorded — the operator can then choose to push that suffix as one
    atomic batch (e.g. inside a maintenance window). *)

open Heimdall_config
open Heimdall_control
open Heimdall_verify

type step = {
  change : Change.t;
  transient_violations : (Policy.t * string) list;
      (** Policies that break while this step is the latest applied. *)
  checkpoint : Network.t;
      (** The planned network after this step — the transactional
          applier's per-step checkpoint: what production must look like
          once the step lands (detects partial application by digest
          comparison) and what a rollback restores to. *)
}

type plan = {
  steps : step list;  (** Execution order. *)
  safe : bool;  (** No step has transient violations. *)
  footprint : (string * Heimdall_sem.Plan_sem.section) list;
      (** Static (device, config-section) write footprint of the whole
          change set (see {!Heimdall_sem.Plan_sem}) — what the conflict
          mediator intersects across concurrent in-flight plans. *)
}

val plan :
  engine:Engine.t ->
  production:Network.t -> policies:Policy.t list -> changes:Change.t list ->
  unit ->
  (plan * Network.t, string) result
(** Compute the order and the final network.  Fails only if some change
    cannot apply at all.  Every occurrence in [changes] yields exactly
    one step — a change value appearing twice is scheduled twice (the
    winner is removed from the pool by position, not by equality).
    Intermediate dataplanes come from the engine's memo cache; with a
    context on the engine the stage is an [enforcer.schedule] span and
    the outcome is recorded as a [schedule.decision] event.  The plan is
    identical either way. *)

val plan_to_string : plan -> string
