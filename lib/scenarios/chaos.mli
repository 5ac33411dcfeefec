(** The chaos harness: one end-to-end Heimdall workflow run under a
    deterministic, seeded fault plan.

    The run exercises both injection surfaces: twin-stage faults (flaky
    devices rejecting configuration edits, absorbed by bounded retry in
    the technician driver) and apply-stage faults (partial application,
    link flaps, device crashes, an enclave restart — absorbed by the
    enforcer's transactional applier).  The acceptance bar: the issue is
    still resolved, no policy that held before the run is violated
    after it, and the audit trail — including every retry and rollback
    record — verifies.

    Same seed → same fault sequence, audit trail and verdicts, at any
    engine domain count. *)

open Heimdall_verify

type result = {
  scenario : string;
  issue : string;
  seed : int;
  occurrences : Heimdall_faults.Injector.occurrence list;
      (** Faults that actually fired, oldest first. *)
  kinds : string list;  (** Distinct fired fault kinds, sorted. *)
  twin_retries : int;  (** Edit attempts the twin driver had to repeat. *)
  outcome : Heimdall_enforcer.Enforcer.outcome;
  resolved : bool;  (** Import approved and the ticket's probe delivers. *)
  surviving_violations : (Policy.t * string) list;
      (** Policies that held on the (broken) starting network but are
          violated on the final one — must be empty for a clean run. *)
  audit_ok : (unit, string) Stdlib.result;
      (** {!Heimdall_enforcer.Audit.verify} over the full trail. *)
}

val passed : result -> bool
(** Resolved, zero surviving violations, audit verifies, and the
    transactional apply did not end in a rollback. *)

val run :
  engine:Engine.t ->
  ?max_attempts:int ->
  scenario:Experiments.scenario ->
  issue:Heimdall_msp.Issue.t ->
  seed:int ->
  unit ->
  result
(** Break the scenario network with [issue], run the twin session and
    the enforcer under the seed's fault plan, and judge the outcome. *)

val render : result -> string
