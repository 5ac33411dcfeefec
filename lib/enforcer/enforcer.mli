(** The policy enforcer: the trusted component between the twin network
    and the production network (paper §4.3).

    [process] runs the full pipeline inside the (simulated) enclave:
    extract the technician's changes from the twin, chain the session log
    into the audit trail, verify privilege + policies, schedule the
    import, and attest the audit head. *)

open Heimdall_control
open Heimdall_privilege
open Heimdall_verify

type outcome = {
  approved : bool;
  rejections : Verifier.rejection list;
  conflicts : Mediator.conflict list;
      (** Non-empty iff the session was {e held}: its static footprint or
          predicted delta collides with an in-flight plan.  A held
          session is not rejected on its merits — resubmit once the
          conflicting plan lands. *)
  plan : Scheduler.plan option;  (** Present iff approved. *)
  updated : Network.t option;
      (** Production after import, iff approved: the plan's final
          network when [apply] committed, the restored checkpoint when
          it rolled back. *)
  apply : Applier.summary option;
      (** The transactional-apply record (retries, rollback, final
          state), iff approved. *)
  fixed_policies : Policy.t list;
  impact : Reachability.impact option;
      (** Host-pair reachability delta of the import, iff approved. *)
  lint_findings : Heimdall_lint.Diagnostic.t list;
      (** Static-analysis findings introduced during the session (twin
          lint delta vs the session baseline).  Advisory: recorded in the
          audit trail, never a rejection by itself. *)
  sem_findings : Heimdall_lint.Diagnostic.t list;
      (** Semantic pre-check findings: PRV004 over-grant diagnostics —
          grants of the session's privilege spec the changes never
          exercised.  Advisory, recorded as [sem.overgrant] audit
          records. *)
  acl_diffs : (string * string * Heimdall_sem.Acl_sem.diff) list;
      (** Per (device, ACL name): the exact packet-set diff of every ACL
          the session touched (non-empty diffs only), recorded as
          [sem.diff] audit records with witness packets. *)
  audit : Audit.t;  (** Session log + enforcer decisions, hash-chained. *)
  report : Enclave.report;  (** Attestation over the audit head. *)
  sealed_head : string;  (** Audit head sealed to the enforcer enclave. *)
}

val default_enclave : Enclave.t
(** The enforcer's enclave identity used when none is supplied. *)

val process :
  ?enclave:Enclave.t ->
  engine:Engine.t ->
  ?injector:Heimdall_faults.Injector.t ->
  ?max_attempts:int ->
  ?in_flight:(string * Heimdall_config.Change.t list) list ->
  production:Network.t ->
  policies:Policy.t list ->
  privilege:Privilege.t ->
  session:Heimdall_twin.Session.t ->
  unit ->
  outcome
(** Run the pipeline.  On rejection, [updated] is [None] and production
    is untouched.

    [?in_flight] (labelled change lists of already-admitted concurrent
    plans, submission order) enables pre-flight conflict mediation: the
    session's changes are statically intersected with each in-flight
    plan (see {!Mediator}) {e before} any verification work is spent,
    and on collision the session is held — [approved = false],
    [conflicts] non-empty, one [plan.conflict] audit record and obs
    event per collision.

    With [?injector] the approved plan is pushed through the
    transactional {!Applier} under that fault plan ([?max_attempts]
    bounds the per-step retry budget, default
    {!Applier.default_max_attempts}); retries and rollbacks land in the
    audit trail and in [apply].  Without one, the applier is a no-op
    pass-through and the outcome is byte-identical to the pre-chaos
    enforcer's.

    The verify/schedule/impact stages share the engine's memoized
    dataplanes and domain pool.  With a context on the engine each stage
    is traced, stage outcomes become structured
    events ([policy.verdict], [lint.delta], [schedule.decision]), and —
    when a root span is open on the calling domain (e.g. the workflow's
    session span) — its id is chained into the audit trail as an
    [obs.trace] record so spans and audit records can be joined.  The
    decision itself is byte-identical with or without instrumentation. *)

val outcome_to_string : outcome -> string
