(** The enforcer's verification stage: decide whether the change set a
    technician produced in the twin may enter production.

    Two independent gates, both of which must pass:
    - {b privilege}: every change must be an action the [Privilege_msp]
      allows on its target (the twin's monitor already enforces this
      online, but the enforcer re-checks — trust nothing outside the
      enclave);
    - {b policy}: the changes, applied to a shadow copy of production,
      must leave every network policy satisfied that was satisfied
      before, and must not introduce new violations. *)

open Heimdall_config
open Heimdall_control
open Heimdall_privilege
open Heimdall_verify

type rejection =
  | Privilege_violation of { change : Change.t; action : Action.t }
      (** The change needs an action the spec denies. *)
  | Policy_violation of { policy : Policy.t; reason : string }
      (** The shadow network violates a policy that held before. *)
  | Apply_error of string
      (** The change list does not even apply cleanly. *)

val rejection_to_string : rejection -> string

val privilege_rejections : privilege:Privilege.t -> Change.t list -> rejection list
(** Just the privilege gate: one [Privilege_violation] per change the
    spec denies.  Requests are built by {!Heimdall_sem.Plan_sem} — the
    same construction the static pre-flight proof evaluates — so this
    can never disagree with a plan proved sufficient.  Exposed as the
    replay-side oracle for that proof. *)

type outcome = {
  accepted : bool;
  rejections : rejection list;
  shadow : Network.t option;
      (** The post-change network when the changes apply cleanly (present
          even on policy rejection, for diagnostics). *)
  fixed_policies : Policy.t list;
      (** Policies violated before the change and satisfied after — the
          repairs the technician delivered. *)
}

val verify :
  engine:Engine.t ->
  production:Network.t ->
  policies:Policy.t list ->
  privilege:Privilege.t ->
  changes:Change.t list ->
  unit ->
  outcome
(** The production and shadow dataplanes come from the engine's memo
    cache, and policy checks fan out through its domain pool in one
    {!Policy.check_both} pass: a policy is traced again on the shadow
    only when the change can reach its production path.  With a
    context on the engine the stage is traced as an [enforcer.verify]
    span and feeds the [enforcer.rejections] counter.  The outcome is
    identical either way. *)
