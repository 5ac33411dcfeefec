(** Emergency mode (paper §7, "Limitations of the twin network").

    Some incidents cannot wait for a twin (or cannot be reproduced in
    one).  In emergency mode the reference monitor bypasses the twin and
    sends the technician's commands to the production network {e through
    the policy enforcer}: every configuration command is verified against
    the [Privilege_msp] and the network policies {e before} it touches
    production; reads execute directly against production state.  Every
    attempt is chained into an audit trail regardless of outcome.

    This keeps the two guarantees the paper cares about even without a
    twin — least privilege and verified changes — at the cost of exposing
    live (unscrubbed) state to [show] commands, which is why emergency
    mode requires an explicit, audited [reason]. *)

open Heimdall_control
open Heimdall_privilege
open Heimdall_verify

type t
(** An open emergency session. *)

type refusal =
  | Denied of { action : Action.t; node : string }  (** Privilege_msp says no. *)
  | Would_violate of string list  (** Policy violations the change would cause. *)
  | Malformed of string
  | No_device

val refusal_to_string : refusal -> string

val open_session :
  ?technician:string ->
  engine:Engine.t ->
  reason:string ->
  production:Network.t ->
  policies:Policy.t list ->
  privilege:Privilege.t ->
  unit ->
  t
(** Open an emergency session.  The [reason] is recorded as the first
    audit record. *)

val exec : t -> string -> (string, refusal) result
(** Execute one command.  Mutating commands are applied to production
    only if (a) the privilege spec allows them and (b) no policy that
    currently holds would break.  [system.erase] and [reload] are always
    refused in emergency mode. *)

val production : t -> Network.t
(** Current production network (reflects applied emergency changes). *)

val audit : t -> Heimdall_enforcer.Audit.t
(** The tamper-evident record of the whole emergency session. *)

val applied : t -> Heimdall_config.Change.t list
(** Changes that reached production, oldest first. *)
