(** The pipeline's self-checks, each in one place for the CLI and the
    bench: the grant Heimdall issues for a ticket, the soundness oracle
    of the static plan analysis, and the fleet-scale gate. *)

open Heimdall_control
open Heimdall_privilege
open Heimdall_msp

(** {2 Ticket grant} *)

val ticket_grant : Network.t -> Issue.t -> Network.t * string list * Privilege.t
(** [ticket_grant net issue] injects [issue] into the healthy [net],
    slices the twin around the ticket's endpoints and generates the
    privilege spec over the slice.  Returns the broken network, the
    slice and the spec. *)

val twin_session : Network.t -> Ticket.t -> Heimdall_twin.Session.t * Privilege.t
(** A technician session under the grant for [ticket], on a twin of
    [net] as it stands; returns the session and the grant. *)

val plan_ticket :
  Issue.t -> slice:string list -> Privilege.t -> Heimdall_lint.Plan_lint.ticket
(** The ticket as the plan and policy-tree analyses see it: labelled
    ["ticket:" ^ name], scoped to the slice, carrying the fix script. *)

(** {2 Plan soundness} *)

type replay = {
  issue : Issue.t;
  broken : Network.t;
  slice : string list;
  spec : Privilege.t;
  emulation : Heimdall_twin.Emulation.t;
  session : Heimdall_twin.Session.t;
}

val replay : Network.t -> Issue.t -> replay
(** Grant the ticket and replay its scripted fix once, in a twin session
    under that grant. *)

type soundness = {
  label : string;  (** ["ticket:" ^ name]. *)
  delta_sound : bool;
      (** The predicted {!Heimdall_sem.Plan_sem} delta contains the exact
          post-apply ACL delta
          ({!Heimdall_enforcer.Enforcer.session_acl_diffs}, unioned). *)
  sufficient : bool;  (** The static proof says the grant suffices. *)
  denied : int;  (** Commands the replay's monitor denied. *)
  rejected : int;  (** Replayed changes the enforcer's privilege gate rejects. *)
}

val plan_soundness : replay -> soundness
(** The static plan analysis of the fix script, held to the replay: the
    static answer must over-approximate the exact one, never undercut
    it. *)

val soundness_failures : soundness -> string list
(** Empty when sound: the delta is contained, and a grant proved
    sufficient saw no denial and no rejection on replay.  Otherwise one
    message per broken property. *)

(** {2 Fleet-scale gate} *)

type scale
(** One fleet through the gate: its gates, walls, peak RSS and the
    N-domain engine's stats. *)

val scale :
  engine1:Heimdall_verify.Engine.t -> engine_n:Heimdall_verify.Engine.t -> issues:bool ->
  Fleetgen.params -> scale
(** Generate the fleet and run it through the gate: regenerate it (same
    digest and policies), validate it, lint it on [engine1], verify every
    policy on [engine1] and on [engine_n], and with [~issues] run every
    injected issue through the Heimdall workflow on [engine_n].  The
    caller owns (and shuts down) both engines. *)

val scale_gates : scale -> (string * bool) list
(** Every gate in order: regeneration digest and policies, validation, no
    error-severity lint finding, zero violations, identical 1-vs-N
    verdicts, and per issue resolved with nothing denied. *)

val scale_passed : scale -> bool

val render_scale : scale -> string
(** The report, one line per gate, ending in ["scale gate: PASS"] or
    ["scale gate: FAIL"]. *)

val scale_problems : scale -> string list
(** What made a gate fail, one line each: the validation error, the
    error-severity lint findings and the violated policies. *)

val scale_to_json : scale -> Heimdall_json.Json.t
