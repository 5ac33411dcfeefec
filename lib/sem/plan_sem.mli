(** Static effect analysis over change plans: an abstract interpreter for
    the {!Heimdall_config.Change} DSL.

    Every op is mapped to an {e effect signature} — the (device,
    config-section, interface) slot it writes, the privilege action it
    requires, and a conservative {!Heimdall_net.Packet_set}
    over-approximation of the traffic whose treatment the op may change.
    Folding a plan's signatures yields its write footprint, its required
    privilege, its predicted semantic delta, and two intra-plan defects:
    dead ops (removing the op leaves the plan's result unchanged —
    later-op overwrites and sets of already-present values) and
    self-contradictions (two structurally different ops racing for the
    same write slot).

    Everything here runs before anything executes: no twin session, no
    dataplane.  The twin-replay path stays as the soundness oracle — on
    every scenario ticket the predicted delta must contain the exact
    post-apply {!Acl_sem} diff, and a plan proved privilege-sufficient
    must replay without a single monitor denial (tests and the
    [plan-smoke] CI gate enforce both). *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_privilege

(** {1 Effect signatures} *)

(** The config section an op writes.  Two ops are footprint-disjoint when
    they touch different devices or different sections of one device. *)
type section =
  | Iface of string  (** One interface block (address, state, bindings...). *)
  | Acl of string  (** One named access list. *)
  | Routing  (** Static routes and the default gateway. *)
  | Ospf  (** The OSPF process (network statements). *)
  | Vlans  (** The VLAN table. *)
  | Secrets  (** Credential slots. *)

val section_compare : section -> section -> int
val section_to_string : section -> string

(** A concrete privilege request a plan step will trigger, in the exact
    shape the twin monitor and the enforcer's verifier build it. *)
type requirement = {
  req_action : Action.t;
  req_node : string;
  req_iface : string option;
  source : string;  (** The command or change the requirement came from. *)
}

val requirement_compare : requirement -> requirement -> int
(** Orders on (node, action, iface) — [source] is a label, not identity. *)

val requirement_to_string : requirement -> string

type effect_sig = {
  change : Change.t;
  section : section;
  action : Action.t;  (** Privilege action the op needs. *)
  iface : string option;  (** Interface scope of the privilege request. *)
  delta : Packet_set.t;
      (** Over-approximation of the packets whose treatment may change.
          [Packet_set.full] when the op can reroute arbitrary traffic
          (interface state, OSPF, bindings); [Packet_set.empty] for
          cosmetic ops (descriptions, VLAN renames, secrets). *)
}

val op_requirement : Change.t -> requirement
(** The privilege request applying this change triggers — built exactly
    as the verifier builds it, so the static verdict and the replay
    verdict can never disagree by construction. *)

(** {1 Plan analysis} *)

type t = {
  changes : Change.t list;
  effects : effect_sig list;  (** One per change, in plan order. *)
  footprint : (string * section) list;  (** Sorted, deduplicated. *)
  requirements : requirement list;  (** Sorted, deduplicated. *)
  delta : Packet_set.t;  (** Union of every effect's delta. *)
  device_deltas : (string * Packet_set.t) list;
      (** Per-device delta union, sorted by device, non-empty sets only. *)
  dead : (int * Change.t) list;
      (** 0-based plan positions whose removal provably leaves the
          plan's outcome unchanged (needs a network; exact, decided by
          re-application). *)
  contradictions : (string * Change.t list) list;
      (** Write slots two or more structurally different ops race for,
          with the racing ops in plan order. *)
}

val analyze : ?network:Network.t -> Change.t list -> t
(** Fold a plan into its normalized effect.  With [?network] the ACL
    deltas are tightened from [full] to the touched rules' packet sets,
    and dead-op detection runs (it re-applies candidate sub-plans, so it
    needs the baseline configs).  Without one, every answer is still
    sound, just coarser. *)

val footprint_to_string : (string * section) list -> string

(** {1 Script extraction} *)

(** A technician script, statically decomposed: the config changes it
    will produce and the privilege requests it will trigger, without
    executing anything. *)
type script = {
  commands : string list;
  script_changes : Change.t list;  (** The [configure] ops, in order. *)
  script_requirements : requirement list;
      (** Every command's privilege request, in command order — show and
          diag commands included, exactly as the twin monitor will check
          them. *)
  script_errors : (string * string) list;
      (** Commands the analysis cannot account for (unparseable, or
          issued with no connected device), with reasons.  These can
          never reach the monitor's privilege check, so they do not
          affect the sufficiency verdict. *)
}

val script_of_commands : string list -> script
(** Statically interpret a fix script: track the [connect] state the way
    a session would, extract every [configure] op as a {!Change.t}, and
    record the privilege request of every command. *)

val plan_requirements : ?network:Network.t -> script -> requirement list
(** The complete privilege surface of running the script through the
    Heimdall pipeline: the per-command monitor requests, plus — when the
    baseline network is known — the requests the enforcer's verifier
    will re-check on the extracted config diff (a diff can normalize ops
    into different actions, e.g. removing an ACL's last rule surfaces as
    [acl.remove]).  Sorted and deduplicated. *)

(** {1 Pre-flight privilege proof} *)

type proof = {
  sufficient : bool;
      (** No requirement is denied: the plan cannot hit a mid-apply
          privilege denial. *)
  missing : requirement list;
      (** Requirements the spec denies, sorted and deduplicated. *)
  unneeded : (int * Privilege.predicate) list;
      (** Allow predicates (0-based spec position) that decide none of
          the plan's requirements — grants the plan provably never
          needs.  The static counterpart of the replay-based PRV004. *)
}

val request_of_requirement : requirement -> Privilege.request
(** The monitor-shaped request a requirement denotes — exposed so the
    enforcer's verifier evaluates the very same value the static proof
    does (one construction, no drift). *)

val prove : spec:Privilege.t -> requirement list -> proof
(** Statically decide whether [spec] is sufficient for the given
    requirements, and which of its allow predicates the plan never
    exercises.  Sound against replay by construction: each requirement
    is evaluated with the same [Privilege.request] the monitor and the
    verifier build, so [sufficient = true] implies a denial-free
    replay. *)
