(** Heimdall_lint: the static-analysis pass over configs, ACLs, and
    privilege specs.

    The dataplane-simulation verifier ({!Heimdall_verify}) only catches
    violations of mined policies; whole classes of technician mistakes —
    shadowed ACL rules, dead privilege statements, dangling ACL/VLAN
    references, off-subnet next hops — are detectable from the artifacts
    alone.  This module is the entry point: it fans the per-device and
    per-ACL analyzers out through {!Heimdall_verify.Engine} (inheriting
    the domain-pool parallelism) and returns canonically-ordered
    diagnostics, so reports are byte-identical at any domain count. *)

open Heimdall_control
open Heimdall_privilege
open Heimdall_verify

(** {1 Rule registry} *)

type family = Config | Acl | Net | Privilege | Plan | Pol

val family_to_string : family -> string

type rule = {
  code : string;
  family : family;
  severity : Diagnostic.severity;  (** Worst severity the rule emits. *)
  summary : string;
}

val rules : rule list
(** Every rule the analyzers can emit, sorted by code.  Kept in sync with
    the analyzers by a unit test. *)

val rule : string -> rule option

(** {1 Entry points} *)

val check_network :
  engine:Engine.t -> ?twin_exposed:bool -> Network.t -> Diagnostic.t list
(** All config-, ACL- and net-family findings for a network.  Per-device
    checks (including each device's ACLs and static-route resolution)
    and per-link checks fan out through [engine]; global cross-device
    checks (duplicate addresses, overlapping subnets) run on the calling
    domain.  [twin_exposed] (default false) additionally runs the SEC001
    secret-exposure check — set it when the network is (about to be)
    technician-visible.  With a context on the engine the pass is a
    tracer span and feeds the [lint.findings] counter; the report itself
    is byte-identical with or without instrumentation, at any domain
    count. *)

val check_privilege : ?network:Network.t -> ?label:string -> Privilege.t -> Diagnostic.t list
(** All privilege-family findings for one spec.  [network] enables the
    resource-existence checks; [label] is recorded as the diagnostics'
    device field (e.g. the ticket or issue the spec was generated for). *)

val check_acl : device:string -> Heimdall_net.Acl.t -> Diagnostic.t list
(** The ACL-family findings for a single access list. *)

val check_privilege_usage :
  ?label:string ->
  network:Network.t ->
  spec:Privilege.t ->
  changes:Heimdall_config.Change.t list ->
  unit ->
  Diagnostic.t list
(** PRV004: grants of [spec] that strictly exceed the privilege the
    change list exercised (see {!Heimdall_sem.Priv_sem}).  [label] is
    recorded as the diagnostics' device field. *)

val check_plans :
  engine:Engine.t ->
  ?policies:Heimdall_verify.Policy.t list ->
  network:Network.t ->
  Plan_lint.ticket list ->
  Diagnostic.t list
(** All PLAN-family findings for a batch of tickets (see {!Plan_lint}):
    static pre-flight analysis of each ticket's fix script against its
    privilege grant, scope, and the given policies — nothing executes.
    Tickets fan out through [engine]; the report is in
    canonical order, byte-identical at any domain count. *)

(** {1 Filtering and rendering} *)

val filter : min_severity:Diagnostic.severity -> Diagnostic.t list -> Diagnostic.t list

val apply_severity :
  min_severity:Diagnostic.severity -> Diagnostic.t list -> Diagnostic.t list * bool
(** The severity gate shared by every CLI front-end: the filtered
    report, plus whether the process should fail — decided on the
    {e filtered} findings, so a report that prints nothing never exits
    non-zero. *)

val count : Diagnostic.severity -> Diagnostic.t list -> int

val has_errors : Diagnostic.t list -> bool

val summary : Diagnostic.t list -> string
(** ["3 findings (1 error, 2 warnings)"] or ["clean"]. *)

val render : Diagnostic.t list -> string
(** Human-readable report: one line per diagnostic plus the summary. *)

val to_json : Diagnostic.t list -> Heimdall_json.Json.t
(** [{"findings": [...], "errors": n, "warnings": n, "info": n}] with
    findings in canonical order — stable across engine domain counts. *)
