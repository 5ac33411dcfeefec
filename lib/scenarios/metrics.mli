(** The Figure 8/9 experiment: the security/feasibility trade-off sweep.

    Paper methodology (§5): create an issue by bringing down each
    interface in turn; for each access technique check whether the
    technician can reach the root-cause node (feasibility), then count
    the commands the technique exposes and the policies those commands
    could violate, and combine them into the attack-surface metric

    {v AS(%) = (Σ C_n / Σ A_n) · 0.5 + (VP / P) · 0.5) · 100 v}

    where [C_n]/[A_n] are allowed/available commands on node [n], [VP]
    the number of potentially violable policies and [P] the policy
    count. *)

open Heimdall_net
open Heimdall_control
open Heimdall_verify

type technique = All_access | Neighbor_access | Heimdall_twin

val technique_to_string : technique -> string

type point = {
  failed : Topology.endpoint;  (** The interface brought down. *)
  feasible : bool;  (** Technician can repair the root cause. *)
  attack_surface : float;  (** Percentage, per the formula above. *)
  exposed_nodes : int;  (** Nodes with at least one allowed command. *)
}

type summary = {
  technique : technique;
  points : point list;
  feasibility_pct : float;  (** % of failures repairable. *)
  attack_surface_pct : float;  (** Mean attack surface. *)
}

val failure_candidates : Network.t -> Topology.endpoint list
(** The interfaces swept: wired, addressed, enabled ports plus SVIs on
    routers and firewalls. *)

val sweep :
  engine:Engine.t ->
  production:Network.t -> policies:Policy.t list -> technique -> summary
(** One technique over every failure candidate.  The points run across
    the engine's domain pool and dataplanes/traces are memoized; the
    prepare and evaluate passes share the one engine, so the caches the
    sweep warms serve its evaluation too.  Verdicts are identical for
    any domain count. *)

val sweep_all :
  engine:Engine.t ->
  production:Network.t -> policies:Policy.t list -> unit -> summary list
(** All three techniques over the same failures (shared per-failure
    work); order: All, Neighbor, Heimdall. *)
