(** Layer-2 broadcast domains.

    Hosts, routers and firewalls attach untagged; switches bridge per-VLAN.
    Two L3 interfaces can exchange frames iff they end up in the same
    domain: directly cabled, or bridged by switch ports in the right VLANs
    (access ports join their VLAN's domain; trunk links splice the VLANs
    allowed on both ends; an access↔trunk mismatch does not bridge —
    that is precisely the paper's VLAN misconfiguration scenario).
    Disabled interfaces attach nowhere. *)

open Heimdall_net

type t

val compute : Network.t -> t
(** Compute all domains for the current configs. *)

type domain_id = int

val domain_of : Topology.endpoint -> t -> domain_id option
(** Domain of an L3 interface ([None] if unwired, shut down, or not L3). *)

val same_domain : Topology.endpoint -> Topology.endpoint -> t -> bool

val domain_switches : domain_id -> t -> string list
(** Switches bridging a domain, sorted — the L2 nodes a frame in this
    domain may traverse. *)

val domains : t -> (domain_id * Topology.endpoint list) list
(** All domains with their attached L3 interfaces (sorted). *)

val changed_endpoints : before:t -> after:t -> Topology.endpoint list
(** L3 endpoints (sorted) whose domain content — attached endpoints plus
    bridging switches — differs between two builds over one topology,
    including endpoints attached in one build only.  Every other
    endpoint gets the same {!same_domain} and {!domain_switches}
    answers from both. *)
