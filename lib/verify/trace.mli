(** Flow tracing over a computed dataplane: the engine behind reachability
    queries, policy checking, ping/traceroute in the twin network, and the
    spec miner. *)

open Heimdall_net
open Heimdall_control

type direction = In | Out

type drop_reason =
  | No_route of { node : string }
      (** FIB lookup failed. *)
  | Acl_denied of {
      node : string;
      iface : string;
      dir : direction;
      acl : string;
      rule_seq : int option;  (** [None] when the implicit deny fired. *)
    }
  | No_l2_path of { node : string; towards : Ipv4.t }
      (** Next hop known but no layer-2 path to it (shut port, wrong VLAN,
          unplugged cable). *)
  | Unknown_destination of { node : string; addr : Ipv4.t }
      (** The destination address is configured on no device. *)
  | Unknown_source of { addr : Ipv4.t }
      (** No device owns the flow's source — nothing can originate it. *)
  | Ttl_exceeded
      (** Hop budget exhausted: a forwarding loop. *)

val drop_reason_to_string : drop_reason -> string

type hop = {
  node : string;
  in_iface : string option;  (** [None] at the originating node. *)
  out_iface : string option;  (** [None] at the delivering node. *)
  l2_path : string list;  (** Switches bridging the egress segment. *)
}

type result = Delivered of hop list | Dropped of drop_reason * hop list

val is_delivered : result -> bool
val hops : result -> hop list

val nodes_on_path : result -> string list
(** Every L3 node and switch the flow touched, in order, without
    duplicates. *)

val trace : Dataplane.t -> Flow.t -> result
(** Forward-simulate one flow.  ACLs are evaluated outbound on each egress
    interface and inbound on each ingress interface; hosts originate and
    receive but do not forward. *)

val unaffected : Dataplane.delta -> Flow.t -> result -> bool
(** [unaffected d flow r], where [r = trace before flow] and
    [Some d = Dataplane.delta ~before ~after]: no hop of [r] (node or
    [l2_path] switch) is touched by [d] for [flow.dst]
    ({!Dataplane.touches}), and neither [flow.src] nor [flow.dst] moved
    owner.  Then [trace after flow = r] structurally, because [trace]
    reads nothing else (see {!Dataplane.delta}); a [false] only means
    the trace must be re-run.  Allocates nothing. *)

val result_to_string : result -> string
(** Multi-line traceroute-style rendering. *)
