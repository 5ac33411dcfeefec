(** OSPF control-plane simulation.

    Implements the parts of OSPF the paper's scenarios exercise: interface
    participation via [network P area A] statements (with per-interface
    area/cost overrides), adjacency formation (same subnet, same area,
    L2-adjacent, both ends up), per-area shortest-path-first route
    computation, inter-area routes through area border routers, and
    [default-information originate].

    A wrong area or a shut interface silently breaks adjacency — exactly
    the failure mode of the paper's OSPF troubleshooting ticket. *)

open Heimdall_net

type iface = {
  router : string;
  iface : string;
  addr : Ifaddr.t;
  area : int;
  cost : int;
}
(** An OSPF-speaking interface. *)

val enabled_interfaces : Network.t -> iface list
(** All OSPF-enabled interfaces in the network (router has an [ospf]
    stanza, interface is up, addressed, and covered by a [network]
    statement). *)

val adjacencies : Network.t -> L2.t -> (iface * iface) list
(** Formed adjacencies (each unordered pair listed once, lower router name
    first). *)

val all_routes : Network.t -> L2.t -> (string * Fib.route list) list
(** OSPF candidate routes for every router, computed in one pass (one SPF
    fixpoint shared by all nodes); routers with no routes are omitted.

    The fixpoint keeps, per [(router, prefix string)] key, the best metric
    and the neighbour it was learned through; among equal-metric offers the
    first wins, so the result depends on the order of offers, which is the
    [Hashtbl.fold] order of those keys (an unseeded table, whatever
    [OCAMLRUNPARAM] says).  It is evaluated semi-naively: origins are
    offered in round 1 only, and each later round re-advertises through
    area border routers only the entries set since the previous round's
    snapshot, in the same fold order.  This is exact — the routes and their
    order are those of re-offering every entry every round — because an
    offer replaces an entry only when it strictly lowers the metric: entries
    only improve, so an unchanged entry would repeat offers that already
    lost, and a rejected offer leaves the table untouched. *)

val routes : Network.t -> L2.t -> string -> Fib.route list
(** OSPF candidate routes for the given router. *)
