(** Task-driven [Privilege_msp] generation (paper Challenge 1: crafting a
    fine-grained spec by hand is tedious and error-prone, so Heimdall
    derives one from the ticket).

    The generated spec allows read/diagnose actions on every node in the
    twin slice and the repair actions matching the ticket's kind on the
    slice's infrastructure nodes.  Everything else — other nodes, secret
    changes, destructive [system.*] commands — falls to the default
    deny. *)

open Heimdall_control
open Heimdall_privilege

val repair_actions : Ticket.kind -> string list
(** The mutation actions a ticket class plausibly needs:
    - [Connectivity]: interface, ACL, static-route and OSPF repairs;
    - [Routing]: interface, OSPF and static-route repairs;
    - [Vlan]: VLAN/switchport and interface repairs;
    - [External]: static/default routing, addressing and interface repairs. *)

val for_ticket : network:Network.t -> slice:string list -> Ticket.t -> Privilege.t
(** Generate the spec.  Hosts in the slice get read-only access;
    infrastructure nodes (routers, switches, firewalls) also get the
    ticket-class repair actions. *)
