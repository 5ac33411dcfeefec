(** A complete modelled network: physical topology plus one configuration
    per device.  This is the object every other layer works on — the
    production network, a twin network, and the enforcer's shadow copies
    are all values of this type. *)

open Heimdall_net
open Heimdall_config

type t

val make : Topology.t -> (string * Ast.t) list -> t
(** [make topo configs] pairs each device with its config.
    @raise Invalid_argument if a config is supplied for an unknown node,
    if a node lacks a config, or if a config's hostname differs from its
    node name. *)

val topology : t -> Topology.t
val config : string -> t -> Ast.t option

val config_exn : string -> t -> Ast.t
(** @raise Invalid_argument on unknown node. *)

val configs : t -> (string * Ast.t) list
(** All configs, sorted by node name. *)

val node_names : t -> string list
val kind : string -> t -> Topology.node_kind option

val with_config : string -> Ast.t -> t -> t
(** Functionally replace one device's config.
    @raise Invalid_argument on unknown node. *)

val apply_changes : Change.t list -> t -> (t, string) result
(** Apply a change list, returning the updated network. *)

val owner_of_address : Ipv4.t -> t -> (string * string) option
(** [(node, iface)] owning the given (exact) interface address, if any.
    When several interfaces carry the address, the first in (node name,
    interface order) wins.  This scans every device: the ticket hot path
    (tracing) reads {!Dataplane.owner_of_address}, an index with the same
    tie-break built once per dataplane.  The callers that keep the scan —
    [Slicer], [Net_lint] and [Mine] — are off the ticket hot path and
    ask a few times per call. *)

val host_address : string -> t -> Ipv4.t option
(** The primary (first) interface address of a node — how we name hosts
    in flows. *)

val restrict : string list -> t -> t
(** Keep only the named nodes and the links among them (used to build twin
    networks from a slice). *)

val digest : t -> string
(** A structural digest of the whole network, composed from a topology
    digest plus one digest per device config.  Digests are maintained
    incrementally: {!with_config} re-digests exactly the touched device,
    so digesting a 1-change variant of a large network costs one device
    marshal, not a whole-network marshal.  Two networks with equal
    topologies and structurally-equal configs share a digest. *)

val device_digest : string -> t -> string option
(** The structural digest of one device's config, if the node exists. *)

val changed_devices : t -> t -> string list option
(** [changed_devices a b] lists the devices whose config digests differ,
    in name order — [Some []] when the networks are structurally equal.
    [None] when the comparison is meaningless (different topologies or
    node sets), in which case callers must treat everything as changed. *)

val total_config_lines : t -> int
(** Sum of {!Heimdall_config.Printer.line_count} over all devices (the
    paper's "lines of configs" column). *)

val validate : t -> (unit, string) result
(** Structural checks: every wired L3 link joins interfaces in the same
    subnet; every referenced ACL exists; every switchport VLAN is defined
    on its switch. *)
