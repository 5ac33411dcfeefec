(** The computed dataplane: one FIB per L3 device plus the L2 domain map.
    This is what the verification layer traces flows over — the moral
    equivalent of Batfish's dataplane. *)

open Heimdall_net

type t

val compute : Network.t -> t
(** Run the whole control plane: connected + static + OSPF routes,
    admin-distance selection, per-node FIBs, plus host default gateways. *)

val recompute : base:t -> Network.t -> t
(** [recompute ~base net] builds the dataplane of [net] reusing work from
    [base] (the dataplane of a structurally-similar network — typically
    the production network [net] was derived from by a change set).  The
    result is byte-identical to [compute net]; only the cost differs:

    - a change that leaves every device's routing inputs untouched (ACL
      edits, descriptions, secrets) reuses the L2 map and every FIB;
    - a change that leaves L2 attachments untouched (static routes, OSPF
      costs) reuses the L2 map and rebuilds only FIBs whose candidate
      routes actually differ;
    - anything else — including a different topology or node set — falls
      back to a full [compute]. *)

val network : t -> Network.t
val l2 : t -> L2.t

val fib : string -> t -> Fib.t
(** FIB of a node (empty for switches and unknown nodes). *)

val connected_routes : Network.t -> string -> Fib.route list
(** Connected candidates of a node (exposed for tests). *)

val static_routes : Network.t -> string -> Fib.route list
(** Static candidates, including the host default-gateway route; a static
    route whose next hop is not inside any connected subnet is ignored
    (unresolvable). *)

val owner_of_address : Ipv4.t -> t -> (string * string) option
(** [(node, iface)] owning the given (exact) interface address in the
    dataplane's network, if any.  Read from an index built with the
    dataplane, so a lookup costs O(log addresses) rather than a scan of
    every device.  When several interfaces carry the address, the first
    in (node name, interface order) wins — the same answer as
    {!Network.owner_of_address}, whichever build path ([compute] or
    [recompute]) made the dataplane.  {!Heimdall_verify.Trace.trace} and
    {!l3_neighbour} and [Metrics] use it; [Slicer], [Net_lint] and [Mine]
    keep the scan, off the ticket hot path. *)

val l3_neighbour : t -> string -> Ipv4.t -> (string * string) option
(** [l3_neighbour dp node addr] finds which [(peer_node, peer_iface)] the
    given node can hand a packet for next-hop [addr] to: the owner of
    [addr] must share an L2 domain with one of [node]'s interfaces. *)

(** {1 Delta}

    A trace of a flow reads exactly these parts of a dataplane: the
    owner of the flow's source in the address index; then, at each hop,
    the node's config (ACLs, bindings and the addresses [owns_addr]
    checks), its FIB's longest-prefix match for the destination, the
    owner of the route's next hop (or of the destination, for a
    connected route), and the L2 domain of the egress interface (the
    endpoints it attaches, to find the peer, and the switches it
    bridges).  A delta lists every such part that differs between two
    dataplanes of one topology, so that a trace that reads none of them
    is known to come out the same on both. *)

type delta
(** Everything a trace can read that changed:
    - (a) devices whose config changed ({!Network.changed_devices});
    - (b) nodes with an L3 endpoint whose L2 domain content (attached
      endpoints plus bridging switches) changed — skipped when the L2
      map is physically shared;
    - (c) per node, the FIB prefixes whose installed route changed —
      only FIBs that {!recompute} did not share physically are diffed;
    - (d) addresses whose owner moved in the index, plus every node
      whose FIB has a route with a next hop among them. *)

val delta : before:t -> after:t -> delta option
(** [None] when the topology or node set differs: then nothing can be
    reused and every trace must be re-run. *)

val touches : delta -> string -> Ipv4.t -> bool
(** [touches d node dst]: a trace towards [dst] that visits [node] may
    read something [d] changed there — [node] is in (a), (b) or (d), or
    one of its changed prefixes covers [dst].  Allocates nothing. *)

val address_moved : delta -> Ipv4.t -> bool
(** The address's owner differs between the two index builds (d). *)

val route_counts : t -> (string * int) list
(** Installed route count per node (diagnostics / benches). *)

val digest : t -> string
(** A canonical hex digest of the forwarding state: every node's FIB
    routes, sorted, plus the L2 domains (attached interfaces and bridging
    switches), sorted.  Equal forwarding gives equal digests whatever the
    build path (full or incremental) or the runtime's hash seed — unlike
    [Marshal] of a value that holds hashtables. *)
