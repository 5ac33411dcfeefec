(** Whole-network reachability matrices and change-impact analysis.

    The enforcer uses this to answer the operator's real question about a
    change set: {e who can talk to whom now that couldn't before — and
    who lost connectivity}? *)

open Heimdall_control

type matrix
(** Host-pair ICMP reachability: for every ordered pair of addressed
    hosts, whether a flow is delivered. *)

val compute : engine:Engine.t -> Dataplane.t -> matrix
(** One trace per ordered host pair.  The pairs fan out across the
    engine's domain pool; the matrix is identical at any domain
    count.  With a context on the engine the
    computation is a tracer span with host/pair-count attributes. *)

val reachable : src:string -> dst:string -> matrix -> bool option
(** [None] when either host is unknown/unaddressed. *)

val pair_count : matrix -> int
val reachable_count : matrix -> int

type impact = {
  gained : (string * string) list;  (** Newly connected (src, dst). *)
  lost : (string * string) list;  (** Newly disconnected. *)
}

val diff : before:matrix -> after:matrix -> impact
(** Pairs — over the union of both matrices — whose verdict flipped.  A
    pair present only in [after] (host added by the change) counts as
    gained when reachable; one present only in [before] as lost. *)

val impact_to_string : impact -> string
(** ["no reachability change"] or a +/- listing. *)

val impact : engine:Engine.t -> production:Network.t -> Network.t -> impact
(** [impact ~engine ~production updated]: both matrices around a change,
    with [updated]'s dataplane built incrementally on production's. *)
