(** Network policies and the policy checker.

    Policies are the invariants the enterprise cares about (mined by
    {!Spec_miner} or written by the admin); the policy enforcer re-checks
    them before any technician change reaches production. *)

open Heimdall_net
open Heimdall_control

type intent =
  | Reachable  (** The flow must be delivered. *)
  | Isolated  (** The flow must NOT be delivered. *)
  | Waypoint of string  (** Delivered, and the path must cross this node. *)

type t = {
  id : string;  (** Stable identifier, e.g. ["reach:web1->db1:tcp80"]. *)
  src_label : string;  (** Human name of the source (node or subnet). *)
  dst_label : string;
  flow : Flow.t;
  intent : intent;
}

val reachable : ?id:string -> src_label:string -> dst_label:string -> Flow.t -> t
val isolated : ?id:string -> src_label:string -> dst_label:string -> Flow.t -> t
val waypoint : ?id:string -> src_label:string -> dst_label:string -> via:string -> Flow.t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

type verdict = Holds | Violated of string
(** [Violated reason] carries a human-readable explanation. *)

val verdict_of_trace : t -> Trace.result -> verdict
(** Judge a policy against a trace of its flow. *)

type report = {
  total : int;
  violations : (t * string) list;  (** Violated policies with reasons. *)
}

val check_all : engine:Engine.t -> Dataplane.t -> t list -> report
(** Check every policy, one trace each.  Checks fan out across the
    engine's domain pool; verdicts are identical at any domain count.
    With a context on the engine the check is a tracer span and feeds
    the [policy.checked] / [policy.violations] counters; instrumentation
    never changes the report. *)

val check_both :
  engine:Engine.t -> before:Dataplane.t -> after:Dataplane.t -> t list -> report * report
(** [check_both ~engine ~before ~after policies] is
    [(check_all ~engine before policies, check_all ~engine after policies)]
    in one pass: each policy's flow is traced on [before], and traced
    again on [after] only when {!Trace.unaffected} cannot rule out that
    the change reaches its path (always, when {!Dataplane.delta} is
    [None]); otherwise the [before] verdict stands for both.  A
    [policy.check_both] span with [policies]/[retraced]/[violations]
    (after) attributes and a [policy.retraced] counter; the
    [policy.checked]/[policy.violations] counters see both reports. *)

val holds_all : engine:Engine.t -> Dataplane.t -> t list -> bool
