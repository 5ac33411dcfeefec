(** A reproducible network issue: an injection that breaks a healthy
    network, the ticket it raises, and the prepared fix script (the
    paper's "level playing field": the technician replays a fixed command
    list, so measurements capture workflow overhead, not expertise). *)

open Heimdall_net
open Heimdall_control

type t = {
  name : string;  (** Short id: "ospf", "isp", "vlan", ... *)
  ticket : Ticket.t;
  inject : Network.t -> Network.t;  (** Break the healthy network. *)
  root_cause : string;  (** The node whose config must change. *)
  fix_commands : string list;  (** Technician script, including [connect]s. *)
  probe : Flow.t;  (** Flow that exhibits the symptom (broken → fixed). *)
}

val symptom_present : engine:Heimdall_verify.Engine.t -> t -> Network.t -> bool
(** True when the probe flow does NOT get delivered (the issue shows).
    The network's dataplane comes from the engine's memo cache, and the
    probe is an {!Heimdall_verify.Engine.trace}, counted in
    [engine.trace.run] like every other trace of a ticket. *)

val to_string : t -> string
