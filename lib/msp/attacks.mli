(** Attack scenarios from the paper's motivation (§2.2), replayable
    against either the baseline RMM session or a Heimdall twin session:

    - {b data breach} (APT10-style): the technician account tries to read
      credentials off devices and exfiltrate them;
    - {b malicious change}: alongside a legitimate fix, the technician
      slips in an ACL rule opening a sensitive host;
    - {b careless destruction}: an erase command on the gateway router. *)

open Heimdall_control
open Heimdall_twin
open Heimdall_verify

type exfiltration = {
  attempted : int;  (** Commands issued. *)
  denied : int;  (** Commands the monitor refused. *)
  leaked : string list;  (** Production secret values visible in output. *)
}

val exfiltrate : production:Network.t -> targets:string list -> Session.t -> exfiltration
(** Replay the APT10 playbook ([connect] + [show running-config] on every
    target) in the given session and report what leaked.  [production]
    supplies the ground-truth secrets. *)

val malicious_acl_commands : acl:string -> seq:int -> src:Heimdall_net.Prefix.t ->
  dst:Heimdall_net.Prefix.t -> node:string -> string list
(** The command pair that sneaks a permit rule into an ACL on [node]. *)

val erase_gateway_commands : gateway:string -> string list

val policy_damage :
  engine:Engine.t -> policies:Policy.t list -> before:Network.t -> after:Network.t -> int
(** How many policies that held on [before] are violated on [after] —
    the blast radius of an attack that reached production. *)
