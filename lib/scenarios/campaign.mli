(** A longitudinal MSP campaign simulation: a stream of tickets, a small
    fraction of them handled by a compromised technician account, replayed
    under both access models.

    This extends the paper's episodic experiments with the question an
    enterprise actually asks: {e over a quarter of outsourced operations,
    how much damage does each model accumulate}?  Incidents are generated
    from a seeded in-repo PRNG, so campaigns are fully reproducible. *)

open Heimdall_control

type event_kind =
  | Honest_repair  (** A real fault, fixed by the prepared script. *)
  | Exfiltration  (** APT10-style credential harvest attempt. *)
  | Rogue_change  (** Malicious ACL opening of the protected subnet. *)
  | Careless  (** Fat-fingered erase on a gateway. *)

val event_kind_to_string : event_kind -> string

type event = { index : int; kind : event_kind }

type model = Rmm_model | Heimdall_model

val model_to_string : model -> string

type tally = {
  model : model;
  tickets : int;
  repaired : int;  (** Honest repairs that resolved the fault. *)
  secrets_leaked : int;  (** Distinct secret values exposed, summed. *)
  policies_damaged : int;  (** Newly violated policies reaching production. *)
  attacks_blocked : int;  (** Malicious/careless events stopped. *)
}

val render : tally list -> string

val events : seed:int -> tickets:int -> malicious_pct:int -> event list
(** A reproducible event stream: [malicious_pct]% of events are drawn
    uniformly from the three hostile kinds, the rest are honest repairs. *)

val run :
  engine:Heimdall_verify.Engine.t -> ?seed:int -> ?tickets:int -> ?malicious_pct:int ->
  Network.t -> Heimdall_verify.Policy.t list -> Heimdall_msp.Issue.t list -> tally list
(** Replay the same event stream under both models on the given network
    (defaults: seed 42, 40 tickets, 20% malicious).  Honest repairs pick
    (round-robin) from the provided issues. *)
