(** One entry point per paper artifact (see DESIGN.md's experiment index).
    Each [run_*] returns structured results plus a paper-shaped textual
    rendering; the bench harness and the CLI both go through here. *)

open Heimdall_control

(** {2 Table 1 — evaluation networks} *)

type table1_row = {
  network : string;
  routers : int;  (** Router + firewall devices. *)
  hosts : int;
  links : int;
  policies : int;
  config_lines : int;
}

val table1 : unit -> table1_row list
val render_table1 : table1_row list -> string

(** {2 Figure 7 — pilot study timing} *)

type fig7_cell = {
  issue : string;
  workflow : string;
  steps : (string * float) list;  (** Step label, seconds (human+compute). *)
  total_s : float;
  resolved : bool;
}

val fig7 :
  engine:Heimdall_verify.Engine.t -> ?network:[ `Enterprise | `University ] -> unit ->
  fig7_cell list
(** Default [`Enterprise] (the paper omits the university plot "due to
    similarity"). *)

val render_fig7 : fig7_cell list -> string

val fig7_overhead : fig7_cell list -> (string * float) list
(** Heimdall-minus-Current total per issue — the paper's headline "+28 s
    average" number. *)

(** {2 Figures 8 & 9 — attack surface vs feasibility} *)

val fig8 : engine:Heimdall_verify.Engine.t -> unit -> Metrics.summary list
(** Enterprise sweep: All / Neighbor / Heimdall, on the engine's domain
    pool and caches. *)

val fig9 : engine:Heimdall_verify.Engine.t -> unit -> Metrics.summary list
(** University sweep. *)

val render_sweep : title:string -> Metrics.summary list -> string

(** {2 Ablations} *)

type verify_ablation = {
  policies_checked : int;
  batch_s : float;  (** One verification at ticket close (Heimdall). *)
  continuous_s : float;  (** Verify after every technician action (strawman). *)
  actions : int;
}

val ablation_verify : unit -> verify_ablation
(** Runs on the university network (the paper's "25 s to check 175
    constraints" strawman).  Every verification runs on a fresh
    single-domain engine, so each one builds its dataplane from scratch. *)

val render_ablation_verify : verify_ablation -> string

type slicer_ablation_row = {
  strategy : string;
  mean_slice_nodes : float;
  network_nodes : int;
  repair_feasible_pct : float;
}

val ablation_slicer : unit -> slicer_ablation_row list
(** Slice size vs repair feasibility for All/Neighbor/Path/Task over the
    enterprise issues and the interface-failure sweep endpoints. *)

val render_ablation_slicer : slicer_ablation_row list -> string

type audit_ablation = {
  records : int;
  append_per_s : float;
  verify_s : float;
  seal_unseal_s : float;  (** Seal + unseal of the audit head, per op. *)
  tamper_detected : bool;
}

val ablation_audit : unit -> audit_ablation
val render_ablation_audit : audit_ablation -> string

(** {2 Campaign simulation (longitudinal extension)} *)

val campaign :
  engine:Heimdall_verify.Engine.t -> ?seed:int -> ?tickets:int -> ?malicious_pct:int ->
  unit -> Campaign.tally list
(** Run the campaign on the enterprise network. *)

(** {2 Attack containment (motivating incidents, §2.2)} *)

type containment = {
  scenario : string;
  baseline_leaked : int;  (** Secrets exfiltrated / damage under RMM. *)
  baseline_damage : int;  (** Policies broken in production under RMM. *)
  heimdall_leaked : int;
  heimdall_damage : int;
  heimdall_blocked : bool;  (** Monitor or enforcer stopped the attack. *)
}

val attack_containment : engine:Heimdall_verify.Engine.t -> unit -> containment list
val render_containment : containment list -> string

(** {2 Helpers} *)

val enterprise : unit -> Network.t * Heimdall_verify.Policy.t list
(** Cached healthy enterprise network + policies. *)

val university : unit -> Network.t * Heimdall_verify.Policy.t list

(** {2 Named scenarios}

    The evaluation networks, keyed by name.  Carrying the name alongside
    the network means downstream consumers (the CLI in particular) never
    have to guess which scenario a [Network.t] came from by probing for
    well-known node names. *)

type scenario = {
  scenario_name : string;  (** ["enterprise"] or ["university"]. *)
  net : Network.t;
  policies : Heimdall_verify.Policy.t list;
  issues : Heimdall_msp.Issue.t list;
}

val scenario_names : string list

val scenario_of_name : string -> scenario option
(** Cached, like {!enterprise}/{!university}.  Also accepts generated
    fleet specs (["fleet:fat-tree:k=8:seed=42"], see {!Fleetgen}) —
    those are rebuilt per call (deterministic, not cached). *)
