(** The reference monitor: a technician session on the twin network.

    Every command the technician types is parsed, mapped to a privilege
    request, checked against the session's [Privilege_msp], and only then
    forwarded to the emulation/presentation layers.  Every attempt —
    allowed or denied — is recorded in the session log, which later feeds
    the enforcer's tamper-evident audit trail. *)

open Heimdall_privilege

type verdict = Allowed | Denied

type log_entry = {
  seq : int;
  technician : string;
  node : string;  (** Device in scope (or ["-"] before any connect). *)
  command : string;  (** Raw command text. *)
  action : Action.t;
  verdict : verdict;
}

val log_entry_to_string : log_entry -> string

type error =
  | Not_connected
  | Unknown_node of string
  | Bad_command of string
  | Denied_request of { action : Action.t; node : string }
  | Exec_failed of string

val error_to_string : error -> string

type t

val create :
  ?technician:string -> ?obs:Heimdall_obs.Obs.t -> privilege:Privilege.t ->
  Emulation.t -> t
(** A fresh session; [technician] defaults to ["tech"].  With [?obs]
    the monitor counts commands ([session.commands] / [session.denied])
    and records every privilege denial as a [privilege.denied] event —
    verdicts and the session log are unaffected. *)

val exec : t -> string -> (string, error) result
(** Execute one command line; returns console output.  Denied and
    malformed commands are still logged. *)

val exec_many : t -> string list -> (string, error) result list
(** Execute a prepared command list in order (does not stop on errors —
    matching how a scripted technician plows through). *)

val emulation : t -> Emulation.t
val privilege : t -> Privilege.t

val connected : t -> string option
val log : t -> log_entry list
(** All entries, oldest first. *)

val denied_count : t -> int
val command_count : t -> int
