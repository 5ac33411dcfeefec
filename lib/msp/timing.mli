(** The deterministic human-latency model for the pilot-study timing
    experiment (Figure 7).

    The paper measures wall-clock time of a human technician replaying a
    prepared command list.  We cannot employ a human, so per-step human
    latencies are fixed constants (calibrated to land in the paper's
    reported range), while all Heimdall computation (privilege generation,
    twin construction, verification, scheduling) is genuinely measured on
    this machine and reported separately.  The comparison between the
    Current and Heimdall workflows is fair because both use identical
    human constants for the shared steps. *)

val connect_s : float
(** Opening a console on a device (5 s). *)

val per_command_s : float
(** Typing/reading one command (4 s). *)

val save_s : float
(** Documenting and saving changes (3 s). *)

val privilege_review_s : float
(** Admin reviewing the generated Privilege_msp (5 s). *)

val twin_boot_base_s : float
(** Base twin provisioning latency a real emulator would add (8 s). *)

val twin_boot_per_node_s : float
(** Additional provisioning latency per emulated node (0.5 s). *)

val verify_review_s : float
(** Operator acknowledging the verification/scheduling report (4 s). *)
