(** Statistics, regression bounds and verdict accounting shared by every
    workload of the ticket benchmark. *)

(** {1 Sampler} *)

type summary = { n : int; median : float; q1 : float; q3 : float }

val percentile : float list -> float -> float
(** [percentile xs p], [p] in [0, 100], interpolating linearly between
    order statistics.  @raise Invalid_argument on an empty list. *)

val summarize : float list -> summary
val spread : summary -> float
(** Interquartile distance over the median. *)

val min_samples : float -> int
(** The fewest samples that leave ten beyond the given percentile: a
    workload reports its tail percentile only once it has that many. *)

(** {1 Metrics and bounds} *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  rel_bound : float;  (** Share of the parent's median a change may lose. *)
  abs_floor : float;  (** Smallest loss that counts, in the metric's unit. *)
}

val metric : ?abs_floor:float -> string -> string -> better -> float -> metric

val end_to_end : metric list
(** Every end-to-end metric, in print order; the relative bounds are the
    ones in [BENCHMARK.json]. *)

val regressed : metric -> base:float -> value:float -> bool
(** Worse than [base] by more than the larger of the relative bound and
    the absolute floor. *)

type verdict = Gain | No_change | Regression | Unresolved

val verdict_to_string : verdict -> string

val wins : metric -> base:float list -> change:float list -> int * int
(** Pairs (run [i] of the parent, run [i] of the change) the change wins,
    and pairs compared. *)

val compare_runs : metric -> base:float list -> change:float list -> verdict
(** Runs of the parent and of the change, paired by position.  [Gain]
    when the change wins at least 9 pairs in 10 and the medians differ by
    more than the parent's interquartile distance; [Regression] when the
    change's median is {!regressed}; [Unresolved] when either side's
    spread exceeds the bound and not every change run beats every parent
    run; [No_change] otherwise. *)

(** {1 Verdict accounting} *)

type fingerprint = { approved : bool; digest : string; audit_head : string }
(** What a repeat of a distinct ticket must reproduce. *)

type observation = {
  hostile : bool;
  resolved : bool;
  denied : int;
  audit_ok : bool;
  report_ok : bool;
  production_changed : bool;
  fingerprint : fingerprint;
}

val ticket_failure : first:fingerprint option -> observation -> string option
(** Why a ticket run failed, if it did.  An honest ticket must be
    resolved with no denied command, a verifying audit chain and enclave
    report; a hostile ticket must be rejected and leave production as it
    was; a repeat must match [first], the first run of the same distinct
    ticket. *)

type tally = { mutable attempted : int; mutable failed : int; mutable reasons : string list }

val tally : unit -> tally
val record : tally -> label:string -> string option -> unit
val failed_frac : tally -> float
