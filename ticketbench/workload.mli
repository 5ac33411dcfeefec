(** The benchmark's workloads: their inputs, the timed pass that gives
    the end-to-end metrics, and the traced pass that splits a ticket (or
    a sweep) across the layers it calls. *)

type inputs
(** What a workload's set-up builds: distinct tickets, or a network to
    sweep. *)

type t = {
  name : string;
  why : string;
  setup : seed:int -> inputs;
  tail_pct : float;  (** The percentile [latency_tail_s] reports. *)
  traced : int;  (** Distinct tickets the traced pass covers. *)
}

val all : t list
val find : string -> t option

(** {1 Results} *)

type counts = { traces : int; dp_full : int; dp_incr : int; dp_hits : int }
(** Engine-counter deltas: traces run, dataplanes built from scratch or
    incrementally, dataplanes answered from a cache. *)

type traced = {
  ops : int;
  self_s : (string * float) list;
      (** Self time per layer, summed over operations; [""] is the
          unattributed rest of the root spans. *)
  counts : (string * counts) list;  (** Per ticket layer. *)
  wall_s : float;  (** Sum of the root spans. *)
  untraced_s : float;  (** The same operations, run untraced. *)
  engine : Heimdall_verify.Engine.stats list;
      (** One per traced operation at the timed domain count. *)
  schedule_steps : int;
  impact_flipped : int;
  impact_pairs : int;
  denied : int;
  map_speedup : float;  (** 0 when no N-domain map ran. *)
  spans : Heimdall_obs.Tracer.span list;
}

type timed = {
  latency : Harness.summary;
  tail_s : float;
  throughput_per_s : float;
  peak_rss_mb : float;
}

type result = {
  workload : t;
  distinct : int;
  inputs : string;  (** What was measured, for the printout. *)
  op : string;  (** ["tickets"] or ["sweeps"]. *)
  tally : Harness.tally;
  setup_s : float;  (** Median of {!setup_reps} builds of the inputs. *)
  timed : timed option;
  traced : traced option;
}

val setup_reps : int

val ticket_layers : string list
(** The layers of a ticket, in call order. *)

val sweep_layers : string list

val run :
  ?min_n:int -> seed:int -> seconds:float -> timed:bool -> traced:bool -> t -> result
(** Build the inputs {!setup_reps} times, run one untimed warm-up, then
    the passes asked for.  The timed pass is a closed loop with one
    client that runs for at least [seconds], at least [min_n] operations
    (default: enough for [tail_pct]) and a whole number of cycles of the
    distinct inputs.  Every operation is checked; failures land in
    [tally]. *)

(** {1 Metrics} *)

type metric = { name : string; value : float; unit : string }

val ratio : float -> float -> float
(** [a /. b], or 0 when [b] is 0. *)

val end_to_end_metrics : result -> metric list
(** Every {!Harness.end_to_end} metric, or none without a timed pass. *)

val per_layer_metrics : result -> metric list
(** The same names for every workload, or none without a traced pass;
    a layer the workload never enters reads 0. *)
