(** Quiet-host gate for timed operations.

    The hosts this benchmark runs on share their cores with other
    tenants: a fixed loop runs 1.2-1.8x slower for seconds at a time, and
    without a guard the run-to-run spread of a median latency reached
    6-15%.  So a canary -- a fixed, allocation-free pass over a 256 KiB
    array -- is timed before and after every measured operation.  An
    operation counts only when both readings are within 10% of the 5th
    percentile of the run's readings so far; otherwise it waits for a
    quiet reading and runs again.  Waiting is bounded per operation and
    per run, so a host that never quiets down still finishes the run. *)

type t

val create : unit -> t
(** A gate calibrated with 32 canary readings.  The run may spend up to
    half its measured time, plus 2 s, waiting for quiet and re-running
    operations; past that, every operation counts. *)

val settle : t -> unit
(** Run a full major GC, then wait (at most 2 s) for a quiet reading. *)

val measure : t -> (unit -> 'a) -> ('a -> unit) -> 'a * float
(** [measure g op check] runs [op] after {!settle} until a run both
    starts and ends on a quiet host, or patience runs out, and returns
    the result and wall time of the run that counts.  [check] sees the
    result of every run, counted or not. *)
