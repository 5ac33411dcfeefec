(** The verification engine: parallel execution of policy checks,
    reachability traces and failure sweeps over memoized dataplanes.

    The paper's evaluation re-verifies ~181 policies over hundreds of
    rebuilt dataplanes; done naively that is single-threaded and
    recomputes identical artifacts many times over.  The engine fixes
    both costs:

    - {b Parallelism}: [map] fans independent work items out across a
      {e persistent} pool of OCaml 5 domains.  The helpers are spawned
      once (lazily, at the first parallel map) and reused for the
      engine's lifetime; each map posts one job to a shared chunked work
      queue, and workloads too small to amortize a wake-up run
      sequentially.  Results are written by index, so the output order —
      and therefore every verdict — is byte-identical regardless of the
      domain count.
    - {b Memoization}: [dataplane] runs one control-plane computation per
      structurally-distinct network, keyed by the composed per-device
      config digests of {!Heimdall_control.Network.digest}; passing
      [?base] reuses unchanged per-device work via
      {!Heimdall_control.Dataplane.recompute}; and with [?cache_dir] the
      built dataplanes persist on disk across runs.  Traces are not
      memoized: [trace] runs {!Trace.trace} every time and counts it.
      Repeats of one flow on one dataplane are a few percent of the
      traces a ticket or a sweep runs, too few to pay for a shared flow
      cache's locking.

    All entry points are safe to call from any domain.  An engine created
    with [~domains:1] never spawns, which keeps tier-1 tests
    deterministic and dependency-free. *)

open Heimdall_net
open Heimdall_control

type t

val create : ?domains:int -> ?obs:Heimdall_obs.Obs.t -> ?cache_dir:string -> unit -> t
(** [create ~domains ()] makes an engine whose [map] uses up to
    [domains] domains (including the caller's).  Defaults to
    {!default_domains}; values below 1 are clamped to 1.  Helper domains
    are not spawned here — the first [map] large enough to parallelize
    spawns them, and they then persist until {!shutdown} (or, as a
    backstop, until the engine is collected).

    With [?cache_dir], built dataplanes are also written to that
    directory (one marshalled file per network digest, created on
    demand) and later engines pointed at the same directory load them
    instead of recomputing.  The cache is self-invalidating: entries are
    keyed by structural digest and carry a format version, and any
    unreadable or stale entry is treated as a miss.

    With [?obs], the engine additionally streams its counters into the
    context's metrics registry ([engine.trace.run] /
    [engine.dataplane.built] / [engine.dataplane.cache_hit] /
    [engine.dataplane.persistent_hit], a [engine.dataplane.build_s]
    histogram, an [engine.domains_used] gauge) and wraps each {!phase}
    in a tracer span.  Observability never changes results — only the
    \[stats\] and the registry. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], capped to a small constant so a
    big host doesn't oversubscribe tiny work lists. *)

val domains : t -> int
(** The pool size the engine was created with. *)

val obs : t -> Heimdall_obs.Obs.t option
(** The observability context the engine was created with, if any.  It
    is the only context the verification entry points read: passing an
    engine is what instruments a pipeline end to end. *)

val scoped : t -> (string * string) list -> t
(** A view of the same engine whose context is
    {!Heimdall_obs.Obs.scoped} by the given labels (e.g. one per
    replayed session).  The view shares the pool, the dataplane cache
    and the counters with [t]; without a context it behaves exactly like [t].
    The engine's own metric series ([engine.dataplane.*],
    [engine.trace.*], [engine.map.*], [engine.phase_s]) recorded through
    the view carry its labels too, so they split per view. *)

val shutdown : t -> unit
(** Stop and join the engine's helper domains.  Idempotent; safe on
    engines that never spawned.  A subsequent [map] re-spawns helpers on
    demand, so shutdown is a resource release, not a poisoning.  Engines
    dropped without [shutdown] release their helpers via a GC finalizer,
    but long-lived programs should call this deterministically. *)

val dataplane : ?base:Dataplane.t -> t -> Network.t -> Dataplane.t
(** Memoized dataplane computation: one build per structurally-distinct
    network, keyed by {!Heimdall_control.Network.digest}.  Repeated
    calls with an equal network return the {e same} dataplane value.

    On a miss with [?base], the build runs
    {!Heimdall_control.Dataplane.recompute}[ ~base], which reuses the
    base's L2 map and per-device FIBs for devices whose routing inputs
    are unchanged — the natural choice when [net] is a small variation
    of a network whose dataplane is already in hand (a single-device
    change, one failure candidate of a sweep).  The result is
    byte-identical to a full compute either way. *)

val dataplane_of_changes :
  t -> production:Network.t -> Heimdall_config.Change.t list ->
  (Dataplane.t, string) result
(** Apply a change set and return the (memoized) dataplane of the
    resulting network, built incrementally against the production
    dataplane. *)

val trace : t -> Dataplane.t -> Flow.t -> Trace.result
(** {!Trace.trace}, counted: every call runs the trace and bumps the
    [traces_run] stat and the [engine.trace.run] counter.  Safe to call
    from any domain. *)

val map : ?min_per_domain:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel map with deterministic result order.  [f] must be safe to
    run from any domain (pure functions over networks, dataplanes and
    engine calls all are).

    The map runs sequentially — exactly [List.map] — unless there are at
    least [min_per_domain] items (default 16) per engaged domain; tiny
    fan-outs cost more in wake-ups and queue traffic than the work is
    worth.  Pass [~min_per_domain:1] to force parallelism for expensive
    items.  With a pool of 1 it is always [List.map].

    Degrades gracefully when {!Domain.spawn} fails (domain/thread limits
    on a loaded host): the shared work queue lets the caller's own worker
    drain every item, so results are identical — only slower.  Each
    failed spawn bumps the [spawn_fallbacks] stat and the
    [engine.spawn_fallbacks] gauge, and the next map retries the spawn.

    If [f] raises, the first exception (in claim order) is re-raised in
    the caller after the queue drains; remaining unstarted items are
    skipped. *)

val fail_spawn_for_tests : bool ref
(** Test hook: when set, [map] behaves as if every [Domain.spawn]
    failed, exercising the degraded single-domain path.  Never set this
    outside tests. *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f] and adds its wall-clock seconds (measured
    via {!Heimdall_obs.Clock.elapsed}, so clamped at zero) to the [name]
    bucket of {!stats}; with an [?obs] context it is also a tracer span
    and an [engine.phase_s{phase="<name>"}] histogram sample. *)

(** {1 Observability} *)

type stats = {
  traces_run : int;  (** Calls to {!trace}; every one runs. *)
  trace_cache_hits : int;
      (** Always 0: traces are not memoized.  Kept only because the
          ticket benchmark ([ticketbench/workload.ml]) reads it. *)
  trace_coalesced : int;
      (** Always 0, kept for the same reason as [trace_cache_hits]. *)
  dataplanes_built : int;  (** Dataplane computations (full or incremental). *)
  dataplanes_incremental : int;
      (** Subset of [dataplanes_built] that ran incrementally against a
          [?base] dataplane. *)
  dataplane_cache_hits : int;  (** Dataplanes answered from the digest cache. *)
  dataplane_persistent_hits : int;
      (** Dataplanes loaded from the on-disk cache instead of built. *)
  domains_used : int;  (** Largest pool [map] has actually engaged. *)
  spawn_fallbacks : int;
      (** [Domain.spawn] failures absorbed by the shared-queue fallback. *)
  phase_seconds : (string * float) list;
      (** Wall seconds per {!phase} bucket, in first-use order. *)
}

val stats : t -> stats
(** A consistent snapshot of the engine's counters. *)

val reset_stats : t -> unit

val stats_to_json : stats -> Heimdall_json.Json.t
(** Machine-readable form, persisted by [bench/main.exe] into
    [bench/report.json]. *)

val render_stats : stats -> string
(** Multi-line human-readable form, printed by [bench/main.exe]. *)

val runtime_sampler : t -> unit -> (string * float) list
(** A {!Heimdall_obs.Runtime.sampler} over this engine: gauges
    [engine.domains], [engine.domains_used],
    [engine.dataplane.cache_hit_rate] (digest + persistent hits over all
    dataplane requests), and [engine.spawn_fallbacks].  Register it with
    [Runtime.add_sampler] so the exporter's [/metrics] page tracks the
    engine live. *)
