(** The Watchtower HTTP exporter: a dependency-free HTTP/1.1 server
    (stdlib [Unix] + one accept thread) that serves an {!Obs.t}'s live
    state to scrapers.

    Endpoints:
    - [/metrics] — Prometheus text exposition ({!Metrics.to_prometheus})
    - [/metrics.json] — the same registry as JSON
    - [/healthz] — liveness JSON from the health thunk; HTTP 200 when
      healthy, 503 when not
    - [/spans] — recent finished spans as an indented tree
    - [/events] — the event ring tail (plus [length]/[dropped]) as JSON

    Malformed requests get 400, non-GET 405, unknown paths 404.  A
    connection that has not sent its request headers within a fixed
    one-second deadline also gets 400, so a silent client can hold up
    the (one-at-a-time) accept loop, and {!stop}, for at most that long.  Every
    request increments [exporter.requests{path="..."}] in the served
    registry, before the response body renders — so even the first
    /metrics scrape observes itself.  Serving only reads snapshots — it never influences the
    instrumented computation. *)

type t

type health = unit -> bool * (string * Heimdall_json.Json.t) list
(** Returns overall liveness plus extra JSON members for the [/healthz]
    body (e.g. drift-monitor status).  Called on every scrape; keep it
    cheap and non-blocking. *)

val create :
  ?host:string -> ?port:int -> ?health:health -> Obs.t -> (t, string) result
(** Bind and listen on [host] (default ["127.0.0.1"]) and [port]
    (default 0 = kernel-assigned; read the actual one with {!port}).
    [Error msg] when the address is bad or the port is already in use —
    no exception escapes.  The server does not accept connections until
    {!start}. *)

val port : t -> int
(** The bound port (resolved when [create] was given port 0). *)

val start : t -> unit
(** Spawn the accept-loop thread.  Idempotent. *)

val stop : t -> unit
(** Close the listener and join the accept thread.  Idempotent; safe to
    call without {!start}. *)

val get :
  ?host:string -> port:int -> string -> (int * string, string) result
(** A tiny stdlib HTTP client: [get ~port "/metrics"] returns
    [(status code, body)].  Used by the CI smoke test and the [serve
    --once] self-scrape; speaks just enough HTTP for this server. *)
