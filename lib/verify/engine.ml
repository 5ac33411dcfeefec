open Heimdall_net
open Heimdall_control

(* ------------------------------------------------------------------ *)
(* Persistent domain pool                                              *)
(* ------------------------------------------------------------------ *)

(* Helper domains are spawned once (lazily, on the first parallel [map])
   and then reused for the engine's whole lifetime: each [map] posts one
   job — a closure that drains a shared chunk queue — bumps a generation
   counter and wakes the helpers.  The caller's own domain always drains
   the same queue, so a helper that is slow to wake (or was never
   successfully spawned) degrades throughput, never correctness. *)
type pool = {
  target : int;  (* helper domains wanted = domains - 1 *)
  pm : Mutex.t;
  work : Condition.t;  (* a job was posted, or the pool is stopping *)
  idle : Condition.t;  (* some job's queue was fully drained *)
  mutable gen : int;
  mutable job : (unit -> unit) option;
  mutable stopping : bool;
  mutable helpers : unit Domain.t list;
}

let make_pool target =
  {
    target;
    pm = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    gen = 0;
    job = None;
    stopping = false;
    helpers = [];
  }

let rec pool_worker pool seen =
  Mutex.lock pool.pm;
  while pool.gen = seen && not pool.stopping do
    Condition.wait pool.work pool.pm
  done;
  if pool.stopping then Mutex.unlock pool.pm
  else begin
    let seen = pool.gen in
    let job = pool.job in
    Mutex.unlock pool.pm;
    (* Jobs never raise: [map] wraps user exceptions into its error slot.
       A stale job (already drained) is a no-op claim. *)
    (match job with Some run -> run () | None -> ());
    pool_worker pool seen
  end

(* ------------------------------------------------------------------ *)
(* Sharded, single-flight trace caches                                 *)
(* ------------------------------------------------------------------ *)

let shard_count = 8 (* power of two; indexed by flow hash *)

type trace_entry =
  | Computed of Trace.result
  | In_flight  (* some domain is tracing this flow right now *)

type shard = {
  sm : Mutex.t;
  sc : Condition.t;  (* an [In_flight] entry resolved (or was abandoned) *)
  tbl : (Flow.t, trace_entry) Hashtbl.t;
}

(* Per-dataplane flow cache, matched by physical identity: dataplanes
   come out of the digest cache, so equal networks share one value. *)
type flow_cache = { dp : Dataplane.t; shards : shard array }

(* The shared state of an engine: pool, caches and counters.  Every view
   of one engine (see [scoped]) points at the same [core], so a view never
   splits a cache or a counter from its parent. *)
type core = {
  domains : int;
  cache_dir : string option;
  pool : pool option;  (* [Some] iff [domains > 1] *)
  lock : Mutex.t;  (* guards dp_cache, flow_caches, phases, domains_used *)
  dp_cache : (string, Dataplane.t) Hashtbl.t;  (* network digest -> dataplane *)
  mutable flow_caches : flow_cache list;  (* most recently used first *)
  traces_run : int Atomic.t;
  trace_hits : int Atomic.t;
  trace_coalesced : int Atomic.t;
  dp_built : int Atomic.t;
  dp_incremental : int Atomic.t;
  dp_hits : int Atomic.t;
  dp_persistent_hits : int Atomic.t;
  spawn_fallbacks : int Atomic.t;
  mutable domains_used : int;
  mutable phases : (string * float) list;  (* reverse first-use order *)
}

type t = { core : core; obs : Heimdall_obs.Obs.t option }

(* Sized so a full failure sweep (healthy dataplane + one per failure
   candidate; ~104 on the university network) keeps every flow cache
   alive: a repeated sweep then answers from cache instead of re-tracing
   everything.  A flow cache is small (the distinct flows actually
   traced), so this is cheap insurance. *)
let max_flow_caches = 256

let default_domains () = min 8 (max 1 (Domain.recommended_domain_count ()))

let shutdown t =
  match t.core.pool with
  | None -> ()
  | Some pool ->
      let helpers =
        Mutex.lock pool.pm;
        pool.stopping <- true;
        Condition.broadcast pool.work;
        let hs = pool.helpers in
        pool.helpers <- [];
        Mutex.unlock pool.pm;
        hs
      in
      List.iter Domain.join helpers

(* Signal-only variant for the GC backstop: helpers exit on their own,
   freeing their domain slots, without the finalizer blocking on joins. *)
let signal_shutdown pool =
  Mutex.lock pool.pm;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.pm

let create ?domains ?obs ?cache_dir () =
  let domains = max 1 (Option.value domains ~default:(default_domains ())) in
  let core =
    {
      domains;
      cache_dir;
      pool = (if domains > 1 then Some (make_pool (domains - 1)) else None);
      lock = Mutex.create ();
      dp_cache = Hashtbl.create 64;
      flow_caches = [];
      traces_run = Atomic.make 0;
      trace_hits = Atomic.make 0;
      trace_coalesced = Atomic.make 0;
      dp_built = Atomic.make 0;
      dp_incremental = Atomic.make 0;
      dp_hits = Atomic.make 0;
      dp_persistent_hits = Atomic.make 0;
      spawn_fallbacks = Atomic.make 0;
      domains_used = 1;
      phases = [];
    }
  in
  (* An engine dropped without [shutdown] must not pin its helper domains
     forever: long-lived processes (the test runner, a future daemon)
     would hit the runtime's domain limit.  The finaliser hangs off the
     core, so it runs only once no view of the engine is left. *)
  Option.iter (fun pool -> Gc.finalise (fun _ -> signal_shutdown pool) core) core.pool;
  { core; obs }

let scoped t labels =
  { t with obs = Option.map (fun o -> Heimdall_obs.Obs.scoped o labels) t.obs }

let domains t = t.core.domains
let obs t = t.obs

let locked t f =
  Mutex.lock t.core.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.core.lock) f

(* ------------------------------------------------------------------ *)
(* Memoized dataplanes: in-memory by network digest, optionally backed  *)
(* by an on-disk cache that survives across runs                        *)
(* ------------------------------------------------------------------ *)

(* Bump whenever the marshalled shape of [Dataplane.t] (or anything it
   contains) changes: a stale entry must read as a miss, not as garbage. *)
let persist_magic = "heimdall-dpcache-4\n"

let persist_path dir key = Filename.concat dir (Digest.to_hex key ^ ".dp")

let load_persistent t key =
  match t.core.cache_dir with
  | None -> None
  | Some dir -> (
      match In_channel.open_bin (persist_path dir key) with
      | exception Sys_error _ -> None
      | ic ->
          Fun.protect
            ~finally:(fun () -> In_channel.close ic)
            (fun () ->
              try
                let magic = really_input_string ic (String.length persist_magic) in
                if not (String.equal magic persist_magic) then None
                else Some (Marshal.from_channel ic : Dataplane.t)
              with _ -> None))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let store_persistent t key dp =
  match t.core.cache_dir with
  | None -> ()
  | Some dir -> (
      (* Best effort: a cache that cannot be written is just a cache that
         never hits.  Write-then-rename keeps concurrent writers (or a
         crash) from leaving a torn entry behind. *)
      try
        mkdir_p dir;
        let path = persist_path dir key in
        let tmp =
          Printf.sprintf "%s.tmp.%d.%d" path (Stdlib.Domain.self () :> int)
            (Hashtbl.hash key)
        in
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc persist_magic;
            Marshal.to_channel oc dp []);
        Sys.rename tmp path
      with Sys_error _ -> ())

let dataplane ?base t net =
  let key = Network.digest net in
  match locked t (fun () -> Hashtbl.find_opt t.core.dp_cache key) with
  | Some dp ->
      Atomic.incr t.core.dp_hits;
      Heimdall_obs.Obs.incr t.obs "engine.dataplane.cache_hit";
      dp
  | None ->
      let insert dp =
        locked t (fun () ->
            (* Another domain may have raced us; keep the first value so
               every caller shares one physical dataplane. *)
            match Hashtbl.find_opt t.core.dp_cache key with
            | Some existing -> existing
            | None ->
                Hashtbl.replace t.core.dp_cache key dp;
                dp)
      in
      (match load_persistent t key with
      | Some dp ->
          Atomic.incr t.core.dp_persistent_hits;
          Heimdall_obs.Obs.incr t.obs "engine.dataplane.persistent_hit";
          insert dp
      | None ->
          let dp, dt =
            Heimdall_obs.Clock.elapsed (fun () ->
                match base with
                | Some b ->
                    Atomic.incr t.core.dp_incremental;
                    Dataplane.recompute ~base:b net
                | None -> Dataplane.compute net)
          in
          Atomic.incr t.core.dp_built;
          Heimdall_obs.Obs.incr t.obs "engine.dataplane.built";
          Heimdall_obs.Obs.observe t.obs "engine.dataplane.build_s" dt;
          store_persistent t key dp;
          insert dp)

let dataplane_of_changes t ~production changes =
  match Network.apply_changes changes production with
  | Error _ as e -> e
  | Ok net -> Ok (dataplane ~base:(dataplane t production) t net)

(* ------------------------------------------------------------------ *)
(* Memoized traces                                                     *)
(* ------------------------------------------------------------------ *)

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let make_shards () =
  Array.init shard_count (fun _ ->
      { sm = Mutex.create (); sc = Condition.create (); tbl = Hashtbl.create 64 })

(* Must be called under the lock. *)
let flows_for t dp =
  match List.find_opt (fun c -> c.dp == dp) t.core.flow_caches with
  | Some c ->
      t.core.flow_caches <- c :: List.filter (fun c' -> c' != c) t.core.flow_caches;
      c.shards
  | None ->
      let c = { dp; shards = make_shards () } in
      t.core.flow_caches <- c :: take (max_flow_caches - 1) t.core.flow_caches;
      c.shards

let trace t dp flow =
  let shards = locked t (fun () -> flows_for t dp) in
  let sh = shards.(Hashtbl.hash flow land (shard_count - 1)) in
  Mutex.lock sh.sm;
  let rec resolve ~waited =
    match Hashtbl.find_opt sh.tbl flow with
    | Some (Computed r) ->
        Mutex.unlock sh.sm;
        if waited then begin
          (* Single-flight: someone else computed this flow while we
             waited — we reused their work instead of duplicating it. *)
          Atomic.incr t.core.trace_coalesced;
          Heimdall_obs.Obs.incr t.obs "engine.trace.coalesced"
        end
        else begin
          Atomic.incr t.core.trace_hits;
          Heimdall_obs.Obs.incr t.obs "engine.trace.cache_hit"
        end;
        r
    | Some In_flight ->
        Condition.wait sh.sc sh.sm;
        resolve ~waited:true
    | None ->
        Hashtbl.replace sh.tbl flow In_flight;
        Mutex.unlock sh.sm;
        let r =
          try Trace.trace dp flow
          with e ->
            (* Abandon the claim so waiters retry (and one of them takes
               over the computation) instead of blocking forever. *)
            Mutex.lock sh.sm;
            Hashtbl.remove sh.tbl flow;
            Condition.broadcast sh.sc;
            Mutex.unlock sh.sm;
            raise e
        in
        Atomic.incr t.core.traces_run;
        Heimdall_obs.Obs.incr t.obs "engine.trace.run";
        Mutex.lock sh.sm;
        Hashtbl.replace sh.tbl flow (Computed r);
        Condition.broadcast sh.sc;
        Mutex.unlock sh.sm;
        r
  in
  resolve ~waited:false

(* ------------------------------------------------------------------ *)
(* Parallel map                                                        *)
(* ------------------------------------------------------------------ *)

let fail_spawn_for_tests = ref false

(* [Domain.spawn] can fail on a loaded host (thread/domain limits).  The
   work queue is shared, so the caller's own worker drains every item
   regardless of how many helpers actually started — a failed spawn
   degrades throughput, never correctness. *)
let spawn_helper t pool =
  match
    if !fail_spawn_for_tests then failwith "injected spawn failure"
    else Domain.spawn (fun () -> pool_worker pool (pool.gen - 1))
  with
  | d -> Some d
  | exception _ ->
      Atomic.incr t.core.spawn_fallbacks;
      Heimdall_obs.Obs.incr t.obs "engine.map.spawn_fallback";
      Heimdall_obs.Obs.set_gauge t.obs "engine.spawn_fallbacks"
        (float_of_int (Atomic.get t.core.spawn_fallbacks));
      None

(* Top the pool back up to its target helper count.  Called on every
   parallel [map]: normally a no-op, but it retries helpers whose spawn
   failed earlier (e.g. a transient domain limit). *)
let ensure_helpers t pool =
  Mutex.lock pool.pm;
  let missing = if pool.stopping then 0 else pool.target - List.length pool.helpers in
  Mutex.unlock pool.pm;
  if missing > 0 then begin
    let fresh = List.filter_map (fun _ -> spawn_helper t pool) (List.init missing Fun.id) in
    if fresh <> [] then begin
      Mutex.lock pool.pm;
      if pool.stopping then begin
        Mutex.unlock pool.pm;
        (* Lost the race with [shutdown]: release the fresh helpers. *)
        Condition.broadcast pool.work;
        List.iter Domain.join fresh
      end
      else begin
        pool.helpers <- fresh @ pool.helpers;
        Mutex.unlock pool.pm
      end
    end
  end

(* Below this many items per engaged domain a parallel fan-out costs more
   in queue traffic and wake-ups than the work is worth — the lint/sem
   per-device passes (a dozen sub-microsecond items) were up to 10x
   slower parallel than sequential.  Callers with unusually expensive
   items can override. *)
let default_min_per_domain = 16

let map ?(min_per_domain = default_min_per_domain) t f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let engaged =
    match t.core.pool with
    | None -> 1
    | Some pool -> min (pool.target + 1) (max 1 (n / max 1 min_per_domain))
  in
  if engaged <= 1 then List.map f xs
  else begin
    let pool = Option.get t.core.pool in
    ensure_helpers t pool;
    locked t (fun () -> t.core.domains_used <- max t.core.domains_used engaged);
    Heimdall_obs.Obs.set_gauge t.obs "engine.domains_used" (float_of_int engaged);
    Heimdall_obs.Obs.incr t.obs ~by:n "engine.map.items";
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let err = Atomic.make None in
    (* Guided self-scheduling: early claims take big chunks (low queue
       traffic), late claims shrink so uneven items still balance. *)
    let rec claim () =
      let cur = Atomic.get next in
      if cur >= n then None
      else
        let chunk = max 1 ((n - cur) / (engaged * 4)) in
        let stop = min n (cur + chunk) in
        if Atomic.compare_and_set next cur stop then Some (cur, stop) else claim ()
    in
    let run () =
      let continue = ref true in
      while !continue do
        match claim () with
        | None -> continue := false
        | Some (start, stop) ->
            for i = start to stop - 1 do
              if Atomic.get err = None then
                try out.(i) <- Some (f arr.(i))
                with e -> ignore (Atomic.compare_and_set err None (Some e))
            done;
            let left = Atomic.fetch_and_add remaining (start - stop) + (start - stop) in
            if left = 0 then begin
              Mutex.lock pool.pm;
              Condition.broadcast pool.idle;
              Mutex.unlock pool.pm
            end
      done
    in
    let my_gen =
      Mutex.lock pool.pm;
      pool.gen <- pool.gen + 1;
      pool.job <- Some run;
      Condition.broadcast pool.work;
      let g = pool.gen in
      Mutex.unlock pool.pm;
      g
    in
    run ();
    Mutex.lock pool.pm;
    while Atomic.get remaining > 0 do
      Condition.wait pool.idle pool.pm
    done;
    (* Drop the drained job so late-waking helpers don't retain it. *)
    if pool.gen = my_gen then pool.job <- None;
    Mutex.unlock pool.pm;
    match Atomic.get err with
    | Some e -> raise e
    | None -> Array.to_list (Array.map Option.get out)
  end

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let phase t name f =
  Heimdall_obs.Obs.span t.obs ~attrs:[ ("component", "engine") ] ("phase:" ^ name)
    (fun () ->
      let v, dt = Heimdall_obs.Clock.elapsed f in
      locked t (fun () ->
          t.core.phases <-
            (if List.mem_assoc name t.core.phases then
               List.map (fun (n, s) -> if n = name then (n, s +. dt) else (n, s)) t.core.phases
             else (name, dt) :: t.core.phases));
      Heimdall_obs.Obs.observe t.obs "engine.phase_s" ~labels:[ ("phase", name) ] dt;
      v)

type stats = {
  traces_run : int;
  trace_cache_hits : int;
  trace_coalesced : int;
  dataplanes_built : int;
  dataplanes_incremental : int;
  dataplane_cache_hits : int;
  dataplane_persistent_hits : int;
  domains_used : int;
  spawn_fallbacks : int;
  phase_seconds : (string * float) list;
}

let stats t =
  locked t (fun () ->
      {
        traces_run = Atomic.get t.core.traces_run;
        trace_cache_hits = Atomic.get t.core.trace_hits;
        trace_coalesced = Atomic.get t.core.trace_coalesced;
        dataplanes_built = Atomic.get t.core.dp_built;
        dataplanes_incremental = Atomic.get t.core.dp_incremental;
        dataplane_cache_hits = Atomic.get t.core.dp_hits;
        dataplane_persistent_hits = Atomic.get t.core.dp_persistent_hits;
        domains_used = t.core.domains_used;
        spawn_fallbacks = Atomic.get t.core.spawn_fallbacks;
        phase_seconds = List.rev t.core.phases;
      })

let reset_stats t =
  locked t (fun () ->
      Atomic.set t.core.traces_run 0;
      Atomic.set t.core.trace_hits 0;
      Atomic.set t.core.trace_coalesced 0;
      Atomic.set t.core.dp_built 0;
      Atomic.set t.core.dp_incremental 0;
      Atomic.set t.core.dp_hits 0;
      Atomic.set t.core.dp_persistent_hits 0;
      Atomic.set t.core.spawn_fallbacks 0;
      t.core.domains_used <- 1;
      t.core.phases <- [])

let trace_hit_rate s =
  let total = s.trace_cache_hits + s.trace_coalesced + s.traces_run in
  if total = 0 then 0.0
  else float_of_int (s.trace_cache_hits + s.trace_coalesced) /. float_of_int total

let runtime_sampler t () =
  let s = stats t in
  let dp_answered = s.dataplane_cache_hits + s.dataplane_persistent_hits in
  let dp_total = s.dataplanes_built + dp_answered in
  let dp_rate =
    if dp_total = 0 then 0.0 else float_of_int dp_answered /. float_of_int dp_total
  in
  [
    ("engine.domains", float_of_int t.core.domains);
    ("engine.domains_used", float_of_int s.domains_used);
    ("engine.trace.hit_rate", trace_hit_rate s);
    ("engine.dataplane.cache_hit_rate", dp_rate);
    ("engine.spawn_fallbacks", float_of_int s.spawn_fallbacks);
  ]

let stats_to_json s =
  let open Heimdall_json in
  Json.Obj
    [
      ("traces_run", Json.Int s.traces_run);
      ("trace_cache_hits", Json.Int s.trace_cache_hits);
      ("trace_coalesced", Json.Int s.trace_coalesced);
      ("dataplanes_built", Json.Int s.dataplanes_built);
      ("dataplanes_incremental", Json.Int s.dataplanes_incremental);
      ("dataplane_cache_hits", Json.Int s.dataplane_cache_hits);
      ("dataplane_persistent_hits", Json.Int s.dataplane_persistent_hits);
      ("trace_hit_rate", Json.Float (trace_hit_rate s));
      ("domains_used", Json.Int s.domains_used);
      ("spawn_fallbacks", Json.Int s.spawn_fallbacks);
      ( "phase_seconds",
        Json.Obj (List.map (fun (n, secs) -> (n, Json.Float secs)) s.phase_seconds) );
    ]

let render_stats s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "engine: %d domains | dataplanes built %d (%d incremental, cache hits %d, \
        persistent hits %d) | traces run %d (cache hits %d, coalesced %d, %.1f%% hit \
        rate)\n"
       s.domains_used s.dataplanes_built s.dataplanes_incremental s.dataplane_cache_hits
       s.dataplane_persistent_hits s.traces_run s.trace_cache_hits s.trace_coalesced
       (100.0 *. trace_hit_rate s));
  if s.spawn_fallbacks > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  spawn fallbacks: %d (ran degraded on fewer domains)\n"
         s.spawn_fallbacks);
  List.iter
    (fun (name, secs) ->
      Buffer.add_string buf (Printf.sprintf "  phase %-24s %8.3f s\n" name secs))
    s.phase_seconds;
  Buffer.contents buf
