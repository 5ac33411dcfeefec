(* A dependency-free HTTP/1.1 exporter over stdlib Unix sockets: one
   accept thread serving the observability context's live state.  The
   protocol surface is deliberately tiny — GET only, Connection: close,
   Content-Length framing — because every client we care about
   (Prometheus scrapers, curl, the smoke-test client below) speaks it.

   Endpoints:
     /metrics        Prometheus text exposition
     /metrics.json   the same registry as JSON
     /healthz        liveness JSON from the pluggable health thunk
                     (HTTP 200 when healthy, 503 when not)
     /spans          recent finished spans as an indented tree
     /events         the event ring tail as JSON

   Serving never mutates the observed system: handlers only read the
   registry/ring/tracer snapshots (plus the exporter's own request
   counter, which lives in the same registry, labeled by path). *)

module Json = Heimdall_json.Json

type health = unit -> bool * (string * Json.t) list

type t = {
  lsock : Unix.file_descr;
  port : int;
  obs : Obs.t;
  health : health;
  stopped : bool Atomic.t;
  mutable thread : Thread.t option;
}

let port t = t.port

let default_health : health = fun () -> (true, [])

(* ------------------------------------------------------------------ *)
(* Response plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 503 -> "Service Unavailable"
  | _ -> "Internal Server Error"

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | 0 -> ()
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let respond fd ~code ~content_type body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\n\
        Content-Type: %s\r\n\
        Content-Length: %d\r\n\
        Connection: close\r\n\
        \r\n\
        %s"
       code (status_text code) content_type (String.length body) body)

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

(* Every connection must deliver its request headers within this many
   seconds of being accepted.  The accept loop serves one connection at a
   time, so without a deadline a client that connects and sends nothing
   would block every later scrape — and [stop], which joins the loop. *)
let read_deadline_s = 1.0

(* Whether a header terminator ("\r\n\r\n" or "\n\n") ends at byte [i]. *)
let ends_headers buf i =
  let at j c = j >= 0 && Buffer.nth buf j = c in
  at i '\n' && (at (i - 1) '\n' || (at (i - 1) '\r' && at (i - 2) '\n' && at (i - 3) '\r'))

(* Read until the header terminator (we never need a body), bounded in
   size so a hostile peer cannot make us buffer without limit, and in
   time by [read_deadline_s]. *)
let read_request fd =
  let limit = 8192 in
  let deadline = Clock.now_s () +. read_deadline_s in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec go () =
    let remaining = deadline -. Clock.now_s () in
    if Buffer.length buf > limit || remaining <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
          | n ->
              let first_new = Buffer.length buf in
              Buffer.add_subbytes buf chunk 0 n;
              (* Only the bytes just read can complete a terminator. *)
              let rec scan i = i < Buffer.length buf && (ends_headers buf i || scan (i + 1)) in
              if scan first_new then Some (Buffer.contents buf) else go ())
  in
  try go () with Unix.Unix_error _ -> None

type request = { meth : string; path : string }

let parse_request text =
  match String.index_opt text '\n' with
  | None -> None
  | Some i -> (
      let line = String.trim (String.sub text 0 i) in
      match String.split_on_char ' ' line with
      | [ meth; target; version ]
        when target <> ""
             && target.[0] = '/'
             && (version = "HTTP/1.1" || version = "HTTP/1.0") ->
          (* Strip any query string: the endpoints take no parameters. *)
          let path =
            match String.index_opt target '?' with
            | Some q -> String.sub target 0 q
            | None -> target
          in
          Some { meth; path }
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

let healthz_body t =
  let ok, components = t.health () in
  ( ok,
    Json.to_string ~pretty:true
      (Json.Obj (("status", Json.String (if ok then "ok" else "unhealthy")) :: components))
  )

let events_body t =
  Json.to_string ~pretty:true
    (Json.Obj
       [
         ("length", Json.Int (Events.length t.obs.Obs.events));
         ("dropped", Json.Int (Events.dropped t.obs.Obs.events));
         ("events", Events.to_json t.obs.Obs.events);
       ])

let handle t fd =
  let req =
    match read_request fd with
    | None -> `Bad
    | Some text -> (
        match parse_request text with
        | None -> `Bad
        | Some { meth; _ } when meth <> "GET" -> `Non_get
        | Some { path; _ } -> `Get path)
  in
  (* Count the request BEFORE rendering, so a /metrics scrape observes
     itself — the very first scrape already proves the counter works. *)
  let path_label =
    match req with `Bad -> "malformed" | `Non_get -> "non-get" | `Get p -> p
  in
  Metrics.incr t.obs.Obs.metrics "exporter.requests" ~labels:[ ("path", path_label) ];
  let reply ~code ~content_type body = respond fd ~code ~content_type body in
  match req with
  | `Bad -> reply ~code:400 ~content_type:"text/plain" "malformed request\n"
  | `Non_get -> reply ~code:405 ~content_type:"text/plain" "GET only\n"
  | `Get "/metrics" ->
      reply ~code:200 ~content_type:"text/plain; version=0.0.4"
        (Metrics.to_prometheus t.obs.Obs.metrics)
  | `Get "/metrics.json" ->
      reply ~code:200 ~content_type:"application/json"
        (Json.to_string ~pretty:true (Metrics.to_json t.obs.Obs.metrics))
  | `Get "/healthz" ->
      let ok, body = healthz_body t in
      reply ~code:(if ok then 200 else 503) ~content_type:"application/json" body
  | `Get "/spans" ->
      reply ~code:200 ~content_type:"text/plain"
        (Tracer.render_tree (Tracer.recent t.obs.Obs.tracer))
  | `Get "/events" ->
      reply ~code:200 ~content_type:"application/json" (events_body t)
  | `Get path ->
      reply ~code:404 ~content_type:"text/plain"
        (Printf.sprintf "unknown path %s\n" path)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(host = "127.0.0.1") ?(port = 0) ?(health = default_health) obs =
  match Unix.inet_addr_of_string host with
  | exception _ -> Error (Printf.sprintf "bad host %S" host)
  | addr -> (
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      match Unix.bind sock (Unix.ADDR_INET (addr, port)) with
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot bind %s:%d: %s" host port
               (Unix.error_message err))
      | () ->
          Unix.listen sock 64;
          let port =
            match Unix.getsockname sock with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> port
          in
          Ok
            {
              lsock = sock;
              port;
              obs;
              health;
              stopped = Atomic.make false;
              thread = None;
            })

let accept_loop t =
  while not (Atomic.get t.stopped) do
    match Unix.accept t.lsock with
    | fd, _ ->
        (try handle t fd with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
        (* Listener closed (stop) or transient accept failure. *)
        if not (Atomic.get t.stopped) then Thread.yield ()
  done

let start t =
  match t.thread with
  | Some _ -> ()
  | None -> t.thread <- Some (Thread.create accept_loop t)

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* Closing the listener pops the accept thread out of [accept]. *)
    (try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    match t.thread with
    | Some th ->
        Thread.join th;
        t.thread <- None
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* A tiny stdlib HTTP client (for smoke tests and --once self-scrapes) *)
(* ------------------------------------------------------------------ *)

let get ?(host = "127.0.0.1") ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let finally () = try Unix.close sock with Unix.Unix_error _ -> () in
  match
    Fun.protect ~finally (fun () ->
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        write_all sock
          (Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n\r\n"
             path host port);
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read sock chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        Buffer.contents buf)
  with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "GET %s: %s" path (Unix.error_message err))
  | exception Fun.Finally_raised _ -> Error (Printf.sprintf "GET %s: connection error" path)
  | raw -> (
      let code =
        match String.index_opt raw ' ' with
        | Some i -> (
            try Some (int_of_string (String.trim (String.sub raw (i + 1) 3)))
            with _ -> None)
        | None -> None
      in
      let body =
        let rec find i =
          if i + 4 > String.length raw then None
          else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
          else find (i + 1)
        in
        match find 0 with
        | Some i -> String.sub raw i (String.length raw - i)
        | None -> raw
      in
      match code with
      | Some code -> Ok (code, body)
      | None -> Error (Printf.sprintf "GET %s: malformed response" path))
