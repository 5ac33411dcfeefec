module Clock = Heimdall_obs.Clock

type t = {
  mutable readings : float list;
  mutable count : int;
  mutable limit : float;
  mutable waited_s : float;
  mutable measured_s : float;
}

let slack = 1.10
let reference_pct = 5.
let max_wait_s = 2.0

(* Waiting and re-runs may cost up to half the measured time, plus a
   little: enough to sit out bursts, bounded when the host never quiets. *)
let allowance g = 2.0 +. (0.5 *. g.measured_s)
let buf = Array.make 32_768 0

(* A fixed amount of allocation-free work over a 256 KiB array, timed as
   the best of three passes: the first pass refills the cache that the
   measured operation evicted. *)
let canary_s () =
  let len = Array.length buf in
  let pass r () =
    let s = ref 0 in
    for k = 0 to 3 do
      for i = 0 to len - 1 do
        let j = ((i * 97) + r + k) land (len - 1) in
        buf.(j) <- buf.(j) + i;
        s := !s + buf.(j)
      done
    done;
    ignore (Sys.opaque_identity !s)
  in
  List.fold_left
    (fun best r -> Float.min best (snd (Clock.elapsed (pass r))))
    infinity [ 0; 1; 2 ]

let quiet g =
  let c = canary_s () in
  g.readings <- c :: g.readings;
  g.count <- g.count + 1;
  if g.count mod 16 = 0 then g.limit <- slack *. Harness.percentile g.readings reference_pct;
  c <= g.limit

let create () =
  let g = { readings = []; count = 0; limit = infinity; waited_s = 0.; measured_s = 0. } in
  for _ = 1 to 32 do
    ignore (quiet g)
  done;
  g

let patience g =
  let start = Clock.now_s () in
  let deadline = start +. max_wait_s in
  let patient () =
    let now = Clock.now_s () in
    now < deadline && g.waited_s +. (now -. start) < allowance g
  in
  (start, patient)

let wait g patient =
  Gc.full_major ();
  while (not (quiet g)) && patient () do
    ()
  done

let settle g =
  let start, patient = patience g in
  wait g patient;
  g.waited_s <- g.waited_s +. (Clock.now_s () -. start)

let measure g op check =
  let start, patient = patience g in
  let rec go () =
    wait g patient;
    let r, dt = Clock.elapsed op in
    check r;
    if quiet g || not (patient ()) then begin
      g.waited_s <- g.waited_s +. (Clock.now_s () -. start -. dt);
      g.measured_s <- g.measured_s +. dt;
      (r, dt)
    end
    else go ()
  in
  go ()
