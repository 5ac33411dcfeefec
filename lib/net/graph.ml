module Smap = Map.Make (String)

type 'e edge = { dst : string; weight : int; label : 'e }
type 'e t = { adj : 'e edge list Smap.t }

let empty = { adj = Smap.empty }

let add_vertex v g =
  if Smap.mem v g.adj then g else { adj = Smap.add v [] g.adj }

let add_edge ~src ~dst ~weight ~label g =
  let g = add_vertex src (add_vertex dst g) in
  let edges = Smap.find src g.adj in
  { adj = Smap.add src ({ dst; weight; label } :: edges) g.adj }

let vertices g = Smap.fold (fun v _ acc -> v :: acc) g.adj [] |> List.rev
let mem_vertex v g = Smap.mem v g.adj

let succs v g =
  match Smap.find_opt v g.adj with
  | None -> []
  | Some edges -> List.rev_map (fun e -> (e.dst, e.weight, e.label)) edges

let vertex_count g = Smap.cardinal g.adj
let edge_count g = Smap.fold (fun _ es n -> n + List.length es) g.adj 0

let bfs src g =
  let dist = Hashtbl.create 16 in
  if not (mem_vertex src g) then dist
  else begin
    Hashtbl.replace dist src 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let du = Hashtbl.find dist u in
      let visit (v, _, _) =
        if not (Hashtbl.mem dist v) then begin
          Hashtbl.replace dist v (du + 1);
          Queue.add v q
        end
      in
      List.iter visit (succs u g)
    done;
    dist
  end

let reachable src g =
  let dist = bfs src g in
  Hashtbl.fold (fun v _ acc -> v :: acc) dist [] |> List.sort String.compare

(* Dijkstra with a sorted-module priority queue.  Entries may be stale; we
   skip a popped vertex if it is already finalised. *)
module Pq = Set.Make (struct
  type t = int * string

  let compare (d1, v1) (d2, v2) =
    match Int.compare d1 d2 with 0 -> String.compare v1 v2 | c -> c
end)

let shortest_paths src g =
  let out = Hashtbl.create 16 in
  if not (mem_vertex src g) then out
  else begin
    let best = Hashtbl.create 16 in
    let prev = Hashtbl.create 16 in
    Hashtbl.replace best src 0;
    let pq = ref (Pq.singleton (0, src)) in
    let done_ = Hashtbl.create 16 in
    while not (Pq.is_empty !pq) do
      let ((d, u) as entry) = Pq.min_elt !pq in
      pq := Pq.remove entry !pq;
      if not (Hashtbl.mem done_ u) then begin
        Hashtbl.replace done_ u ();
        let relax (v, w, _) =
          if w < 0 then invalid_arg "Graph.shortest_paths: negative weight";
          let cand = d + w in
          let better =
            match Hashtbl.find_opt best v with
            | None -> true
            | Some cur ->
                cand < cur
                || (cand = cur
                   &&
                   match Hashtbl.find_opt prev v with
                   | Some p -> String.compare u p < 0
                   | None -> true)
          in
          if better && not (Hashtbl.mem done_ v) then begin
            Hashtbl.replace best v cand;
            Hashtbl.replace prev v u;
            pq := Pq.add (cand, v) !pq
          end
        in
        List.iter relax (succs u g)
      end
    done;
    let rec path_to v = if v = src then [ src ] else path_to (Hashtbl.find prev v) @ [ v ] in
    Hashtbl.iter (fun v d -> Hashtbl.replace out v (d, path_to v)) best;
    out
  end

let shortest_path src dst g = Hashtbl.find_opt (shortest_paths src g) dst

(* Edges flipped: BFS over it from [v] gives every vertex's hop count to
   [v] along edge direction. *)
let reverse g =
  Smap.fold
    (fun src es acc ->
      List.fold_left
        (fun acc e -> add_edge ~src:e.dst ~dst:src ~weight:e.weight ~label:e.label acc)
        acc es)
    g.adj
    { adj = Smap.map (fun _ -> []) g.adj }

let all_paths ?(max_len = 16) src dst g =
  let results = ref [] in
  let hops_to_dst = bfs dst (reverse g) in
  (* [len] counts the vertices of [path]; any completion through [u] adds
     at least [hops_to_dst u] more, so a branch that cannot finish within
     [max_len] (or cannot reach [dst] at all) is cut here instead of being
     walked to exhaustion.  The cut drops no path and keeps the order. *)
  let rec go path len visited u =
    match Hashtbl.find_opt hops_to_dst u with
    | Some need when len + need <= max_len ->
        if u = dst then results := List.rev path :: !results
        else
          let next =
            succs u g
            |> List.filter (fun (v, _, _) -> not (List.mem v visited))
            |> List.map (fun (v, _, _) -> v)
            |> List.sort_uniq String.compare
          in
          List.iter (fun v -> go (v :: path) (len + 1) (v :: visited) v) next
    | _ -> ()
  in
  if mem_vertex src g && mem_vertex dst g then go [ src ] 1 [ src ] src;
  List.rev !results

let neighbors_within radius v g =
  let dist = bfs v g in
  Hashtbl.fold (fun u d acc -> if d <= radius then u :: acc else acc) dist []
  |> List.sort String.compare

let is_connected g =
  match vertices g with
  | [] -> true
  | first :: _ as vs ->
      (* Symmetrise, then BFS. *)
      let sym =
        Smap.fold
          (fun src es acc ->
            List.fold_left
              (fun acc e ->
                add_edge ~src:e.dst ~dst:src ~weight:e.weight ~label:e.label acc)
              acc es)
          g.adj g
      in
      List.length (reachable first sym) = List.length vs
