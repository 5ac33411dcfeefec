(** A small generic graph library over string-named vertices, used for
    topology reasoning (shortest paths for OSPF SPF, slicing, connectivity).

    Edges are directed and carry an integer weight plus an arbitrary label.
    Undirected links are modelled as two directed edges. *)

type 'e t
(** A graph whose edges carry labels of type ['e]. *)

val empty : 'e t
val add_vertex : string -> 'e t -> 'e t

val add_edge : src:string -> dst:string -> weight:int -> label:'e -> 'e t -> 'e t
(** Add a directed edge.  Vertices are created implicitly.  Multiple edges
    between the same pair are kept (multigraph). *)

val vertices : 'e t -> string list
(** All vertices, sorted. *)

val mem_vertex : string -> 'e t -> bool

val succs : string -> 'e t -> (string * int * 'e) list
(** Outgoing edges of a vertex as [(dst, weight, label)]; empty for unknown
    vertices. *)

val vertex_count : 'e t -> int
val edge_count : 'e t -> int

val bfs : string -> 'e t -> (string, int) Hashtbl.t
(** Unweighted distances (hop counts) from a source to every reachable
    vertex. *)

val reachable : string -> 'e t -> string list
(** Vertices reachable from the source (including itself), sorted. *)

val shortest_paths : string -> 'e t -> (string, int * string list) Hashtbl.t
(** Dijkstra from a source.  For each reachable vertex, the table holds
    [(distance, path)] where [path] lists vertices from the source to the
    vertex inclusive.  Ties break deterministically by vertex name. *)

val shortest_path : string -> string -> 'e t -> (int * string list) option
(** Shortest weighted path between two vertices, if any. *)

val all_paths : ?max_len:int -> string -> string -> 'e t -> string list list
(** All simple paths from [src] to [dst], each of at most [max_len] vertices
    (default 16), in depth-first order with successors visited by name.

    The search is pruned by a BFS from [dst] over predecessors (edge
    direction matters: a forward BFS from [dst] is wrong on directed
    graphs).  A branch at [u] whose path already has [len] vertices is cut
    when [len + hops(u, dst) > max_len].  This is exact: the hop count
    ignores the visited set, so it is a lower bound on what any simple
    completion needs, and a cut branch holds no path within budget.  The
    result — paths and order — is that of the unpruned search. *)

val neighbors_within : int -> string -> 'e t -> string list
(** Vertices within the given hop radius of a vertex, sorted. *)

val is_connected : 'e t -> bool
(** Whether the graph is (weakly) connected when treating every edge as
    bidirectional.  The empty graph is connected. *)
