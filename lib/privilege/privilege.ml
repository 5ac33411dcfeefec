type effect = Allow | Deny

let effect_to_string = function Allow -> "allow" | Deny -> "deny"

type pattern = string

let pattern_matches pat s =
  if pat = "*" then true
  else
    let n = String.length pat in
    if n > 0 && pat.[n - 1] = '*' then
      let stem = String.sub pat 0 (n - 1) in
      String.length s >= String.length stem && String.sub s 0 (String.length stem) = stem
    else pat = s

type resource = { node : pattern; iface : pattern option }

let resource_of_string s =
  match String.index_opt s ':' with
  | None -> { node = s; iface = None }
  | Some i ->
      {
        node = String.sub s 0 i;
        iface = Some (String.sub s (i + 1) (String.length s - i - 1));
      }

let resource_to_string r =
  match r.iface with None -> r.node | Some i -> Printf.sprintf "%s:%s" r.node i

type predicate = { effect : effect; actions : pattern list; resources : resource list }
type t = { predicates : predicate list }

let empty = { predicates = [] }

let allow_all =
  { predicates = [ { effect = Allow; actions = [ "*" ]; resources = [ { node = "*"; iface = None } ] } ] }

let allow ?iface ~actions ~nodes () =
  { effect = Allow; actions; resources = List.map (fun n -> { node = n; iface }) nodes }

let deny ?iface ~actions ~nodes () =
  { effect = Deny; actions; resources = List.map (fun n -> { node = n; iface }) nodes }

let of_predicates predicates = { predicates }

type request = { action : Action.t; node : string; req_iface : string option }

let request ?iface action node = { action; node; req_iface = iface }

let resource_matches (r : resource) (req : request) =
  pattern_matches r.node req.node
  &&
  match r.iface with
  | None -> true
  | Some ipat -> (
      (* An interface-scoped resource only matches interface-scoped
         requests for a matching interface. *)
      match req.req_iface with
      | None -> false
      | Some i -> pattern_matches ipat i)

let predicate_matches (p : predicate) (req : request) =
  List.exists (fun a -> pattern_matches a req.action) p.actions
  && List.exists (fun r -> resource_matches r req) p.resources

let evaluate t req =
  let rec go = function
    | [] -> Deny
    | p :: rest -> if predicate_matches p req then p.effect else go rest
  in
  go t.predicates

let allows t req = evaluate t req = Allow

let allowed_actions t ~node ~kind =
  List.filter
    (fun a -> allows t { action = a; node; req_iface = None })
    (Action.available_on kind)

let predicate_count t = List.length t.predicates

let predicate_to_string p =
  Printf.sprintf "%s %s on %s;"
    (effect_to_string p.effect)
    (String.concat ", " p.actions)
    (String.concat ", " (List.map resource_to_string p.resources))

let to_string t = String.concat "\n" (List.map predicate_to_string t.predicates)
let pp fmt t = Format.pp_print_string fmt (to_string t)
