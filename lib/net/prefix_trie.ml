(* A binary trie over address bits.  Each node may carry a value (a binding
   for the prefix spelled by the path to it) and has children for bit 0 and
   bit 1.  Lookup walks the destination address's bits, remembering the last
   value seen: that is the longest match. *)

type 'a t = Leaf | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Leaf

let is_empty = function
  | Leaf -> true
  | Node _ -> false

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

let add p v t =
  let len = Prefix.length p in
  let net = Prefix.network p in
  let rec go depth t =
    if depth = len then
      match t with
      | Leaf -> Node { value = Some v; zero = Leaf; one = Leaf }
      | Node n -> Node { n with value = Some v }
    else
      let zero, one, value =
        match t with
        | Leaf -> (Leaf, Leaf, None)
        | Node n -> (n.zero, n.one, n.value)
      in
      if Ipv4.bit net depth then Node { value; zero; one = go (depth + 1) one }
      else Node { value; zero = go (depth + 1) zero; one }
  in
  go 0 t

let remove p t =
  let len = Prefix.length p in
  let net = Prefix.network p in
  let rec go depth t =
    match t with
    | Leaf -> Leaf
    | Node n ->
        if depth = len then node None n.zero n.one
        else if Ipv4.bit net depth then node n.value n.zero (go (depth + 1) n.one)
        else node n.value (go (depth + 1) n.zero) n.one
  in
  go 0 t

let find_exact p t =
  let len = Prefix.length p in
  let net = Prefix.network p in
  let rec go depth t =
    match t with
    | Leaf -> None
    | Node n ->
        if depth = len then n.value
        else if Ipv4.bit net depth then go (depth + 1) n.one
        else go (depth + 1) n.zero
  in
  go 0 t

let lookup a t =
  let rec go depth t best =
    match t with
    | Leaf -> best
    | Node n ->
        let best =
          match n.value with
          | Some v -> Some (Prefix.make a depth, v)
          | None -> best
        in
        if depth = 32 then best
        else if Ipv4.bit a depth then go (depth + 1) n.one best
        else go (depth + 1) n.zero best
  in
  go 0 t None

let fold f t acc =
  (* Reconstruct each binding's prefix from the path bits accumulated so
     far.  [bits] holds the path as an integer aligned to the high bits. *)
  let rec go depth bits t acc =
    match t with
    | Leaf -> acc
    | Node n ->
        let acc =
          match n.value with
          | Some v -> f (Prefix.make (Ipv4.of_int bits) depth) v acc
          | None -> acc
        in
        let acc = go (depth + 1) bits n.zero acc in
        if depth = 32 then acc
        else go (depth + 1) (bits lor (1 lsl (31 - depth))) n.one acc
  in
  go 0 0 t acc

let diff eq a b =
  let parts = function Leaf -> (None, Leaf, Leaf) | Node n -> (n.value, n.zero, n.one) in
  (* Walk both tries in step; a physically shared subtrie (what an
     incremental rebuild keeps) has no differences and is skipped. *)
  let rec go depth bits a b acc =
    if a == b then acc
    else
      let va, za, oa = parts a and vb, zb, ob = parts b in
      (* Children first, this node last: the list is built back to
         front, in [fold]'s order. *)
      let acc =
        if depth = 32 then acc
        else
          let acc = go (depth + 1) (bits lor (1 lsl (31 - depth))) oa ob acc in
          go (depth + 1) bits za zb acc
      in
      match (va, vb) with
      | None, None -> acc
      | Some x, Some y when eq x y -> acc
      | _ -> Prefix.make (Ipv4.of_int bits) depth :: acc
  in
  go 0 0 a b []

let iter f t = fold (fun p v () -> f p v) t ()
let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let cardinal t = fold (fun _ _ n -> n + 1) t 0
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let rec map f = function
  | Leaf -> Leaf
  | Node n -> Node { value = Option.map f n.value; zero = map f n.zero; one = map f n.one }
