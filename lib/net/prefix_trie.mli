(** Binary trie keyed by IPv4 prefixes, supporting longest-prefix-match
    lookup.  This is the data structure backing every simulated FIB.

    The trie is immutable; [add] and [remove] return new tries. *)

type 'a t
(** A trie mapping prefixes to values of type ['a]. *)

val empty : 'a t
(** The empty trie. *)

val is_empty : 'a t -> bool

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** [add p v t] binds [p] to [v], replacing any previous binding of [p]. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the exact binding for [p], if any. *)

val find_exact : Prefix.t -> 'a t -> 'a option
(** Exact-prefix lookup. *)

val lookup : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** [lookup a t] is the binding whose prefix is the longest one containing
    [a], or [None] if no prefix matches. *)

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over all bindings, in increasing prefix order. *)

val diff : ('a -> 'a -> bool) -> 'a t -> 'a t -> Prefix.t list
(** [diff eq a b] lists, in increasing prefix order, every prefix bound
    in one trie only or bound in both to values [eq] calls different.
    Physically shared subtries are skipped, so diffing a trie against an
    incremental rebuild of itself costs only the rebuilt part. *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
val bindings : 'a t -> (Prefix.t * 'a) list
val cardinal : 'a t -> int

val of_list : (Prefix.t * 'a) list -> 'a t
(** Build a trie from bindings; later bindings win on duplicate prefixes. *)

val map : ('a -> 'b) -> 'a t -> 'b t
