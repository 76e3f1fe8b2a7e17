(** Finite relational structures over integer nodes, optionally colored by
    string labels.  These are the structural parts [Mλ] of generalized
    databases (Section 5), the carriers of graph-theoretic constructions
    (Section 4), and the instances of the constraint-satisfaction problems
    of Section 6. *)

module Int_set : Set.S with type elt = int
module Int_map : Map.S with type key = int

type tuple = int array

module Tuple_set : Set.S with type elt = tuple

(** {1 The columnar compiled view}

    Relation names and labels interned to dense ints ({!Interner}), nodes
    renumbered densely (ascending in the raw ids), and each relation's
    tuples stored flat with a per-position inverted index.  This is the
    layout the engine and the bounded-treewidth DP scan; it is
    computed once per structure value and memoized. *)

type crel = {
  rel : string;
  rel_id : int;  (** [Interner.rel_id rel] *)
  arity : int;
  count : int;
  flat : int array;  (** [count * arity] dense node ids, row-major *)
  by_pos : int array array array;
      (** [by_pos.(p).(w)] = ascending indices of tuples with dense node
          [w] at position [p] *)
}

type columnar = {
  node_ids : int array;  (** dense -> raw node id, ascending *)
  dense_of : (int, int) Hashtbl.t;  (** raw -> dense *)
  node_labels : int array;  (** dense -> label id; [-1] = unlabeled *)
  crels : crel array;
}

type t = private {
  nodes : Int_set.t;
  label : string Int_map.t; (* partial: unlabeled nodes allowed *)
  rels : Tuple_set.t Stdlib.Map.Make(String).t;
  mutable cview : columnar option; (* memoized compiled view *)
}

(** [columnar s] — the compiled view, memoized on first use.  Safe to call
    from any domain (the memo write is a benign race between equal
    values). *)
val columnar : t -> columnar

val empty : t
val add_node : ?label:string -> t -> int -> t

(** [add_tuple s rel tup] adds the fact [rel(tup)]; nodes of [tup] not yet
    in the structure are registered on the fly (unlabeled). *)
val add_tuple : t -> string -> tuple -> t

val add_edge : t -> string -> int -> int -> t

(** [make ~nodes ~tuples] builds a structure; [nodes] pairs each node with
    an optional label, [tuples] pairs a relation name with its tuples.
    Nodes occurring only in tuples need not be listed. *)
val make : nodes:(int * string option) list -> tuples:(string * tuple list) list -> t

val nodes : t -> int list
val size : t -> int
val label_of : t -> int -> string option
val mem_node : t -> int -> bool
val mem_tuple : t -> string -> tuple -> bool
val tuples_of : t -> string -> tuple list
val rel_names : t -> string list
val all_tuples : t -> (string * tuple) list
val tuple_count : t -> int
val fold_tuples : (string -> tuple -> 'a -> 'a) -> t -> 'a -> 'a

(** [same_label s1 v1 s2 v2] iff the (possibly absent) labels agree. *)
val same_label : t -> int -> t -> int -> bool

(** {1 Constructions} *)

(** [product s1 s2] is the categorical product restricted to pairs of nodes
    with equal labels (the structure [Mλ ⊓Σ M′λ′] of Theorem 4's proof);
    the returned map sends each product node to its (left, right) pair of
    origins. *)
val product : t -> t -> t * (int -> int * int)

(** [disjoint_union s1 s2] renames [s2] apart and unions; returns injections
    from each operand's nodes into the result. *)
val disjoint_union : t -> t -> t * (int -> int) * (int -> int)

(** [restrict s keep] is the induced substructure on [keep]. *)
val restrict : t -> Int_set.t -> t

(** [map_nodes s f] renames nodes through [f]; tuples are mapped pointwise.
    [f] need not be injective (this computes homomorphic images). *)
val map_nodes : t -> (int -> int) -> t

(** [gaifman s] is the Gaifman graph: the undirected adjacency between
    nodes co-occurring in some tuple, as a map node → neighbor set. *)
val gaifman : t -> Int_set.t Int_map.t

(** [is_substructure s1 s2] iff every node (with matching label) and tuple
    of [s1] occurs in [s2]. *)
val is_substructure : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
