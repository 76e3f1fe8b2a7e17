(** Tree decompositions of the Gaifman graph of a structure, built from
    elimination orders (min-degree / min-fill heuristics, run on dense
    adjacency rows: one bitset per node, degree and fill-in by popcount;
    among nodes of least cost the lowest node id goes first).  Theorem 6
    evaluates Codd membership in polynomial time when the structural part
    has bounded treewidth; the decompositions produced here drive the
    engine's bounded-width search ({!Engine.Config.t}). *)

type t = {
  bags : Structure.Int_set.t array;
  parent : int array; (* parent.(i) = -1 for roots; forest allowed *)
}

val width : t -> int

(** [is_valid s d] checks the three tree-decomposition conditions against
    the Gaifman graph of [s]: every node in some bag, every Gaifman edge
    inside some bag, and for each node the bags containing it form a
    connected subtree. *)
val is_valid : Structure.t -> t -> bool

(** [of_structure ?heuristic s] builds a decomposition of [s]'s Gaifman
    graph.  [`Min_degree] (default) or [`Min_fill]. *)
val of_structure : ?heuristic:[ `Min_degree | `Min_fill ] -> Structure.t -> t

(** [of_elimination_order s order] builds the decomposition induced by an
    explicit elimination order (fill-in construction): bag [i] is the
    [i]-th node of [order] with its neighbors at its elimination, and its
    parent is the bag of the earliest-eliminated of its later nodes.
    @raise Invalid_argument when a bag holds a node [order] omits. *)
val of_elimination_order : Structure.t -> int list -> t

(** [estimate s] runs both heuristics and returns the narrower
    decomposition together with its width — the width estimate used by the
    static-analysis planner (the bounded-width search's cost grows with
    the width, so spending two heuristic passes before it is always
    worth it). *)
val estimate : Structure.t -> t * int

(** [estimate_width n edges] — [snd (estimate s)] for the structure [s]
    on nodes [0 .. n-1] whose tuples are [edges], computed straight from
    the node ids: relation names play no part in the Gaifman graph. *)
val estimate_width : int -> int array array -> int

(** [exact s] — an optimal-width decomposition by branch-and-bound over
    elimination orders.  Exponential; intended for ≤ 10 nodes (validates
    the heuristics in tests).
    @raise Invalid_argument beyond 12 nodes. *)
val exact : Structure.t -> t

(** Children lists derived from [parent]; roots of the forest. *)
val children : t -> int list array

val roots : t -> int list

val pp : Format.formatter -> t -> unit
