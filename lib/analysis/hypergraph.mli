(** Hypergraph analysis of conjunctive queries: GYO acyclicity reduction
    and a treewidth estimate of the variable-interaction (Gaifman) graph.

    α-acyclic CQs admit join-tree evaluation; bounded-treewidth CQs admit
    the Theorem 6 bounded-width search.  The GYO certificate is the reduction
    trace (replayable step by step); the cyclicity certificate is the
    irreducible residual hypergraph. *)

type gyo_step =
  | Remove_vertex of {
      vertex : string;
      edge : int;  (** the unique hyperedge (atom index) containing it *)
    }
  | Absorb of {
      edge : int;  (** removed hyperedge (atom index) *)
      into : int;  (** hyperedge that contains it *)
    }

type certificate =
  | Acyclic of { steps : gyo_step list }
  | Cyclic of {
      residual : (int * string list) list;
          (** irreducible hyperedges: atom index + remaining variables *)
    }

type t = {
  atom_count : int;
  var_count : int;
  certificate : certificate;
  width_estimate : int;
      (** treewidth upper bound of the variable graph, best of the
          {!Certdb_csp.Treewidth} heuristics; 0 for variable-free queries *)
  components : int;
      (** connected components of the atoms-share-a-variable graph
          (variable-free atoms excluded); ≥ 2 means the query is a
          cartesian product of independent subqueries *)
}

(** [analyze q] — classify the hypergraph of [q] (hyperedges are the
    atoms' variable sets; constants are ignored).  Counted by
    [csp.analysis.hypergraph]. *)
val analyze : Certdb_query.Cq.t -> t
