(** The polynomial-time R-compatible homomorphism test of Theorem 6
    (Lemma 4): given structures [A], [B], a candidate relation
    [R ⊆ A × B], and a tree decomposition of [A] of width [k], decide by
    dynamic programming over the decomposition whether there is a
    homomorphism [A → B] whose graph is contained in [R].

    The paper proves this via an encoding into conjunctive queries with
    [k+1] variables [29, 42]; the join-tree dynamic program below is the
    standard operational counterpart of that argument.  Each bag's table
    maps every assignment of the variables it shares with its parent
    that extends to a consistent assignment of the bag (its facts hold
    in [B], and each child's table has the shared variables' values) to
    one such extension.

    The DP runs on the engine's compiled instance ([Engine.Compiled]):
    dense node ids, per-variable candidate bitsets with labels and [R]
    applied, and each target relation's per-position tuple index.  A
    bag is filled as an indexed join: its variables are ordered so that
    each shares a fact with an earlier one where it can, a variable's
    candidates are drawn from the index entry of an assigned neighbour,
    and every fact and child-table check runs at the depth where its
    last variable is assigned, so a failing partial assignment is never
    extended.  The work is therefore bounded by the number of consistent
    partial bag assignments; [O(#bags · |B|^(k+1))] remains the worst
    case, polynomial for fixed [k].  [csp.btw.bag_assignments] counts
    every candidate value tried, at any depth.

    Every fact of [A] must lie inside some bag.  0-ary facts of [A] must
    occur in [B]. *)

(** [r_hom ?decomposition ?restrict ~source ~target ()] decides the
    existence of an R-compatible homomorphism, where [restrict] is the
    relation [R] (default {!Domains.unconstrained}).  Labels are enforced
    in addition to [restrict].  A decomposition of [source] is computed
    with the min-degree heuristic when not supplied.  Unbudgeted.
    @raise Invalid_argument when a fact of [source] lies in no bag, or
    a bag holds a node outside [source]. *)
val r_hom :
  ?decomposition:Treewidth.t ->
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  bool

(** Same, returning a witness homomorphism extracted from the DP tables. *)
val r_hom_witness :
  ?decomposition:Treewidth.t ->
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  Solver.hom option

(** [hom ~source ~target ()] — unrestricted bounded-treewidth homomorphism
    test ([R = A × B] modulo labels). *)
val hom :
  ?decomposition:Treewidth.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  bool

(** [satisfiable ?decomposition ?config ~source ~target ()] — {!r_hom}
    under [config]'s restriction and limits, as an engine outcome.  The
    DP makes no branching decisions, so it honours only [timeout_ms] and
    [cancel] (polled once per candidate value tried); the node and
    backtrack budgets, which count the engine's branching decisions and
    dead ends, do not apply.  A tripped limit is [Unknown]; an injected
    crash is [Unknown (Crashed _)]. *)
val satisfiable :
  ?decomposition:Treewidth.t ->
  ?config:Engine.Config.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  unit Engine.outcome
