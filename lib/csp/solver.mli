(** Homomorphism search between finite labeled structures — the constraint
    satisfaction problem of Section 6 ([Membership] reduces to it, Prop. 9
    characterizes the information ordering by it).

    A homomorphism [h : A → B] maps nodes to nodes, preserves labels, and
    maps every tuple of [A] to a tuple of [B].  The optional [restrict]
    argument constrains the graph of [h] to a relation [R ⊆ A × B]
    (the R-compatible homomorphisms of Theorem 6's proof).

    These entry points are thin unlimited-budget shims over {!Engine};
    callers that want node/backtrack budgets, deadlines, cancellation, or
    a three-valued result use {!Engine.solve} and friends directly.  An
    injected crash ([csp.search.node]) escapes every shim as
    [Certdb_obs.Fault.Injected].
    [find_hom_naive] is a lexicographic backtracker kept for the ablation
    benchmark and as an independent test oracle. *)

type hom = Engine.hom

(** [definitive o] — the unlimited-budget reading of an outcome: [Sat x]
    is [Some x], [Unsat] is [None].
    @raise Certdb_obs.Fault.Injected on [Unknown (Crashed p)]
    @raise Invalid_argument on any other [Unknown] (a limit was set). *)
val definitive : 'a Engine.outcome -> 'a option

(** [is_hom ~source ~target h] checks that [h] is a total label-preserving
    homomorphism. *)
val is_hom : source:Structure.t -> target:Structure.t -> hom -> bool

(** [find_hom ?restrict ~source ~target ()] returns a homomorphism if one
    exists.  [restrict v] limits the candidates for source node [v]. *)
val find_hom :
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  hom option

(** [exists_hom] decides existence through {!Engine.satisfiable}: it
    short-circuits over unconstrained nodes and never materializes the
    witness map. *)
val exists_hom :
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  bool

(** [find_hom_naive] — no variable-ordering heuristic, no propagation. *)
val find_hom_naive :
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  hom option

(** [iter_homs ~source ~target f] calls [f] on every homomorphism; [f]
    returning [`Stop] aborts the enumeration. *)
val iter_homs :
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  (hom -> [ `Continue | `Stop ]) ->
  unit

val count_homs :
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  int

(** [find_onto_hom ?limits ?restrict ~source ~target ()] searches for a
    homomorphism whose node image covers all of [target]'s nodes and whose
    fact image covers all of [target]'s facts (the onto homomorphisms of
    the CWA ordering, relational and gdm alike). *)
val find_onto_hom :
  ?limits:Engine.Limits.t ->
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  hom Engine.outcome
