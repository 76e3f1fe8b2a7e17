(** CNF encoding of homomorphism instances (and hence Boolean-CQ
    certainty, which {!Certdb_query} reduces to hom search).

    The encoding is the direct one over the engine's compiled view
    ({!Certdb_csp.Engine.Compiled}): a selector variable [x_{v,w}] per
    admissible (source var, target node) pair from the variable's
    {!Certdb_csp.Domains} bitset, at-least-one / pairwise at-most-one
    clauses per variable, and per-constraint tuple-support variables
    [y_{c,t}] (at least one supporting target tuple per source fact,
    each implying its positions' selectors) read off the columnar
    {!Certdb_csp.Structure} indexes.  Optionally, symmetry-breaking
    ordering clauses over classes of interchangeable source variables
    ({!Certdb_csp.Engine.Compiled.interchangeable_classes}) — the
    interchangeable fresh nulls of naïve tables — cut the [k!]
    permutation blowup that chronological backtracking pays.

    [make] finds every constraint's supporting tuples before it
    allocates a variable, reserves the exact variable count with
    {!Solver.S.reserve}, and hands each clause to the backend as a fresh
    array, which the backend owns.  The clause set and its order are a
    pinned contract (test_sat's golden CNFs): a backend sees exactly the
    clauses [certdb sat dimacs] prints.

    Models decode back to homomorphism witnesses and are re-checked by
    {!Certdb_csp.Engine.is_hom}; a model that fails verification
    surfaces as [Unknown (Crashed "sat.decode")], never as a bogus
    [Sat]. *)

module Engine = Certdb_csp.Engine

type stats = {
  sel_vars : int;  (** selector variables *)
  tuple_vars : int;  (** tuple-support variables *)
  clauses : int;
  sym_classes : int;  (** interchangeable classes of size ≥ 2 *)
  largest_class : int;  (** 0 when there are none *)
}

module Make (Solv : Solver.S) : sig
  type t

  (** [make ?restrict ?symmetry ~source ~target ()] — compile and
      encode.  [symmetry] (default [true]) controls the ordering
      clauses; they never change satisfiability. *)
  val make :
    ?restrict:Certdb_csp.Domains.t ->
    ?symmetry:bool ->
    source:Certdb_csp.Structure.t ->
    target:Certdb_csp.Structure.t ->
    unit ->
    t

  (** Decide, decode, verify.  May be called repeatedly under different
      limits: the backend keeps its clauses (and, for CDCL, what it
      learned) across calls. *)
  val solve : ?limits:Engine.Limits.t -> t -> Engine.hom Engine.outcome

  val satisfiable : ?limits:Engine.Limits.t -> t -> unit Engine.outcome
  val stats : t -> stats

  (** The underlying backend instance (for DIMACS export). *)
  val solver : t -> Solv.t
end
