(** The pluggable propositional backend: a solver module signature in the
    crossbow [Csp_inst.Make (Solv : Csp_solver.S)] shape (SNIPPETS.md),
    plus a pure-OCaml CDCL implementation.

    Variables are positive integers handed out by {!S.new_var}; a literal
    is [+v] (the variable) or [-v] (its negation) — the DIMACS
    convention, so clause lists print directly.  {!S.solve} runs under
    {!Certdb_csp.Engine.Limits.t} with the engine's budget semantics:
    decisions tick the node budget, conflicts tick the backtrack budget
    (conflict budget ≈ backtrack budget), the wall-clock deadline and the
    cancel token are polled inside the search loop, and the result is the
    same three-valued {!Certdb_csp.Engine.outcome} — [Sat]/[Unsat] are
    definitive, a tripped limit is [Unknown].

    Every conflict passes the ["csp.sat.conflict"] fault point
    ({!Certdb_obs.Fault}), and an injected crash surfaces as
    [Unknown (Crashed "csp.sat.conflict")], never an escaped exception —
    the same failure contract as the CSP engine, which is what lets
    a {!Certdb_csp.Resilient} run fall back across backends. *)

module Engine = Certdb_csp.Engine

(** What a backend must provide.  [solve] may be called repeatedly with
    different assumption sets over a growing clause set (incremental
    use); clauses are permanent. *)
module type S = sig
  type t

  (** Backend name, for routing labels and DIMACS comments. *)
  val name : string

  val create : unit -> t

  (** [reserve s n] — make room for [n] more variables, so that the
      next [n] calls to {!new_var} allocate nothing.  A capacity hint
      only: it allocates no variable and changes no numbering. *)
  val reserve : t -> int -> unit

  (** Allocate a fresh variable (positive, dense from 1). *)
  val new_var : t -> int

  (** Number of variables allocated so far. *)
  val nvars : t -> int

  (** [add_clause s lits] — add a clause over existing variables.
      Duplicate literals are merged and tautologies dropped; the empty
      clause makes the instance permanently unsatisfiable.  The solver
      takes ownership of [lits]: it may normalise the array in place and
      keep it as its clause, so the caller must neither read nor reuse
      it afterwards.
      @raise Invalid_argument on a literal whose variable was never
      allocated. *)
  val add_clause : t -> int array -> unit

  (** [solve ?assumptions ?limits s] — decide satisfiability of the
      clauses under the (temporary) assumption literals.  [Unsat] means
      unsatisfiable {e under the assumptions}; [Unknown r] reports the
      tripped limit ([r] uses the engine's reasons: [Node_budget] =
      decision budget, [Backtrack_budget] = conflict budget, plus
      [Deadline] / [Cancelled] / [Crashed _]). *)
  val solve :
    ?assumptions:int list ->
    ?limits:Engine.Limits.t ->
    t ->
    unit Engine.outcome

  (** [model_value s v] — the value of [v] in the model of the last
      [Sat] answer.  Meaningless (but safe) otherwise. *)
  val model_value : t -> int -> bool

  (** Conflicts encountered over the solver's lifetime. *)
  val conflicts : t -> int
end

(** The CDCL core, MiniSat-shaped (Eén & Sörensson, SAT 2003):
    two-watched-literal unit propagation over flat per-literal watch
    vectors, first-UIP conflict analysis with clause learning,
    VSIDS-style exponential activity decay with a binary-heap order
    (highest activity first, lowest variable on ties), phase saving, and
    Luby-sequence restarts.  Every step costs what it touches: the
    decision level is a field, the next branching variable comes off the
    heap.  [add_clause] sorts the clause in place, drops duplicate and
    root-false literals, and discards tautologies (a complementary pair
    or a root-true literal); a unit clause is assigned at the root.
    Learned clauses are kept (no database reduction — instance sizes
    here are bounded by the encoder).  Counted under [csp.sat.*];
    propagations are added to their counter once per [solve]. *)
module Cdcl : sig
  include S

  (** [root_value s v] — [Some b] when [v] is assigned [b] at the root
      level (a unit clause, or a unit learnt by an earlier [solve]),
      [None] otherwise. *)
  val root_value : t -> int -> bool option

  (** [inconsistent s] — an empty clause or a root-level conflict has
      made the clause set unsatisfiable for good. *)
  val inconsistent : t -> bool
end

(** The name of the conflict fault point, ["csp.sat.conflict"]. *)
val conflict_fault_point : string
