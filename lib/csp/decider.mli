(** One solver signature for the hom-existence test that every
    Boolean-certainty route asks: a named procedure deciding whether an
    R-compatible homomorphism [source → target] exists under a
    {!Engine.Config.t}.

    The instance is built once by the caller (for certain answers,
    [Hom.encode] of the query's tableau) and handed to whichever decider
    the planner picked for the request — crossbow's "one instance
    builder, many solvers", as a record rather than a functor because
    the choice is made per request at run time.  Every decider honours
    [config.restrict] and the deadline and cancel token of
    [config.limits], and every decider but {!btw} its node and
    backtrack budgets too.  Each
    answers with the engine's three-valued outcome: [Sat ()] and [Unsat]
    are definitive, a tripped limit is [Unknown].  The CDCL decider lives in [Certdb_sat.Backend],
    which depends on this library. *)

type t = {
  name : string;
      (** reported by the ladder's fallback rung ([fallback[<name>]]) and
          on the [solver] label of certainty spans *)
  satisfiable :
    Engine.Config.t -> Structure.t -> Structure.t -> unit Engine.outcome;
}

(** The bitset engine ({!Engine.satisfiable}), named ["csp"]: it solves
    the source's connected components one at a time under one budget. *)
val engine : t

(** Theorem 6's bounded-width test, named ["btw"]: {!Engine.satisfiable}
    over the narrower of the two {!Treewidth} heuristics' decompositions
    of the source, with its memo on separator assignments.  Polynomial
    for a fixed width, so the planner sends acyclic and low-width
    queries here.  It honours [timeout_ms] and [cancel] only: its
    decisions are bounded by the width, not by a node or backtrack
    budget. *)
val btw : t

(** The pre-columnar core ({!Engine.Reference.satisfiable}), named
    ["reference"]: a test oracle only.  It ignores 0-ary constraints. *)
val reference : t
