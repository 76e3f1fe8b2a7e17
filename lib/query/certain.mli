(** Certain answers over naïve databases (Section 2.1) and the paper's
    characterizations:

    - [certain(Q,D) = ⋂ { Q(R) | R ∈ [[D]] }] — reference implementation by
      enumeration of a finite completion sample;
    - naïve evaluation [Q_naïve(D)]: run [Q] treating nulls as values, then
      drop tuples with nulls — computes certain answers exactly for UCQs;
    - Prop. 2: for Boolean CQs, [certain(Q,D) = true] iff [D_Q ⊑ D] iff
      [Q_D ⊆ Q]. *)

open Certdb_relational

(** {1 Naïve evaluation} *)

(** [naive_eval_fo ~head q d] — evaluate, then remove answer tuples
    containing nulls. *)
val naive_eval_fo : head:string list -> Fo.t -> Instance.t -> Instance.t

(** [naive_eval_ucq u d] — naïve evaluation through the tableau-based CQ
    evaluator (faster than FO enumeration). *)
val naive_eval_ucq : ?target:Hom.target -> Ucq.t -> Instance.t -> Instance.t

(** [naive_holds q d] — Boolean naïve evaluation: [d |= q] with nulls as
    values. *)
val naive_holds : Fo.t -> Instance.t -> bool

(** {1 Certain answers — reference implementations} *)

(** [certain_fo ~head q d] — by enumeration over
    {!Semantics.sample_completions}.  Exponential; small inputs only. *)
val certain_fo : head:string list -> Fo.t -> Instance.t -> Instance.t

(** [certain_holds_fo ?worlds q d] — certain truth of a Boolean FO query
    over the completion sample, optionally extended with caller-supplied
    worlds from [[d]] (needed to refute certainty of non-monotone
    queries). *)
val certain_holds_fo : ?worlds:Instance.t list -> Fo.t -> Instance.t -> bool

(** [certain_holds_fo_owa q d] — over {!Semantics.sample_worlds}, which
    includes proper supersets of the groundings. *)
val certain_holds_fo_owa : Fo.t -> Instance.t -> bool

(** [certain_existential q d] — {e exact} certain truth for Boolean
    existential FO (negation allowed, no universals): existential sentences
    are preserved under extensions, so certainty reduces to the complete
    homomorphic images of [d] (the Theorem 7(b) argument of the paper,
    applied to relations): groundings of the nulls composed with merges of
    facts made equal.  Exponential in the null count.
    @raise Invalid_argument if [q] is not existential. *)
val certain_existential : Fo.t -> Instance.t -> bool

(** {1 Closed-world certainty and possibility}

    Under CWA the semantics of [d] is exactly its groundings [{h(d)}] —
    no supersets (§7 of the paper contrasts the two regimes).  Certainty
    and possibility are then decidable for all of FO by grounding
    enumeration (exponential in the nulls). *)

(** [certain_holds_cwa q d] — [q] true in every grounding. *)
val certain_holds_cwa : Fo.t -> Instance.t -> bool

(** [possible_holds_cwa q d] — [q] true in some grounding. *)
val possible_holds_cwa : Fo.t -> Instance.t -> bool

(** [possible_ucq u d] — tuples appearing in [Q(h(d))] for some grounding
    [h]: the possible answers.  Under OWA possibility is trivial for
    monotone queries over supersets, so the CWA reading is the useful
    one. *)
val possible_ucq : Ucq.t -> Instance.t -> Instance.t

(** [certain_ucq ?target u d] — certain answers of a UCQ, by naïve
    evaluation (provably equal to the enumeration semantics).  [target],
    when given, is [d] prepared by {!Hom.target}; every disjunct searches
    onto it.
    @raise Invalid_argument when [target] was built from another
    instance. *)
val certain_ucq : ?target:Hom.target -> Ucq.t -> Instance.t -> Instance.t

(** {1 Prop. 2 — the three equivalent views for Boolean CQs}

    Every hom-shaped route below decides the same instance: the query's
    variables frozen to fresh nulls and its atoms with arguments
    encoded once by {!Hom.encode} (constants pinned to themselves), with
    0-ary atoms checked against [d] directly.  They differ only in the
    solver that decides it.  Each call counts on [query.certain_checks]
    and runs in one [query.certain_cq] span labelled with the solver's
    name.  All of them raise [Invalid_argument] on a non-Boolean query. *)

(** [certain_cq_via_decider ?limits decider q d] — budgeted [D_Q ⊑ D]
    decided by [decider] (default [limits]: unlimited): [`Unknown r]
    when a limit of [limits] tripped, never a wrong [`True]/[`False]. *)
val certain_cq_via_decider :
  ?limits:Certdb_csp.Engine.Limits.t ->
  Certdb_csp.Decider.t ->
  Cq.t ->
  Instance.t ->
  Certdb_csp.Engine.decision

(** [certain_cq_via_hom q d] — [D_Q ⊑ D] on the bitset engine, unlimited.
    @raise Certdb_obs.Fault.Injected when an armed fault crashes the
    search. *)
val certain_cq_via_hom : Cq.t -> Instance.t -> bool

(** {!certain_cq_via_decider} on {!Certdb_csp.Decider.engine}. *)
val certain_cq_via_hom_b :
  ?limits:Certdb_csp.Engine.Limits.t ->
  Cq.t ->
  Instance.t ->
  Certdb_csp.Engine.decision

(** {!certain_cq_via_decider} on the SAT backend's CDCL decider
    ({!Certdb_sat.Backend.decider}): the instance is encoded to CNF
    (selector + tuple-support variables, symmetry breaking over
    interchangeable variables unless [symmetry:false]) and solved under
    [limits] (conflict budget ≈ backtrack budget). *)
val certain_cq_via_sat_b :
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?symmetry:bool ->
  Cq.t ->
  Instance.t ->
  Certdb_csp.Engine.decision

(** [certain_cq_dimacs ?symmetry q d] — the CNF of the [D_Q ⊑ D]
    instance in DIMACS format, for cross-checking against external
    solvers ([certdb sat dimacs]).  The 0-ary-fact precondition is
    reported in a [c] comment ([zero_ok=false] means the instance is
    unsatisfiable irrespective of the clauses). *)
val certain_cq_dimacs : ?symmetry:bool -> Cq.t -> Instance.t -> string

(** [certain_cq_resilient ?policy ?limits ?fallback decider q d] —
    Boolean CQ certainty under a budget, as a graded answer.  The
    instance is encoded once; [decider] then runs under the
    retry/escalation ladder of {!Certdb_csp.Resilient.run}, which keeps
    one deadline for every attempt, and when every attempt trips,
    [fallback] (if any) runs once with the time left under the fully
    escalated budgets (rung [fallback[<name>]]).  Crossing solvers never
    flips a definitive answer: the fallback only runs on [Unknown].
    Which decider pair a query gets is the planner's job
    ([Certdb_analysis.Plan.certain]), the one caller outside tests.
    Results:

    - [`Exact b] — a decider settled it: [b] is the certain answer;
    - [`Lower_bound false] — the ladder was exhausted: no witness was
      found within the budget, and the query may or may not be certain.
      Nothing runs after the ladder: by Prop. 2 any further evaluation
      would ask the ladder's own question without a budget.

    Never returns an [`Unknown], and never lets an injected crash
    ([Certdb_obs.Fault.Injected]) escape: a crashed attempt is an
    [Unknown] like any other.  [query.resilient.exact] /
    [query.resilient.degraded] count which grade was answered.

    [target], when given, is [d] prepared by {!Hom.target}: the instance
    is encoded onto it instead of onto a target built for this call.
    @raise Invalid_argument when [target] was built from another
    instance. *)
val certain_cq_resilient :
  ?policy:Certdb_csp.Resilient.Policy.t ->
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?fallback:Certdb_csp.Decider.t ->
  ?target:Hom.target ->
  Certdb_csp.Decider.t ->
  Cq.t ->
  Instance.t ->
  [ `Exact of bool | `Lower_bound of bool ]

(** {!certain_cq_via_decider} on {!Certdb_csp.Decider.btw}: [D_Q ⊑ D]
    by Theorem 6's bounded-width search over the same instance, with the
    query's terms as the source structure, [d]'s active domain as the
    target, and constants pinned to themselves.  Polynomial for a fixed
    decomposition width (the planner routes acyclic and low-width
    queries here).  Of [limits] it honours [timeout_ms] and [cancel];
    node and backtrack budgets do not bound it. *)
val certain_cq_via_btw :
  ?limits:Certdb_csp.Engine.Limits.t ->
  Cq.t ->
  Instance.t ->
  Certdb_csp.Engine.decision

(** [certain_cq_via_containment q d] — [Q_D ⊆ Q]. *)
val certain_cq_via_containment : Cq.t -> Instance.t -> bool

(** [certain_cq_via_naive q d] — naïve Boolean evaluation. *)
val certain_cq_via_naive : Cq.t -> Instance.t -> bool

(** {1 Agreement checks (used by tests and by experiment E1/E2)} *)

(** [naive_eval_is_certain ~head q d] iff naïve evaluation and the
    enumeration reference agree on [d]. *)
val naive_eval_is_certain : head:string list -> Fo.t -> Instance.t -> bool

val drop_null_tuples : Instance.t -> Instance.t
