(** The certificate-driven planner: route a (query, instance) pair to the
    cheapest provably sound certain-answer algorithm.

    Decision table for a Boolean CQ (the only shape with a genuine
    choice — non-Boolean CQs/UCQs go to naïve evaluation, which is sound
    and complete for the whole class by Theorem 4):

    - GYO-acyclic hypergraph → [Acyclic_join]: the Theorem 6 dynamic
      program over a join-tree-shaped decomposition (polynomial), run as
      an indexed join over the compiled instance
      ({!Certdb_csp.Bounded_tw});
    - cyclic but width estimate ≤ threshold → [Bounded_width w]: same DP,
      cost bounded by its consistent partial bag assignments, at worst
      [O(bags · |adom|^(w+1))];
    - cyclic, wide, but ≥ 2 connected components in the atoms-share-a-
      variable graph → [Components c]: the component count is kept as
      the route's certificate; evaluation runs the same decider and
      ladder as [Hom_ladder], whose engine solves the components one at
      a time ({!Certdb_csp.Engine.satisfiable});
    - cyclic, wide, but some query relation carries a {e certainly
      satisfied key FD} (checked by the caller with {!Fd.check} and
      passed via [?fds]) → [Fd_naive]: that relation is key-determined
      in every completion.  The FD is recorded as the route's
      certificate; evaluation runs the same budgeted ladder as
      [Hom_ladder];
    - under [~backend:Auto], cyclic + wide + dense (at least as many
      atoms as variables) + a class of ≥ 3 pairwise-interchangeable
      variables → [Sat_backend k]: encode to CNF and give it to
      {!Certdb_sat}'s CDCL core, whose symmetry-breaking ordering
      clauses collapse the [k!] permutations of interchangeable fresh
      nulls that chronological backtracking enumerates (counted by
      [query.plan.sat]); [~backend:Sat] forces this route, and the
      default [~backend:Csp] never picks it;
    - everything else → [Hom_ladder]: the budgeted Prop. 2 hom check
      under the {!Certdb_csp.Resilient} retry/escalation ladder.

    Routing never changes an answer, only its cost: every route decides
    [D_Q ⊑ D] exactly (the ladder answers [`Lower_bound false] only when
    limits are imposed and exhausted).  Chosen routes are counted
    by [query.plan.naive_eval] / [query.plan.acyclic_join] /
    [query.plan.bounded_width] / [query.plan.components] /
    [query.plan.hom_ladder] / [query.plan.fd_naive] /
    [query.plan.sat]. *)

type route =
  | Naive_eval
  | Acyclic_join
  | Bounded_width of int
  | Components of int
  | Hom_ladder
  | Fd_naive of Fd.fd
      (** the certainly-satisfied key FD that licensed the route *)
  | Sat_backend of int
      (** the size of the largest interchangeable-variable class that
          licensed (or was measured when forcing) the SAT route *)

type decision = {
  route : route;
  hypergraph : Hypergraph.t option;
      (** the certificate behind the choice; [None] for non-Boolean
          queries, which are routed on their shape alone *)
}

val route_to_string : route -> string

(** [route_cq ?width_threshold ?fds q] — the route only, no evaluation
    and no counter update.  [width_threshold] defaults to 2.  [fds]
    (default [[]]) are FDs the caller has certified as {e certainly
    satisfied} by the instance at hand; a key FD among them on a query
    relation enables the [Fd_naive] route for wide cyclic queries.
    Soundness does not depend on the certification — every route is
    exact — only the recorded certificate does. *)
val route_cq :
  ?width_threshold:int ->
  ?fds:Fd.fd list ->
  ?backend:Certdb_sat.Backend.choice ->
  Certdb_query.Cq.t ->
  decision

(** [certain ?policy ?limits ?jobs ?width_threshold q d] — Boolean CQ
    certainty through the planner: one call to
    {!Certdb_query.Certain.certain_cq_resilient}, whose decider pair
    depends on the route.  [Acyclic_join] and [Bounded_width] run the
    Theorem 6 DP ({!Certdb_csp.Decider.btw}), which honours the
    deadline and the cancel token of [limits] but not its node and
    backtrack budgets; [Components], [Hom_ladder] and [Fd_naive] the
    bitset engine; and [Sat_backend] the CDCL decider with the bitset
    engine as its fallback, so crossing solvers never weakens an answer.
    [jobs] is accepted and ignored: one request runs on one domain.
    Every route keeps the ladder's one deadline, and an exhausted ladder
    answers [`Lower_bound false].  Unlimited [limits] always yield
    [`Exact].
    @raise Invalid_argument on a non-Boolean query. *)
val certain :
  ?policy:Certdb_csp.Resilient.Policy.t ->
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?jobs:int ->
  ?width_threshold:int ->
  ?fds:Fd.fd list ->
  ?backend:Certdb_sat.Backend.choice ->
  Certdb_query.Cq.t ->
  Certdb_relational.Instance.t ->
  [ `Exact of bool | `Lower_bound of bool ]

(** [certain_answers u d] — certain answers of a UCQ by naïve evaluation
    (Theorem 4); recorded as a [Naive_eval] route. *)
val certain_answers :
  Certdb_query.Ucq.t ->
  Certdb_relational.Instance.t ->
  Certdb_relational.Instance.t
