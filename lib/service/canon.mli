(** Canonical forms for the semantic cache.

    {b Query keys.}  Certain answers are invariant under hom-equivalence
    of the query (two equivalent CQs have the same certain answers over
    every instance — Section 4's homomorphism preorder), so the sound
    cache key for a query is a canonical representative of its
    ∼-equivalence class: [cq_key] minimizes the query ({!Cq.minimize} =
    the core of its tableau, head variables frozen) and then computes a
    canonical encoding of the core modulo variable renaming and atom
    reordering, by branch-and-bound over atom orderings for the
    lexicographically least encoding.  Two CQs get the same key iff
    their cores are isomorphic iff they are hom-equivalent (qcheck-
    checked both ways in [test_service.ml]).

    Canonicalisation of a pathological query (many interchangeable
    atoms) can branch; the search carries a node budget, and so does
    each hom test of the minimization ({!Cq.minimize_b} runs one test per
    atom with a non-head variable); either giving up yields [None] — the service
    then counts a cache bypass and evaluates the query directly.  An
    adversarial query of [n] atoms therefore costs at most [n + 1] times
    the budget in search nodes, never a blowup.

    {b Database fingerprints.}  [db_fingerprint] is a stable content
    hash: nulls are renumbered by increasing id (invariant under the
    order-preserving renaming the parser's global null supply applies
    on every load, so loading the same source twice fingerprints
    equally), facts are sorted, and the rendering is FNV-1a hashed.
    Distinct fingerprints never alias semantically in practice, but the
    fingerprint is {e syntactic}: hom-equivalent databases may hash
    apart (they would only cost a duplicate cache line, never a wrong
    answer). *)

(** Search budget before [cq_key] gives up: canonicalisation tree nodes,
    and engine nodes for each hom test of the core computation (the
    budget is per test, not shared across tests); {!cq_key}'s default is
    50_000. *)
val default_budget : int

(** [cq_key ?budget q] — the canonical key of [q]'s hom-equivalence
    class, or [None] if minimization or canonicalisation exceeded
    [budget]. *)
val cq_key : ?budget:int -> Certdb_query.Cq.t -> string option

(** [db_fingerprint d] — 16 hex digits, stable across loads of the same
    source text. *)
val db_fingerprint : Certdb_relational.Instance.t -> string
