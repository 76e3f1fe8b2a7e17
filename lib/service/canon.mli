(** Canonical forms for the semantic cache.

    {b Query keys.}  Certain answers are invariant under hom-equivalence
    of the query (two equivalent CQs have the same certain answers over
    every instance — Section 4's homomorphism preorder), so the sound
    cache key for a query is a canonical representative of its
    ∼-equivalence class.  [cq_key] freezes the query straight into one
    structure, its tableau ({!Certdb_query.Cq.tableau_columnar}), with
    the constants and the head variables pinned to themselves, and takes
    its core ({!Certdb_relational.Core_instance.core_nodes}: one
    endomorphism search per retraction round, in the lex-leader order
    of its interchangeable classes).  It then labels the core's body
    variables canonically, on the compiled core's own relations and
    ids, by colour refinement with individualisation on ties
    (McKay–Piperno).  A split cell branches on one member per
    interchangeable class of the core: swapping two members not yet
    individualised fixes the colouring, so their subtrees give equal
    leaves.  The key renders the core under the least leaf.  Two CQs get
    the same key iff their cores are isomorphic iff they are
    hom-equivalent (qcheck-checked both ways in [test_service.ml]).
    Constants render with their type and length, so [Int 5], [Str "5"]
    and a string holding a comma never alias one another.

    Both steps carry the budget.  One node budget covers the whole core
    computation, every retraction round drawing from it, and the
    labeling's tree nodes count against the budget too (a rigid core,
    such as a transitive tournament, costs one node; a bidirectional
    k-clique costs k).  If either gives up, the result is [None]; the
    service then counts a cache bypass and evaluates the query
    directly.  A key therefore costs at most twice the budget in search
    nodes, never a blowup.

    The spans [canon.key], with children [canon.core] and [canon.label],
    time the two steps; the counters [service.canon.core_tests] (one
    per retraction round's search) and [service.canon.label_nodes]
    count their work.

    {b Database fingerprints.}  [db_fingerprint] is a stable content
    hash: nulls are renumbered by increasing id (invariant under the
    order-preserving renaming the parser's global null supply applies
    on every load, so loading the same source twice fingerprints
    equally), facts are rendered as query keys render atoms and sorted,
    and the rendering is FNV-1a hashed.  Distinct fingerprints never
    alias semantically in practice, but the fingerprint is
    {e syntactic}: hom-equivalent databases may hash apart (they would
    only cost a duplicate cache line, never a wrong answer). *)

(** Search budget before [cq_key] gives up: engine nodes for the whole
    core computation, shared by its retraction rounds, and labeling tree
    nodes; {!cq_key}'s default is 50_000. *)
val default_budget : int

(** [cq_key ?budget q] — the canonical key of [q]'s hom-equivalence
    class, or [None] if the core computation or the labeling exceeded
    [budget]. *)
val cq_key : ?budget:int -> Certdb_query.Cq.t -> string option

(** [db_fingerprint d] — 16 hex digits, stable across loads of the same
    source text. *)
val db_fingerprint : Certdb_relational.Instance.t -> string
