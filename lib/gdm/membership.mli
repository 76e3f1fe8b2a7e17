(** The membership/ordering problem for generalized databases (Section 6,
    Theorem 6): deciding [D ⊑ D′].

    In general this is a constraint satisfaction problem (NP-complete);
    [generic_leq] solves it with the backtracking search of {!Ghom}.

    Under the Codd interpretation (each null occurs at most once) data
    constraints decouple across nodes: by Lemma 3, [D ⊑ D′] iff there is a
    structural homomorphism whose graph lies inside the relation

    {v R(D,D') = { (ν,ν') | λ(ν) = λ′(ν′) and ρ(ν) ⪯ ρ′(ν′) } v}

    which [codd_leq] decides in polynomial time by the engine's search
    over a tree decomposition, memoised on separator assignments
    ({!Certdb_csp.Engine.Config.t}'s [decomposition], Lemma 4).  This subsumes
    the PTIME algorithms of [3] for Codd tables and of [7] for XML, both
    instances of treewidth ≤ 1. *)

open Certdb_csp

(** [candidate_relation d d'] — the relation [R(D,D')] as a first-class
    {!Certdb_csp.Domains.t}. *)
val candidate_relation : Gdb.t -> Gdb.t -> Domains.t

val generic_leq : Gdb.t -> Gdb.t -> bool

(** Budgeted generic ordering, via {!Ghom.exists_b}. *)
val generic_leq_b :
  ?limits:Engine.Limits.t -> Gdb.t -> Gdb.t -> Engine.decision

(** [codd_leq ?decomposition d d'] — PTIME for bounded treewidth.
    @raise Invalid_argument if [d] is not Codd. *)
val codd_leq : ?decomposition:Treewidth.t -> Gdb.t -> Gdb.t -> bool

(** [codd_leq_witness] — also extracts a homomorphism. *)
val codd_leq_witness :
  ?decomposition:Treewidth.t -> Gdb.t -> Gdb.t -> Ghom.t option

(** [mem d' d] — membership [D′ ∈ [[D]]] ([d'] complete), choosing the
    PTIME path automatically when [d] is Codd and the structure has small
    treewidth. *)
val mem : Gdb.t -> Gdb.t -> bool

(** Budgeted membership.  The PTIME Codd path ignores [limits] (it is
    polynomial and never answers [`Unknown]); the generic NP path threads
    them through the {!Ghom} search. *)
val mem_b : ?limits:Engine.Limits.t -> Gdb.t -> Gdb.t -> Engine.decision
