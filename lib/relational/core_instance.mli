(** Cores of naïve databases: the smallest instance hom-equivalent to the
    input.  Used as the canonical representative of a ∼-equivalence class
    (e.g. the core solution in data exchange, the reduced form of ⊗-product
    glbs). *)

val is_core : Instance.t -> bool
val core : Instance.t -> Instance.t

(** [core_b ?limits d] — the core, computed by hom tests [d → d − {f}]
    that each run under [limits].  [Sat c] is the core; [Unknown r]
    reports the limit that tripped first.  Never [Unsat]. *)
val core_b :
  ?limits:Certdb_csp.Engine.Limits.t ->
  Instance.t ->
  Instance.t Certdb_csp.Engine.outcome
