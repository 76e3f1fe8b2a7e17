(** Cores of naïve databases: the smallest instance hom-equivalent to the
    input.  Used as the canonical representative of a ∼-equivalence class
    (e.g. the core solution in data exchange, the reduced form of ⊗-product
    glbs). *)

open Certdb_values

val is_core : Instance.t -> bool
val core : Instance.t -> Instance.t

(** [core_b ?limits ?fixed ?tests d] — the core, computed by one hom
    test per null [v] of [d]: is there an endomorphism of [d] whose image
    avoids [v]?  If so, [d] retracts to that image.  [d → d] is compiled
    once per retraction, and each test only narrows the candidates.
    Every test runs under [limits] and bumps the counter [tests].  The
    nulls in [fixed] are pinned to themselves, as constants are; the
    core keeps them all, and they cost no test.  [Sat c] is the
    core, and [Unknown r] reports the limit that tripped first.  Never
    [Unsat]. *)
val core_b :
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?fixed:Value.Set.t ->
  ?tests:Certdb_obs.Obs.counter ->
  Instance.t ->
  Instance.t Certdb_csp.Engine.outcome
