(** Cores of naïve databases: the smallest instance hom-equivalent to the
    input.  Used as the canonical representative of a ∼-equivalence class
    (e.g. the core solution in data exchange, the reduced form of ⊗-product
    glbs). *)

open Certdb_values

val is_core : Instance.t -> bool
val core : Instance.t -> Instance.t

(** A core on dense ids: what {!core_nodes} returns. *)
type endo = {
  compiled : Certdb_csp.Engine.Compiled.t;
      (** the core's endomorphism problem, compiled: its source and
          target are one structure with nodes [0..m-1] *)
  origin : int array;  (** per node of the core, the input node it is *)
  classes : int array array;
      (** the interchangeable classes of [compiled]
          ({!Certdb_csp.Engine.Compiled.interchangeable_classes}), which
          the last search's lex-leader order used *)
}

(** [core_nodes ?limits ?tests ~pinned c] — the core of the structure
    whose columnar view is [c]: its nodes are [0..n-1], unlabeled, and
    their own dense ids ({!Certdb_csp.Structure.columnar_of}).  Every
    endomorphism fixes the nodes [i] with [pinned.(i)].

    Each retraction round runs one search over the endomorphisms of the
    current structure, in the lex-leader order of its interchangeable
    classes, and stops at the first one that is not injective.  The
    structure then retracts to that endomorphism's image, which is
    encoded afresh.  The core is the structure whose search is
    exhausted.  A structure whose nodes are all pinned is its own core
    and costs no search.

    One budget, [limits], covers every round, and each search bumps the
    counter [tests].  [Unknown r] reports the limit that tripped.  Never
    [Unsat]. *)
val core_nodes :
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?tests:Certdb_obs.Obs.counter ->
  pinned:bool array ->
  Certdb_csp.Structure.columnar ->
  endo Certdb_csp.Engine.outcome

(** [core_b ?limits ?fixed ?tests d] — the core of [d], by
    {!core_nodes} over one encoding of [d → d]
    ({!Hom.encode_endo}).  Constants, and the nulls in [fixed], are
    pinned: the core keeps them all.  [Sat c] is the core, a
    subinstance of [d], and [Unknown r] reports the limit that tripped
    first.  Never [Unsat]. *)
val core_b :
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?fixed:Value.Set.t ->
  ?tests:Certdb_obs.Obs.counter ->
  Instance.t ->
  Instance.t Certdb_csp.Engine.outcome
