(** Database homomorphisms between naïve instances: maps on nulls (identity
    on constants) sending every fact of the source into the target
    (Section 2.1).  [D ⊑ D′] iff such a homomorphism exists (Prop. 3).

    Every search runs on {!Certdb_csp.Engine} through one encoding
    ({!encode}): budgets, deadlines, cancellation, injected faults and the
    [csp.solver.*] counters are the engine's. *)

open Certdb_values
module Engine = Certdb_csp.Engine

(** [is_hom h d d'] checks that the valuation [h] maps every fact of [d]
    into [d']. *)
val is_hom : Valuation.t -> Instance.t -> Instance.t -> bool

(** The hom problem [facts → d'] as a structure pair for the engine.
    Source node [i] stands for the value [src_values.(i)] (numbered by
    first occurrence along the fact list), target node [j] for
    [tgt_values.(j)] (the active domain of [d'], in order).  Nodes are
    unlabeled; [restrict] pins each constant to itself (the empty set
    when it is missing from [d']).  0-ary facts become 0-ary tuples, which the
    engine checks before branching. *)
type encoding = {
  source : Certdb_csp.Structure.t;
  target : Certdb_csp.Structure.t;
  restrict : Certdb_csp.Domains.t;
  src_values : Value.t array;
  tgt_values : Value.t array;
}

(** {1 Prepared targets}

    The target half of every encoding onto [d'] — the structure over
    adom([d']), the value-to-node ids and the structure's
    {!Certdb_csp.Structure.columnar} view, forced on construction —
    depends on [d'] alone.  A caller that tests many sources against one
    instance builds it once with {!target} and passes it to the [_onto]
    forms below; each [d']-taking entry point is one such call on a
    fresh target.  A target is immutable once built, so one value may
    serve concurrent searches on several domains. *)

type target

(** [target d'] prepares [d'] as a target; the target carries [d'].
    Counted by [relational.hom.targets]. *)
val target : Instance.t -> target

(** [target_for ?target d'] — [target] when it was built from [d']
    itself (physical equality), a fresh {!target} of [d'] when [target]
    is absent.
    @raise Invalid_argument when [target] was built from another
    instance. *)
val target_for : ?target:target -> Instance.t -> target

(** [encode_onto t facts] — the hom problem [facts → d'] for [t] built
    from [d'], as {!encode} builds it, with [t] as its target half. *)
val encode_onto : target -> Instance.fact list -> encoding

val encode : Instance.fact list -> Instance.t -> encoding

(** [encode_endo ?fixed d] — the endomorphism problem [d → d], with one
    structure on both sides: node [i] stands for [tgt_values.(i)] (the
    active domain, in order) in the source as in the target, and
    [src_values] is [tgt_values].  [restrict] pins each constant, and
    each null in [fixed], to itself; it leaves every other node
    unconstrained.  This is query-side work (a core search's [D_Q → D_Q]),
    not a prepared target: [relational.hom.targets] does not count it. *)
val encode_endo : ?fixed:Value.Set.t -> Instance.t -> encoding

(** [valuation e h] — the engine's witness [h] for [e], read back as a
    map on the nulls of the source. *)
val valuation : encoding -> Engine.hom -> Valuation.t

(** [find d d'] searches for a homomorphism [d → d'].
    @raise Certdb_obs.Fault.Injected when an armed fault crashes the
    search (likewise {!exists}, {!iter}, {!count}). *)
val find : Instance.t -> Instance.t -> Valuation.t option

val exists : Instance.t -> Instance.t -> bool

(** [exists_onto t d] is [exists d d'] for [t] built from [d']. *)
val exists_onto : target -> Instance.t -> bool

(** [find_b ?limits d d'] — the budgeted search.  [Sat h] carries a
    witness, [Unsat] means the search space was exhausted, and
    [Unknown r] reports the limit that tripped ({!Engine.reason}). *)
val find_b :
  ?limits:Engine.Limits.t ->
  Instance.t ->
  Instance.t ->
  Valuation.t Engine.outcome

val exists_b :
  ?limits:Engine.Limits.t -> Instance.t -> Instance.t -> Engine.decision

(** {!find_b} and {!exists_b} onto a prepared target. *)
val find_b_onto :
  ?limits:Engine.Limits.t -> target -> Instance.t -> Valuation.t Engine.outcome

val exists_b_onto :
  ?limits:Engine.Limits.t -> target -> Instance.t -> Engine.decision

(** [iter d d' f] enumerates the homomorphisms until [f] returns
    [`Stop].  Only bindings of nulls occurring in [d] are reported. *)
val iter :
  Instance.t ->
  Instance.t ->
  (Valuation.t -> [ `Continue | `Stop ]) ->
  unit

(** [iter_onto t d f] is [iter d d' f] for [t] built from [d']. *)
val iter_onto :
  target -> Instance.t -> (Valuation.t -> [ `Continue | `Stop ]) -> unit

(** [count d d'] — the number of homomorphisms, as maps on the nulls of
    [d]. *)
val count : Instance.t -> Instance.t -> int
