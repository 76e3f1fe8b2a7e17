(** Certain answers for FO(S,∼) sentences over generalized databases —
    the three regimes of Theorem 7:

    - existential positive sentences: certain truth coincides with direct
      (naïve) evaluation on [D_EQ] — polynomial time (part a);
    - existential sentences: certain truth is coNP; it is false iff some
      complete homomorphic image of [D] refutes the sentence (part b);
    - full FO(S,∼): undecidable in general (part c) — we expose a
      semi-decision by enumeration over a finite sample of images, which is
      sound for refutation (a found counter-image proves non-certainty) and
      exact on the fragments above. *)

val naive_holds : Gdb.t -> Logic.t -> bool

(** [certain ?on_unsupported db f] — certain truth:
    - existential positive: naïve evaluation (exact);
    - existential: complete-image enumeration (exact — the proof of
      Theorem 7(b) shows images of [D] suffice);
    - otherwise: [on_unsupported] decides; default raises
      [Invalid_argument]. *)
val certain : ?on_unsupported:(Gdb.t -> Logic.t -> bool) -> Gdb.t -> Logic.t -> bool

(** Budgeted [certain]: the existential (coNP) regime accounts one engine
    node per enumerated complete image, so a node budget or deadline in
    [limits] bounds the enumeration and surfaces as [`Unknown].  The
    polynomial existential-positive path never answers [`Unknown]. *)
val certain_b :
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?on_unsupported:(Gdb.t -> Logic.t -> bool) ->
  Gdb.t ->
  Logic.t ->
  Certdb_csp.Engine.decision

(** Budgeted {!certain_existential}. *)
val certain_existential_b :
  ?limits:Certdb_csp.Engine.Limits.t ->
  Gdb.t ->
  Logic.t ->
  Certdb_csp.Engine.decision

(** [certain_resilient ?policy ?limits ?on_unsupported db f] — certain
    truth that degrades instead of giving up (the gdm analogue of
    [Certain.certain_cq_resilient]):

    - existential positive [f]: [`Exact], by naïve evaluation (Theorem
      7(a) — exact, polynomial, no search to trip);
    - existential [f]: the coNP image enumeration as one budgeted
      {!Certdb_csp.Resilient.run}; if it trips, one cheap completion
      (all nulls fresh) is checked —
      [f] false there is a sound refutation ([`Exact false]), otherwise
      nothing is certified ([`Lower_bound false]; a sentence with
      negation true on one completion says nothing about the rest);
    - otherwise [on_unsupported] decides, as in {!certain_b}.

    Never returns an [`Unknown]. *)
val certain_resilient :
  ?policy:Certdb_csp.Resilient.Policy.t ->
  ?limits:Certdb_csp.Engine.Limits.t ->
  ?on_unsupported:(Gdb.t -> Logic.t -> bool) ->
  Gdb.t ->
  Logic.t ->
  [ `Exact of bool | `Lower_bound of bool ]

(** [certain_existential db f] — enumerate the complete homomorphic images
    of [db]: groundings of nulls into [adom ∪ fresh] composed with node
    merges among nodes made equal (same label, same grounded data); [f] is
    certainly true iff no image satisfies [¬f]. *)
val certain_existential : Gdb.t -> Logic.t -> bool

(** [complete_images db] — the finite sample of complete homomorphic images
    used by [certain_existential]. *)
val complete_images : Gdb.t -> Gdb.t list

(** [certain_by_enumeration db f] — [f] holds in every sampled image; for
    non-existential [f] this is only an approximation of certainty (OWA
    supersets are not sampled). *)
val certain_by_enumeration : Gdb.t -> Logic.t -> bool

(** [certain_data_answers ~out db f] — certain {e data} answers of an
    existential positive formula with free node variables: the output
    tuples are the designated attributes [out = [(x, i); ...]] (variable,
    1-based attribute index) of satisfying assignments, kept when they
    contain only constants.  The Theorem 7(a) argument lifts to this
    non-Boolean case: naïve evaluation then dropping null tuples is exact.
    @raise Invalid_argument if [f] is not existential positive. *)
val certain_data_answers :
  out:(string * int) list ->
  Gdb.t ->
  Logic.t ->
  Certdb_values.Value.t list list
