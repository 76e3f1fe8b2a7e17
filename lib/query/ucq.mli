open Certdb_relational
(** Unions of conjunctive queries — the exact class for which naïve
    evaluation computes certain answers (Imieliński–Lipski; optimal by
    Prop. 1). *)

type t = Cq.t list

(** @raise Invalid_argument unless all disjuncts share the head arity. *)
val make : Cq.t list -> t

val to_fo : t -> Fo.t

(** [answers ?target u d] — the union of {!Cq.answers} over the
    disjuncts, every one searching onto the same target: [target] when
    given, one built for this call otherwise.
    @raise Invalid_argument when [target] was built from another
    instance. *)
val answers : ?target:Hom.target -> t -> Instance.t -> Instance.t

val holds : t -> Instance.t -> bool

(** [contained u1 u2] — each disjunct of [u1] contained in some disjunct of
    [u2] (sound and complete for UCQ containment). *)
val contained : t -> t -> bool
