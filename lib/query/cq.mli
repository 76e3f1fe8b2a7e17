(** Conjunctive queries and their tableaux.  A naïve database is a Boolean
    CQ and vice versa (Section 2.1): [D ↦ Q_D] replaces nulls by
    existential variables, [Q ↦ D_Q] freezes variables into nulls.  CQ
    containment is tableau homomorphism, which together with the
    information ordering yields Prop. 2. *)

open Certdb_values
open Certdb_relational

type atom = { rel : string; args : Fo.term list }

type t = {
  head : string list; (* empty: Boolean CQ *)
  atoms : atom list;
}

val make : ?head:string list -> (string * Fo.term list) list -> t
val boolean : (string * Fo.term list) list -> t
val vars : t -> string list
val to_fo : t -> Fo.t

(** [freeze q] — the tableau [D_Q]: each variable becomes a fresh null.
    Returns the instance and the variable-to-null assignment (whose
    restriction to [head] identifies the distinguished nulls). *)
val freeze : t -> Instance.t * Value.t Stdlib.Map.Make(String).t

(** [tableau_columnar q] — the tableau [D_Q] as the columnar view of one
    structure ({!Certdb_csp.Structure.columnar_of}), for its
    endomorphism problem [D_Q → D_Q], built straight from the atoms.
    Node [i] stands for [terms.(i)], the [i]-th distinct term in order
    of first occurrence, so the nodes are [0..n-1]; they are unlabeled.
    Which terms stay fixed (constants, head variables) is the caller's
    choice. *)
val tableau_columnar : t -> Certdb_csp.Structure.columnar * Fo.term array

(** [of_instance d] — the canonical Boolean CQ [Q_D] of a naïve database:
    nulls become variables named after their ids. *)
val of_instance : Instance.t -> t

(** [answers q d] evaluates [q] over [d] {e as if complete} (nulls are
    values), via homomorphism search on the tableau — result is a relation
    ["ans"]; for a Boolean query the 0-ary fact [ans()] encodes [true].
    The search runs onto [target] when given ([d] prepared by
    {!Hom.target}), onto a target built for this call otherwise.
    @raise Invalid_argument when [target] was built from another
    instance. *)
val answers : ?target:Hom.target -> t -> Instance.t -> Instance.t

(** [holds q d] — Boolean CQ satisfaction [d |= q]. *)
val holds : t -> Instance.t -> bool

(** [contained q1 q2] — [Q1 ⊆ Q2] via a homomorphism from the tableau of
    [q2] into the tableau of [q1] preserving distinguished nulls. *)
val contained : t -> t -> bool

(** [equivalent q1 q2] — mutual containment. *)
val equivalent : t -> t -> bool

(** [minimize q] — the classical CQ minimization: the core of the tableau
    (with the head variables' nulls pinned to themselves so they cannot
    fold), read back as a query.  The result is equivalent to [q] and
    has a minimal number of atoms. *)
val minimize : t -> t

(** [minimize_b ?limits q] — {!minimize} with the whole core
    computation under the one budget [limits]: every retraction round's
    search draws from it ({!Core_instance.core_b}). *)
val minimize_b :
  ?limits:Certdb_csp.Engine.Limits.t -> t -> t Certdb_csp.Engine.outcome

val pp : Format.formatter -> t -> unit
