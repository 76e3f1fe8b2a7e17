(** Homomorphisms between XML trees (Section 2.2): pairs (h₁, h₂) mapping
    nodes to nodes (preserving the child relation and labels) and nulls to
    values, with [ρ′(h₁ x) = h₂(ρ x)].

    The definition does not force the root to map to the root; complete
    documents have a designated root label, which pins it in practice.
    [leq] is the information ordering [T ⊑ T′] (Prop. 3 for trees). *)

open Certdb_csp
open Certdb_gdm

(** [find ?require_root ?restrict t t'] — [require_root] (default [false])
    restricts h₁ to send root to root; [restrict] further constrains
    candidate target nodes as a {!Domains.t} restriction (intersected
    with the root pin when both are given). *)
val find :
  ?require_root:bool ->
  ?restrict:Domains.t ->
  Tree.t ->
  Tree.t ->
  Ghom.t option

val exists :
  ?require_root:bool ->
  ?restrict:Domains.t ->
  Tree.t ->
  Tree.t ->
  bool

(** Budgeted search; [Unknown r] reports the tripped limit of [limits]. *)
val find_b :
  ?require_root:bool ->
  ?restrict:Domains.t ->
  ?limits:Engine.Limits.t ->
  Tree.t ->
  Tree.t ->
  Ghom.t Engine.outcome

val exists_b :
  ?require_root:bool ->
  ?restrict:Domains.t ->
  ?limits:Engine.Limits.t ->
  Tree.t ->
  Tree.t ->
  Engine.decision

val leq : Tree.t -> Tree.t -> bool

(** Budgeted [⊑] on trees. *)
val leq_b : ?limits:Engine.Limits.t -> Tree.t -> Tree.t -> Engine.decision

val equiv : Tree.t -> Tree.t -> bool
val strictly_less : Tree.t -> Tree.t -> bool
val incomparable : Tree.t -> Tree.t -> bool

(** [models t t'] — [T |= T′] in the notation of [16]: [t] satisfies the
    description [t'], i.e. there is a homomorphism [t' → t]. *)
val models : Tree.t -> Tree.t -> bool

(** [mem t' t] — the membership problem: complete [t'] ∈ [[t]]. *)
val mem : Tree.t -> Tree.t -> bool

(** Budgeted membership. *)
val mem_b : ?limits:Engine.Limits.t -> Tree.t -> Tree.t -> Engine.decision

(** [leq_resilient ?policy ?limits t t'] — [⊑] as one budgeted
    {!Resilient.run}, never [`Unknown]: [`Exact b] when the search
    settled; [`Lower_bound false] when it tripped — for hom existence
    the only positive certificate is a witness and the only negative
    one is exhaustion, so an exhausted search certifies nothing (unlike the
    relational certain-answer case, where naïve evaluation supplies a
    sound [`Lower_bound true]). *)
val leq_resilient :
  ?policy:Resilient.Policy.t ->
  ?limits:Engine.Limits.t ->
  Tree.t ->
  Tree.t ->
  [ `Exact of bool | `Lower_bound of bool ]

(** Resilient membership: [`Exact false] outright on incomplete [t']. *)
val mem_resilient :
  ?policy:Resilient.Policy.t ->
  ?limits:Engine.Limits.t ->
  Tree.t ->
  Tree.t ->
  [ `Exact of bool | `Lower_bound of bool ]
