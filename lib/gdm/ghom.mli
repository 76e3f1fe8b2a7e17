(** Homomorphisms between generalized databases (Section 5.1): pairs
    (h₁, h₂) of a structural homomorphism on nodes and a valuation on nulls
    such that [ρ′(h₁(ν)) = h₂(ρ(ν))] for every node.

    Searches run on {!Certdb_csp.Engine}: each gdb becomes one labeled
    structure whose data values are extra nodes under a reserved label,
    tied to their gdm node by one data tuple per node; constants are
    pinned to themselves.  The unlimited entry points let an injected
    fault escape as [Certdb_obs.Fault.Injected]. *)

open Certdb_values
open Certdb_csp

type t = {
  node_map : int Structure.Int_map.t; (* h₁ *)
  valuation : Valuation.t; (* h₂ *)
}

val is_hom : t -> Gdb.t -> Gdb.t -> bool

(** [find ?restrict d d'] — [restrict] limits candidate target nodes
    (the shared {!Certdb_csp.Domains.t} representation). *)
val find : ?restrict:Domains.t -> Gdb.t -> Gdb.t -> t option

val exists : ?restrict:Domains.t -> Gdb.t -> Gdb.t -> bool

(** Budgeted search; [Unknown r] reports the tripped limit and is never
    conflated with non-existence. *)
val find_b :
  ?restrict:Domains.t ->
  ?limits:Engine.Limits.t ->
  Gdb.t ->
  Gdb.t ->
  t Engine.outcome

val exists_b :
  ?restrict:Domains.t ->
  ?limits:Engine.Limits.t ->
  Gdb.t ->
  Gdb.t ->
  Engine.decision

val iter :
  ?restrict:Domains.t ->
  Gdb.t ->
  Gdb.t ->
  (t -> [ `Continue | `Stop ]) ->
  unit

(** [find_onto d d'] — a homomorphism covering every node and every
    σ-fact of [d'] (the gdm CWA ordering, {!Gcwa}). *)
val find_onto : Gdb.t -> Gdb.t -> t option
