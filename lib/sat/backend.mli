(** The CDCL-instantiated SAT backend, shaped like {!Certdb_csp.Engine}'s
    entry points so callers can swap solvers per instance, plus the
    backend-choice vocabulary shared by the CLI, the planner, and the
    server ([--backend csp|sat|auto]). *)

module Engine = Certdb_csp.Engine

(** Which solver family answers a hom / certainty instance.  [Auto]
    defers the pick to {!Certdb_analysis}'s certificates. *)
type choice = Csp | Sat | Auto

val choice_to_string : choice -> string
val choice_of_string : string -> choice option

(** ["csp"; "sat"; "auto"] — for CLI enums and error messages. *)
val choice_names : string list

(** {!Encode.Make} over the {!Solver.Cdcl} core. *)
module Cnf : sig
  type t

  val make :
    ?restrict:Certdb_csp.Domains.t ->
    ?symmetry:bool ->
    source:Certdb_csp.Structure.t ->
    target:Certdb_csp.Structure.t ->
    unit ->
    t

  val solve : ?limits:Engine.Limits.t -> t -> Engine.hom Engine.outcome
  val satisfiable : ?limits:Engine.Limits.t -> t -> unit Engine.outcome
  val stats : t -> Encode.stats
  val solver : t -> Solver.Cdcl.t
end

(** [solve ?config ~source ~target ()] — one-shot encode + CDCL solve
    under [config.limits] and [config.restrict]; outcomes use the same
    three-valued contract, with [Sat h] a verified witness. *)
val solve :
  ?config:Engine.Config.t ->
  ?symmetry:bool ->
  source:Certdb_csp.Structure.t ->
  target:Certdb_csp.Structure.t ->
  unit ->
  Engine.hom Engine.outcome

val satisfiable :
  ?config:Engine.Config.t ->
  ?symmetry:bool ->
  source:Certdb_csp.Structure.t ->
  target:Certdb_csp.Structure.t ->
  unit ->
  unit Engine.outcome

(** {!satisfiable} as a {!Certdb_csp.Decider.t} named ["sat"]. *)
val decider : ?symmetry:bool -> unit -> Certdb_csp.Decider.t

(** [dimacs ?restrict ?symmetry ?comments ~source ~target ()] — the
    instance's CNF in DIMACS format, with an encoding-stats comment
    line appended. *)
val dimacs :
  ?restrict:Certdb_csp.Domains.t ->
  ?symmetry:bool ->
  ?comments:string list ->
  source:Certdb_csp.Structure.t ->
  target:Certdb_csp.Structure.t ->
  unit ->
  string
