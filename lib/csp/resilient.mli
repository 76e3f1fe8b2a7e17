(** Policy-driven resilience around the budgeted engine: retry and
    escalation for [Unknown] outcomes.

    A budgeted search that trips a limit returns
    [Unknown r] — honest, but terminal.  This module turns it into a
    {e ladder}:

    + {b propagation} — an unbudgeted AC-3 pass
      ({!Arc_consistency.prune}); a domain wipeout is a polynomial-time
      [Unsat] certificate, no search needed, and otherwise the pruned
      domains are fed to the search as its restriction;
    + {b budgeted search} — the caller's configuration as given;
    + {b escalated retries} — on [Unknown], re-run with the node and
      backtrack budgets multiplied by [escalation^(attempt-1)] and, when
      [restart_seed] is set, a fresh [Engine.Config.Seeded] variable
      order per attempt (a deterministic randomized restart: a different
      seed explores a different prefix of the search tree, so an attempt
      that got stuck under one ordering may finish instantly under
      another);
    + {b cross-backend fallback} — {!run} only: when every attempt
      trips and a [?fallback] was supplied (the CSP engine when CDCL was
      primary, see [Certain.certain_cq_resilient]), run it once under
      the fully escalated limits; a definitive answer gets rung
      [Fallback name], an [Unknown] keeps the primary's outcome;
    + {b degrade} — if every attempt trips, the final [Unknown] is
      reported with rung {!Exhausted}; domain layers (certain answers)
      then turn it into a graded answer with {!graded}.

    Invariant (qcheck-checked in [test_resilient.ml]): no policy ever
    converts a definitive [Sat]/[Unsat] into anything else — a
    definitive outcome stops the ladder at once, and retries can only
    turn [Unknown] into a definitive answer, never the reverse.

    Cancellation is special-cased: a tripped {!Engine.Cancel.t} stays
    tripped, so retrying after [Unknown Cancelled] would spin — the
    ladder stops immediately instead. *)

module Policy : sig
  type t = {
    max_attempts : int;  (** total budgeted attempts, [>= 1] *)
    escalation : float;
        (** per-retry budget multiplier ([>= 1.0]): attempt [i] runs
            under [nodes × escalation^(i-1)] (likewise backtracks; the
            wall-clock deadline and cancel token are {e not} scaled) *)
    restart_seed : int option;
        (** when set, attempt [i > 1] uses variable order
            [Seeded (seed + i)]; [None] keeps the caller's ordering on
            every attempt *)
    propagate_first : bool;
        (** run the AC-3 certificate rung before any search
            (only meaningful for {!solve}/{!satisfiable}) *)
  }

  (** Defaults: 3 attempts, ×4 escalation, seeded restarts,
      propagation rung on.
      @raise Invalid_argument on [max_attempts < 1] or
      [escalation < 1.0]. *)
  val make :
    ?max_attempts:int ->
    ?escalation:float ->
    ?restart_seed:int option ->
    ?propagate_first:bool ->
    unit ->
    t

  val default : t

  (** One attempt, no propagation rung: behaves exactly like the bare
      engine call. *)
  val no_retry : t
end

(** Which rung of the ladder produced the outcome. *)
type rung =
  | Propagation  (** settled by the AC-3 certificate; no search ran *)
  | Search of int  (** settled by budgeted attempt [n] (1-based) *)
  | Fallback of string
      (** every primary attempt tripped and the named fallback backend
          settled it definitively *)
  | Exhausted
      (** every attempt tripped (or the cancel token fired); the
          outcome is the last [Unknown] *)

val rung_to_string : rung -> string

type 'a run = {
  outcome : 'a Engine.outcome;
  attempts : int;  (** budgeted searches actually run (0 = propagation) *)
  rung : rung;
}

val decision : 'a run -> Engine.decision

(** [scale_limits policy ~attempt l] — the limits attempt [attempt]
    (1-based) runs under; the identity for [attempt <= 1]. *)
val scale_limits : Policy.t -> attempt:int -> Engine.Limits.t -> Engine.Limits.t

(** [run ?policy ?fallback ~limits f] — the generic retry core, for
    budgeted procedures that are not a bare engine call (orderings,
    membership, certain answers): attempt [i] calls
    [f ~attempt:i (scale_limits policy ~attempt:i limits)] and the
    ladder logic of the module applies to its outcome.  [f] is
    responsible for honoring the limits it is given.  The propagation
    rung and seeded restarts do not apply ([f] owns its own search).

    [fallback] is [(name, call)]: when every attempt of [f] trips (and
    the cancel token did not fire), [call] runs once under the fully
    escalated limits.  A definitive answer is returned with rung
    [Fallback name]; an [Unknown] keeps [f]'s final outcome.  The
    no-flip invariant is preserved by construction: the fallback only
    ever runs on [Unknown].  Counted under [csp.resilient.crossed] /
    [csp.resilient.crossed_recovered]. *)
val run :
  ?policy:Policy.t ->
  ?fallback:string * (Engine.Limits.t -> 'a Engine.outcome) ->
  limits:Engine.Limits.t ->
  (attempt:int -> Engine.Limits.t -> 'a Engine.outcome) ->
  'a run

(** [solve ?policy ?config ~source ~target ()] — the full ladder over
    {!Engine.solve}.  [config.limits] is the attempt-1 budget. *)
val solve :
  ?policy:Policy.t ->
  ?config:Engine.Config.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  Engine.hom run

(** Ladder over {!Engine.satisfiable}. *)
val satisfiable :
  ?policy:Policy.t ->
  ?config:Engine.Config.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  unit run

(** A graded certain answer: [`Exact b] settles the question,
    [`Lower_bound b] is what a layer can still certify once every
    attempt tripped. *)
type graded = [ `Exact of bool | `Lower_bound of bool ]

(** [graded ~exact ~degraded ~exhausted r] — the ladder run of a
    certainty layer as a graded answer: [Sat] is [`Exact true] and
    [Unsat] is [`Exact false], both counted on [exact]; an [Unknown]
    counts on [degraded] and answers [exhausted ()], the layer's own
    sound reading of "no verdict within budget". *)
val graded :
  exact:Certdb_obs.Obs.counter ->
  degraded:Certdb_obs.Obs.counter ->
  exhausted:(unit -> graded) ->
  'a run ->
  graded
