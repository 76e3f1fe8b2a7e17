(** One budgeted attempt around a search, with an optional fallback
    decider.

    A budgeted search that trips a limit returns [Unknown r]: honest,
    but terminal.  {!run} runs a budgeted procedure (a decider on an
    encoded hom instance, an ordering, membership, certain answers)
    once, under the caller's limits scaled by the policy
    ({!Policy.scale_limits}):

    + {b search} — the one attempt; a definitive answer gets rung
      {!Search};
    + {b cross-backend fallback} — when the attempt trips (and the
      cancel token did not fire) and a [?fallback] was supplied (the
      CSP engine when CDCL was primary, see
      [Certain.certain_cq_resilient]), it runs once under the same
      budgets; a definitive answer gets rung [Fallback name], an
      [Unknown] keeps the primary's outcome;
    + {b exhausted} — otherwise the [Unknown] is reported with rung
      {!Exhausted}; domain layers (certain answers) turn it into a
      graded answer with {!graded}.

    There is no retry.  Neither the engine nor CDCL is randomized, and a
    search's path never reads its budget (budgets are only ticked), so a
    definitive answer at budget [B] is the same answer at any [B' >= B]:
    a second attempt under a larger budget would first replay the whole
    first one.  One attempt at the larger budget settles the same cases
    for less work.

    One deadline covers the whole run.  When [limits.timeout_ms] is set,
    the deadline is fixed once, when the run starts: the attempt gets
    the whole timeout, and the fallback runs with [timeout_ms] set to
    the time left.  Once no time is left the fallback does not start,
    and the run ends [Unknown Deadline] on rung {!Exhausted}.  Without a
    timeout the clock is never read.

    Invariant (qcheck-checked in [test_resilient.ml]): a definitive
    [Sat]/[Unsat] is never converted into anything else — the fallback
    only runs on [Unknown]. *)

module Policy : sig
  type t = {
    max_attempts : int;
        (** the budget multiplier's exponent, [>= 1]: the one attempt
            runs under [nodes × escalation^(max_attempts-1)] (likewise
            backtracks), the budget the last attempt of a retry ladder
            of [max_attempts] attempts would get.  The wall-clock
            deadline is {e not} scaled. *)
    escalation : float;  (** budget multiplier base, finite and [>= 1.0] *)
  }

  (** Defaults: [max_attempts] 3, [escalation] 4.0 (budgets ×16).
      @raise Invalid_argument on [max_attempts < 1], or on an
      [escalation] below [1.0] or not finite. *)
  val make : ?max_attempts:int -> ?escalation:float -> unit -> t

  val default : t

  (** [max_attempts] 1: behaves exactly like the bare call. *)
  val no_retry : t

  (** [scale_limits p l] — the node and backtrack budgets {!run} gives
      its attempt: each multiplied by [escalation^(max_attempts-1)],
      rounded up, at least 1 and saturating at [max_int]; the identity
      for [max_attempts = 1].  [timeout_ms] and [cancel] are left as
      they are. *)
  val scale_limits : t -> Engine.Limits.t -> Engine.Limits.t
end

(** Which rung produced the outcome. *)
type rung =
  | Search  (** settled by the budgeted attempt *)
  | Fallback of string
      (** the attempt tripped and the named fallback backend settled it
          definitively *)
  | Exhausted
      (** the attempt tripped and no fallback settled it, the cancel
          token fired, or the run's deadline passed; the outcome is the
          attempt's [Unknown] *)

val rung_to_string : rung -> string

type 'a run = { outcome : 'a Engine.outcome; rung : rung }

(** [run ?policy ?fallback ~limits f] calls [f] once on
    [Policy.scale_limits policy limits].  [f] is responsible for
    honouring the limits it is given.  Counted under
    [csp.resilient.runs] and [csp.resilient.attempts] (one each per
    run); an [Exhausted] run under [csp.resilient.exhausted].

    [fallback] is [(name, call)]: when [f] returns an [Unknown] other
    than [Cancelled] and time is left, [call] runs once under the same
    budgets and the time left.  A definitive answer is returned with
    rung [Fallback name]; an [Unknown] keeps [f]'s outcome.  Counted
    under [csp.resilient.crossed] / [csp.resilient.crossed_recovered].
    The rung is annotated on the enclosing trace span. *)
val run :
  ?policy:Policy.t ->
  ?fallback:string * (Engine.Limits.t -> 'a Engine.outcome) ->
  limits:Engine.Limits.t ->
  (Engine.Limits.t -> 'a Engine.outcome) ->
  'a run

(** A graded certain answer: [`Exact b] settles the question,
    [`Lower_bound b] is what a layer can still certify once the run
    was exhausted. *)
type graded = [ `Exact of bool | `Lower_bound of bool ]

(** [graded ~exact ~degraded ~exhausted r] — the run of a certainty
    layer as a graded answer: [Sat] is [`Exact true] and [Unsat] is
    [`Exact false], both counted on [exact]; an [Unknown] counts on
    [degraded] and answers [exhausted ()], the layer's own sound reading
    of "no verdict within budget". *)
val graded :
  exact:Certdb_obs.Obs.counter ->
  degraded:Certdb_obs.Obs.counter ->
  exhausted:(unit -> graded) ->
  'a run ->
  graded
