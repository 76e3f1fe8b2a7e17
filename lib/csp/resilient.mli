(** Policy-driven resilience around budgeted search: retry and
    escalation for [Unknown] outcomes.

    A budgeted search that trips a limit returns [Unknown r] — honest,
    but terminal.  {!run} turns it into a {e ladder}, for any budgeted
    procedure (a decider on an encoded hom instance, an ordering,
    membership, certain answers):

    + {b budgeted search} — attempt 1 runs under the caller's limits;
    + {b escalated retries} — on [Unknown], attempt [i] re-runs with
      the node and backtrack budgets multiplied by
      [escalation^(i-1)];
    + {b cross-backend fallback} — when every attempt trips and a
      [?fallback] was supplied (the CSP engine when CDCL was primary,
      see [Certain.certain_cq_resilient]), it runs once under the fully
      escalated budgets; a definitive answer gets rung
      [Fallback name], an [Unknown] keeps the primary's outcome;
    + {b exhausted} — otherwise the final [Unknown] is reported with
      rung {!Exhausted}; domain layers (certain answers) turn it into a
      graded answer with {!graded}.

    One deadline covers the whole run.  When [limits.timeout_ms] is set,
    the deadline is fixed once, when the run starts: attempt 1 gets the
    whole timeout, and every later attempt and the fallback run with
    [timeout_ms] set to the time left.  Once no time is left, nothing
    more starts, and the run ends [Unknown Deadline] on rung
    {!Exhausted}.  Without a timeout the clock is never read.

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
            under [nodes × escalation^(i-1)] (likewise backtracks).  The
            wall-clock deadline is {e not} scaled: every attempt shares
            the run's one deadline, and the cancel token is shared too. *)
  }

  (** Defaults: 3 attempts, ×4 escalation.
      @raise Invalid_argument on [max_attempts < 1] or
      [escalation < 1.0]. *)
  val make : ?max_attempts:int -> ?escalation:float -> unit -> t

  val default : t

  (** One attempt: behaves exactly like the bare call. *)
  val no_retry : t
end

(** Which rung of the ladder produced the outcome. *)
type rung =
  | Search of int  (** settled by budgeted attempt [n] (1-based) *)
  | Fallback of string
      (** every primary attempt tripped and the named fallback backend
          settled it definitively *)
  | Exhausted
      (** every attempt tripped, the cancel token fired, or the run's
          deadline passed; the outcome is the last [Unknown] *)

val rung_to_string : rung -> string

type 'a run = {
  outcome : 'a Engine.outcome;
  attempts : int;  (** budgeted attempts actually started *)
  rung : rung;
}

val decision : 'a run -> Engine.decision

(** [scale_limits policy ~attempt l] — the node and backtrack budgets
    attempt [attempt] (1-based) runs under; the identity for
    [attempt <= 1].  [timeout_ms] and [cancel] are left as they are. *)
val scale_limits : Policy.t -> attempt:int -> Engine.Limits.t -> Engine.Limits.t

(** [run ?policy ?fallback ~limits f] — the retry ladder: attempt [i]
    calls [f] on [scale_limits policy ~attempt:i limits], with
    [timeout_ms] replaced by the time left before the run's deadline
    from attempt 2 on.  [f] is responsible for honouring the limits it
    is given.

    [fallback] is [(name, call)]: when every attempt of [f] trips (and
    the cancel token did not fire), [call] runs once under the fully
    escalated budgets and the time left.  A definitive answer is
    returned with rung [Fallback name]; an [Unknown] keeps [f]'s final
    outcome.  The no-flip invariant is preserved by construction: the
    fallback only ever runs on [Unknown].  Counted under
    [csp.resilient.crossed] / [csp.resilient.crossed_recovered]. *)
val run :
  ?policy:Policy.t ->
  ?fallback:string * (Engine.Limits.t -> 'a Engine.outcome) ->
  limits:Engine.Limits.t ->
  (Engine.Limits.t -> 'a Engine.outcome) ->
  'a run

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
