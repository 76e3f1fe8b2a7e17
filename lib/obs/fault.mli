(** Deterministic fault injection for resilience testing.

    A {e fault point} is a named site in a hot path ([Fault.hit "point"])
    that normally does nothing.  When a schedule is {e armed} — either
    programmatically with {!arm} or through the [CERTDB_FAULT] environment
    variable read at program start — the point raises {!Injected} on the
    hits selected by its trigger, simulating a crash exactly where the
    schedule says.  Everything is deterministic: triggers fire on hit
    indices (per-point counters), and the randomized trigger is a pure
    hash of [(seed, point, hit index)], so the same schedule always
    poisons the same operations.

    Points currently wired in:
    - ["csp.search.node"] — every {!Engine.Budget.tick_node}, i.e. each
      node of every hom search (the CSP engine, which the relational and
      gdm hom encoders run on, and the enumeration loops of query
      answering).
      Budgeted searches convert the injected crash into
      [Unknown (Crashed _)]; the unlimited shims re-raise it as
      {!Injected}.
    - ["csp.sat.conflict"] — every conflict of the CDCL SAT backend
      ([Certdb_sat.Solver.Cdcl]); the solver's budget wrapper converts
      the crash into [Unknown (Crashed "csp.sat.conflict")], which is
      what lets the resilient ladder cross to the CSP backend.
    - ["exchange.chase.step"] — each chase round of
      [Constraints.chase_budgeted].
    - ["csp.batch.task"] — before each task of an [Engine.Batch] worker;
      surfaces as a per-task [Error] through [Batch.map_result].
    - ["service.handler"] — before each request handled by a
      [Service.Supervisor] connection worker; the supervisor converts
      the crash into a structured [error] row
      ([service.server.crashed]), never a dead worker.
    - ["service.read"] / ["service.write"] — {e non-raising} wire
      points consulted through {!check} by the supervisor around each
      request read / response write; a selected hit perturbs the wire
      (drop / delay / truncate, cycling with the hit index) instead of
      crashing.

    [CERTDB_FAULT] grammar: comma-separated entries, each one of
    - [point@N] — fire on exactly the N-th hit of [point] (1-based, once);
    - [point%N] — fire on every N-th hit;
    - [point~SEED:PM] — seeded Bernoulli: fire a hit with probability
      PM/1000, decided by a hash of [(SEED, point, hit index)].

    Example: [CERTDB_FAULT="csp.batch.task@2,csp.search.node~7:25"]. *)

(** Raised by {!hit} when the armed schedule selects the current hit.
    The payload is the point name. *)
exception Injected of string

type trigger =
  | Nth of int  (** fire on exactly the n-th hit (1-based), once *)
  | Every of int  (** fire on every n-th hit *)
  | Seeded of { seed : int; per_mille : int }
      (** fire a given hit with probability [per_mille/1000], decided
          deterministically by hashing [(seed, point, hit index)] *)

(** [arm schedule] replaces the active schedule and zeroes every per-point
    hit count.  Arming with [[]] is {!disarm}. *)
val arm : (string * trigger) list -> unit

(** Parse the [CERTDB_FAULT] grammar and {!arm} the result. *)
val arm_from_string : string -> (unit, string) result

val disarm : unit -> unit
val armed : unit -> bool

(** [hit point] accounts one hit of [point].
    @raise Injected when the armed schedule selects this hit.  A no-op
    (one branch) when nothing is armed. *)
val hit : string -> unit

(** [check point] accounts one hit of [point] like {!hit} but never
    raises: it returns the 1-based hit index when the armed schedule
    selects this hit (accounted as an injection), [None] otherwise.
    For sites where the reaction to a fault is something other than a
    crash — the service wire layer drops, delays or truncates instead
    of raising. *)
val check : string -> int option

(** [hit_k point k] evaluates the schedule against the explicit hit
    index [k] (1-based) instead of the per-point counter.  Use at points
    where work is distributed across domains — keyed to the work item,
    the schedule poisons the same items under any parallelism, where the
    shared counter of {!hit} would depend on scheduling order.
    @raise Injected when the schedule selects index [k]. *)
val hit_k : string -> int -> unit

(** [with_armed schedule f] runs [f] under [schedule] and restores the
    previously armed schedule afterwards, even if [f] raises. *)
val with_armed : (string * trigger) list -> (unit -> 'a) -> 'a
