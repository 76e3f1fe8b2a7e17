(** The long-running certain-answer server: a named database registry, a
    core-canonical semantic cache, and a JSONL request loop served over
    stdio or a Unix socket.

    {1 Protocol}

    One JSON object per line in both directions.  Verbs:

    {v
    {"op":"load","name":"d","source":"R(1,2); R(2,_x)"}
    {"op":"unload","name":"d"}
    {"op":"query","db":"d","query":"ans() :- R(_x,_y), R(_y,_x)",
     "node_budget":N?,"backtrack_budget":N?,"timeout_ms":F?,
     "max_attempts":N?,"no_cache":true?,"explain":true?}
    {"op":"batch","requests":[ <query objects> ],"explain":true?}
    {"op":"invalidate","rel":"R","cols":[1,3]?,"db":"d"?}
    {"op":"stats","full":true?}
    {"op":"trace","clear":true?}
    {"op":"metrics"}
    {"op":"ping"}
    {"op":"shutdown"}
    v}

    Responses echo [id] (default: the request's line index), [index]
    and [op].  A Boolean query answers
    [{"status":"ok","grade":"exact"|"lower-bound","certain":b,
    "cached":b,"latency_ms":f}]; a non-Boolean query answers
    [{"status":"ok","answers":"ans(1); ans(2)",...}] (naïve evaluation,
    always exact by Theorem 4).  [ping] answers
    [{"status":"ok","pong":true}] — a constant-work liveness probe.
    Malformed or failing requests produce [{"status":"error","error":msg}]
    rows and the loop keeps serving; only [shutdown] (or EOF) ends it.
    A request line longer than the serve loop's cap is drained and
    answered with an [error] row ("request line exceeds N bytes")
    without ever being buffered whole.

    A [query] is evaluated on one domain under its one deadline, a
    cartesian-product query included: the engine solves its connected
    components one at a time.  [jobs] widens only the [batch] verb's
    pool.

    Under the concurrent socket front end ({!Supervisor}), an
    overloaded server sheds new connections with one
    [{"status":"overloaded","retry_after_ms":F}] row instead of
    queueing unboundedly; {!Client} honors the hint.

    {1 Explainability}

    Every [query] runs under a request-rooted {!Certdb_obs.Trace} trace;
    a [batch] shares one trace across its worker-domain tasks.  With
    [explain:true] the response row gains a ["trace"] object — the
    per-request span tree with the plan route, resilient rung
    ([search]/[fallback[<name>]]/[exhausted]), cache disposition ([hit]/[miss]/[bypass]/[off]) and
    search effort (node/backtrack counter deltas, approximate when other
    requests compute concurrently).  Responses without [explain] are
    byte-identical to the pre-trace protocol.  The [trace] verb dumps
    the ring buffer as Chrome trace-event JSON; the [metrics] verb
    returns an OpenMetrics text exposition of the Obs registry.  When
    {!Config.t.slow_ms} is set, any request at least that slow emits a
    slow-query row (with its full span tree) to the [slow_sink] passed
    to {!create} (default: stderr).

    {1 Caching}

    Queries are cached by {!Canon.cq_key} of the query joined with
    {!Canon.db_fingerprint} of the target database, so hom-equivalent
    queries against the same instance share one entry — sound because
    certain answers are invariant under hom-equivalence.  [`Exact]
    answers (and non-Boolean answer sets) live under the plain key and
    are served to any request; a [`Lower_bound] produced under an
    exhausted budget is cached under a budget-scoped key and reused
    only by requests whose search runs under the same budget (node and
    backtrack budgets after {!Resilient.Policy.scale_limits}, and the
    timeout), so a degraded answer is never served where a better one
    could be computed.  Engine [Unknown] outcomes never reach this
    layer (the resilient run grades them away) and are never cached.  Requests whose
    canonicalisation exceeds its node budget, or that set
    [no_cache:true], bypass the cache (counted).

    Every stored entry carries its query's
    {!Certdb_analysis.Footprint.t}.  The [invalidate] verb announces an
    update touching relation [rel] — whole tuples when [cols] is
    absent, only those 1-based columns when present — and drops exactly
    the entries whose footprint overlaps the touch, scoped to one
    database's fingerprint when [db] is given (counters
    [service.cache.footprint_hit] / [service.cache.footprint_skip]).
    It answers [{"status":"ok","rel":r,"invalidated":n,"remaining":n}].
    The insert/delete verbs that will call this implicitly land later;
    the invalidation path is live now. *)

open Certdb_relational
module Json = Certdb_obs.Obs.Json
module Engine = Certdb_csp.Engine
module Resilient = Certdb_csp.Resilient

module Config : sig
  type t = {
    cache_capacity : int;  (** [<= 0] disables the cache *)
    canon_budget : int;  (** {!Canon.cq_key} search budget *)
    policy : Resilient.Policy.t;
        (** default budget policy; a request's [max_attempts] overrides
            its [max_attempts] *)
    default_limits : Engine.Limits.t;
        (** per-request admission default; request fields override *)
    jobs : int;
        (** domain-pool width for the [batch] verb; a single [query] runs
            on one domain *)
    slow_ms : float option;
        (** slow-query threshold; [None] disables the slow log *)
    backend : Certdb_sat.Backend.choice;
        (** default solver backend for [certain] evaluations; a
            per-request ["backend"] field overrides it *)
  }

  (** 1024 entries, default policy, unlimited limits,
      [Engine.Batch.default_jobs] workers, no slow log, CSP backend. *)
  val default : t

  val make :
    ?cache_capacity:int ->
    ?canon_budget:int ->
    ?policy:Resilient.Policy.t ->
    ?default_limits:Engine.Limits.t ->
    ?jobs:int ->
    ?slow_ms:float ->
    ?backend:Certdb_sat.Backend.choice ->
    unit ->
    t
end

type t

(** [slow_sink] receives one JSON row per slow request (see
    {!Config.t.slow_ms}); defaults to a line on stderr. *)
val create : ?config:Config.t -> ?slow_sink:(Json.t -> unit) -> unit -> t

(** {1 Typed entry points (tests, benches)} *)

val load : t -> name:string -> source:string -> (Instance.t, string) result

(** A query answer: graded Boolean certainty, or the certain answer set
    of a non-Boolean query. *)
type answer =
  | Graded of [ `Exact of bool | `Lower_bound of bool ]
  | Tuples of Instance.t

(** [eval_query t ~db q] — the served evaluation: planner-routed,
    resilient, cache-checked.  The [bool] is [true] on a cache hit. *)
val eval_query :
  t ->
  db:string ->
  ?limits:Engine.Limits.t ->
  ?max_attempts:int ->
  ?backend:Certdb_sat.Backend.choice ->
  ?no_cache:bool ->
  Certdb_query.Cq.t ->
  (answer * bool, string) result

val cache_totals : t -> Cache.totals option

(** {1 The request loop} *)

(** [handle_line t ~idx line] — one request through the full wire path;
    returns the response row and whether the loop should continue. *)
val handle_line : t -> idx:int -> string -> Json.t * [ `Continue | `Shutdown ]

(** [oversized_row ~idx ~max] — the structured answer to a request line
    longer than [max] bytes (shared by {!serve} and the socket
    supervisor). *)
val oversized_row : idx:int -> max:int -> Json.t

(** [serve t ic oc] reads JSONL requests from [ic] and writes one
    response line per request to [oc] (flushed per line).  Lines longer
    than [max_line_bytes] (default {!Wire.default_max_line_bytes}) are
    drained — never buffered whole — and answered with an [error] row.

    Socket serving lives in {!Supervisor.run}: concurrent connections
    on a bounded domain pool with admission control, crash isolation
    and graceful drain. *)
val serve :
  ?max_line_bytes:int -> t -> in_channel -> out_channel -> [ `Shutdown | `Eof ]
