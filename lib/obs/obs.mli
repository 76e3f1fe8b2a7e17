(** Zero-dependency observability: a process-wide registry of named
    counters, gauges and histogram timers, plus lightweight nested spans
    (clock start/stop with labels).  Everything the solver, hom-search,
    chase and query-evaluation hot paths want to count lives here, and
    [snapshot] turns the registry into an immutable value with
    pretty-printing and hand-rolled JSON rendering (no opam deps beyond
    the [unix] library shipped with the compiler, used for the clock).

    Conventions: metric names are dot-separated lowercase paths grouped
    by subsystem ([csp.solver.decisions], [rel.glb.pairs],
    [exchange.chase.steps], ...).  Counters count discrete events, gauges
    record the last observed size, timers aggregate span durations in
    milliseconds.  Instrumentation is on by default and costs one
    hashtable-free atomic increment per event; [set_enabled false] turns
    every recording operation into a no-op.

    The registry is domain-safe: counters are atomic (increments from the
    [Csp.Engine.Batch] worker domains never lose events, so per-domain
    counters add up in the final snapshot), registry creation and timer
    samples are mutex-guarded, and the span stack is domain-local. *)

(** Minimal JSON document model with rendering and parsing — enough for
    the metrics snapshot, the bench trajectory files and the [certdb
    batch] JSONL task format. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite floats render as [null] *)
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  exception Parse_error of string

  (** [of_string s] parses one JSON document.  Numbers without a fraction
      or exponent become [Int], all others [Float].
      @raise Parse_error on malformed input. *)
  val of_string : string -> t

  (** [member key j] is the value of field [key] when [j] is an [Obj]
      containing it. *)
  val member : string -> t -> t option
end

(** {1 Global switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters} *)

type counter

(** [counter name] returns the registered counter for [name], creating it
    at zero on first use.  The registry is memoized: the same name always
    yields the same counter. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit

(** [set_int g n] is [set g (float_of_int n)]. *)
val set_int : gauge -> int -> unit

val gauge_value : gauge -> float

(** {1 Timers} *)

type timer

val timer : string -> timer

(** [record_ms t ms] adds one sample of [ms] milliseconds to [t]. *)
val record_ms : timer -> float -> unit

(** [time t f] runs [f ()] and records its wall-clock duration in [t].
    The sample is recorded even when [f] raises. *)
val time : timer -> (unit -> 'a) -> 'a

type timer_stats = {
  count : int;
  total_ms : float;
  min_ms : float;
  max_ms : float;
  mean_ms : float;
  p50_ms : float;
      (** median estimate from fixed log-scale buckets (64 buckets, ratio
          [sqrt 2] from 1 µs): bounded memory, worst-case relative error
          [sqrt 2], clamped into the exact observed [min, max] *)
  p95_ms : float;  (** 95th-percentile estimate, same construction *)
  p99_ms : float;  (** 99th-percentile estimate, same construction *)
}

(** {1 Spans}

    A span is a named clock interval; spans nest, and each completed span
    records its duration into the timer registered under the span's name
    (with rendered [labels] appended as [name{k=v,...}]). *)

type span

val enter_span : ?labels:(string * string) list -> string -> span
val exit_span : span -> unit

(** [with_span name f] wraps [f] in a span; the duration is recorded even
    when [f] raises. *)
val with_span : ?labels:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Current nesting depth of open spans (0 outside any span). *)
val span_depth : unit -> int

(** {1 Snapshots} *)

type metrics = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  timers : (string * timer_stats) list;  (** sorted by name *)
}

(** Immutable copy of the whole registry. *)
val snapshot : unit -> metrics

(** Zero every counter and gauge and clear every timer (registered names
    survive, so a later [snapshot] reports them at zero). *)
val reset : unit -> unit

val find_counter : metrics -> string -> int option
val find_gauge : metrics -> string -> float option
val find_timer : metrics -> string -> timer_stats option

(** Human-readable snapshot (one metric per line, aligned). *)
val pp_metrics : Format.formatter -> metrics -> unit

val to_json : metrics -> Json.t
val json_string : metrics -> string

(** The clock used by timers and spans, as milliseconds since some epoch.
    Defaults to [Unix.gettimeofday]-based wall clock; tests may install a
    deterministic one. *)
val set_clock_ms : (unit -> float) -> unit

val now_ms : unit -> float
