(** Request-scoped tracing on top of {!Obs}: trace/span identifiers with a
    domain-local context, a bounded lock-free ring buffer of completed
    events, and exporters (Chrome trace-event JSON for
    [about:tracing]/Perfetto, per-trace summaries for [explain:true]
    responses).

    {1 Model}

    A {e trace} is a tree of spans sharing one [trace_id]; the root span's
    id {e is} the trace id.  [with_span] opens a child of the innermost
    open span on the current domain; with no open span it consults the
    ambient context installed by [with_context] (how [Engine.Batch] worker
    domains inherit the coordinator's trace), and failing that it starts a
    fresh trace.  Every completed span {e also} feeds the plain {!Obs}
    timer of the same name, so aggregate timer statistics are identical
    whether tracing is enabled or not — per-request labels (worker index,
    ladder rung, plan route, ...) live only on the ring-buffer events, not
    in timer names.

    {1 Ring buffer}

    Completed spans land in a fixed-capacity ring: writers claim slots
    with one atomic fetch-and-add and never block, so a hot path never
    waits on a reader; once the ring wraps, the oldest events are
    overwritten ([dropped] counts them).  [events] is a snapshot, not a
    linearizable read — an event completing concurrently with the read
    may or may not appear, which is fine for a diagnostic stream.

    [set_enabled false] stops context bookkeeping and ring writes;
    [with_span] degrades to [Obs.time] on the same timer, so the
    aggregate metrics keep flowing. *)

module Json = Obs.Json

(** {1 Switch and capacity} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** [set_capacity n] resizes the ring to [max 1 n] slots and clears it. *)
val set_capacity : int -> unit

val capacity : unit -> int

(** {1 Spans} *)

(** [with_span ?labels name f]: run [f] in a span.  Duration is recorded
    in the {!Obs} timer named [name] (labels are {e not} appended to the
    timer name) and, when enabled, as a ring event carrying [labels]. *)
val with_span : ?labels:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [with_trace ?labels name f]: like [with_span] but always roots a new
    trace, even under an open span; [f] receives the fresh trace id. *)
val with_trace : ?labels:(string * string) list -> string -> (int -> 'a) -> 'a

(** [annotate k v] sets label [k] on the innermost open span of this
    domain (replacing any previous value); no-op outside a span or when
    disabled. *)
val annotate : string -> string -> unit

(** [label k] reads label [k] back from the innermost open span. *)
val label : string -> string option

(** [instant ?labels name] records a zero-duration event (e.g. a fault
    injection) under the current context. *)
val instant : ?labels:(string * string) list -> string -> unit

val current_trace : unit -> int option
val current_span : unit -> int option

(** {1 Cross-domain inheritance} *)

type context

(** [capture ()] is the current trace context, to be shipped to another
    domain; [None] when no span is open (and no ambient context is
    installed) or tracing is disabled. *)
val capture : unit -> context option

(** [with_context ctx f] installs [ctx] as the ambient parent for root
    spans opened by [f] on this domain.  [with_context None f] is [f ()]. *)
val with_context : context option -> (unit -> 'a) -> 'a

(** {1 The event log} *)

type kind = Span | Instant

type event = {
  trace_id : int;
  span_id : int;
  parent : int option;  (** [None] for a trace's root span *)
  name : string;
  labels : (string * string) list;
  start_ms : float;
  dur_ms : float;
  domain : int;  (** {!Domain.self} of the recording domain *)
  kind : kind;
}

(** Buffered events, oldest first. *)
val events : unit -> event list

(** Events of one trace, oldest first. *)
val events_of : int -> event list

(** Events overwritten since the last [clear]/[set_capacity]. *)
val dropped : unit -> int

val clear : unit -> unit

(** {1 Exporters} *)

(** Chrome trace-event JSON (["traceEvents"] with complete ["X"] events,
    microsecond timestamps rebased to the earliest event) — loads in
    Perfetto and [about:tracing].  Span labels and ids ride in [args]. *)
val chrome : event list -> Json.t

(** [summary ?root tid] is the [explain:true] object for trace [tid]:
    trace id, root span name, wall-clock, hoisted headline labels (route,
    rung, attempts, cache, nodes, backtracks, sat_decisions,
    sat_conflicts — taken from the first span carrying each), and the
    span tree as a flat list with [parent] links and start offsets
    relative to the root.  [root] restricts to the
    subtree under that span id.  Call it {e after} the root span closed:
    only completed spans are in the ring. *)
val summary : ?root:int -> int -> Json.t
