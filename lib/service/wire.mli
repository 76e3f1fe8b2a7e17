(** The JSONL wire format shared by [certdb batch] and [certdb serve]:
    request parsing (field accessors, per-request {!Engine.Limits.t}
    admission, the CQ concrete syntax), response rows, and the batch
    task table (op name → budgeted work closure).

    One JSON object per line in both directions.  Every response row
    carries [id] (echoed from the request, defaulting to the line
    index), [index] (the 0-based line index) and [op]; malformed
    requests become structured [status:"error"] rows instead of killing
    the stream. *)

open Certdb_relational
module Json = Certdb_obs.Obs.Json
module Engine = Certdb_csp.Engine

(** {1 Conjunctive-query concrete syntax}

    ["ans(x,y) :- R(x,z), S(z,y)"] — variables are written [_x] inside
    atoms (the instance parser's null syntax); head variables may drop
    the underscore. *)

val parse_cq_result : string -> (Certdb_query.Cq.t, string) result

(** {1 JSON field accessors} *)

val str_field : string -> Json.t -> string option
val int_field : string -> Json.t -> int option

(** [int_list_field k j] — a homogeneous array of ints; [None] when the
    field is absent, not an array, or mixes in non-ints. *)
val int_list_field : string -> Json.t -> int list option

(** [float_field k j] accepts both [Int] and [Float] payloads. *)
val float_field : string -> Json.t -> float option

val bool_field : string -> Json.t -> bool option

(** [limits_of_json ?cancel ?default j] — per-request admission: the
    [node_budget], [backtrack_budget] and [timeout_ms] fields of a
    request object override the matching fields of [default] (default:
    unlimited); [cancel], when given, replaces [default]'s token.  The
    one limits parser of [certdb batch] and [certdb serve]. *)
val limits_of_json :
  ?cancel:Engine.Cancel.t -> ?default:Engine.Limits.t -> Json.t -> Engine.Limits.t

(** [backend_of_json ?default j] — the request's ["backend"] field
    (["csp"|"sat"|"auto"]), or [default] (default [Csp]) when absent;
    an unknown name is [Error msg]. *)
val backend_of_json :
  ?default:Certdb_sat.Backend.choice ->
  Json.t ->
  (Certdb_sat.Backend.choice, string) result

(** ["applies to Boolean queries (empty head): ..."] — the refusal every
    graded-certainty front end gives a non-Boolean query, prefixed with
    its own name. *)
val boolean_only : string

(** {1 Response rows} *)

(** [row ~idx ~id ~op fields] — the response envelope:
    [{"id":…,"index":…,"op":…,…fields}]. *)
val row : idx:int -> id:string -> op:string -> (string * Json.t) list -> Json.t

val error_fields : string -> (string * Json.t) list

(** [overloaded_fields ~retry_after_ms] — the admission-control shed
    row: [{"status":"overloaded","retry_after_ms":F}].  Clients back
    off for at least [retry_after_ms] before retrying. *)
val overloaded_fields : retry_after_ms:float -> (string * Json.t) list

(** [describe_exn e] — human-readable rendering, special-casing injected
    faults ([Certdb_obs.Fault.Injected]). *)
val describe_exn : exn -> string

(** {1 Batch tasks} *)

(** A parsed batch line, ready to run: [leq] and [member] under the
    one {!Certdb_csp.Resilient.run}, [certain] as one
    {!Certdb_analysis.Plan.certain} call. *)
type work

(** [(id, op, work-or-parse-error)] *)
type task = string * string * (work, string) result

(** [parse_task ?cancel ?backend idx line] parses one JSONL batch
    request ([op] ∈ [leq] / [member] / [certain]).  Any parse failure —
    bad JSON, missing field, unknown op, a non-Boolean [certain] query —
    is [Error msg], never an exception.  [cancel] is threaded into the
    task's limits so a fail-fast trip aborts in-flight searches.
    [backend] is the stream's default for [certain] tasks; a per-line
    ["backend"] field overrides it ({!backend_of_json}). *)
val parse_task :
  ?cancel:Engine.Cancel.t ->
  ?backend:Certdb_sat.Backend.choice ->
  int ->
  string ->
  task

(** [run_task ~policy (idx, task)] runs a parsed task and renders its
    response row.  [leq] / [member] run under {!Certdb_csp.Resilient.run}
    with [policy]: [status] ∈ [sat] / [unsat] / [unknown] (with the
    tripped limit as [reason]).  [certain] goes through the planner
    exactly as [certdb serve] does, with [policy] as its resilient run's
    policy: [`Exact b] is [sat]/[unsat];
    [`Lower_bound true] is [sat] and [`Lower_bound false] is [unknown],
    both with ["grade":"lower-bound"], except that a [`Lower_bound false]
    whose cancel token was tripped is [unknown] with
    ["reason":"cancelled"], as a cancelled [leq] or [member] row is.  A
    raised exception is an [error] row. *)
val run_task :
  policy:Certdb_csp.Resilient.Policy.t -> int * task -> Json.t

val parse_instance_result : string -> (Instance.t, string) result

(** {1 Bounded line IO}

    Request lines are capped: an over-long line is drained to its
    newline (so the stream stays in sync) but never buffered whole, and
    reported as [`Oversized total_bytes] for the caller to answer with
    a structured error row. *)

(** 1 MiB. *)
val default_max_line_bytes : int

(** Buffered line reads over a raw [Unix] fd with per-call deadlines —
    the supervisor's connection reader, on a socket and on stdin alike.
    [Unix.select] runs in ≤100 ms slices polling [stop], so drain
    interrupts an idle read promptly; [EINTR] is always retried. *)
module Fd_reader : sig
  type t

  (** [create ?final_line fd] — with [final_line] (stdin, where a
      file's last line may lack its newline) a partial line at EOF is
      one last request; without it (a socket) it is a torn request and
      reads as [`Eof]. *)
  val create : ?final_line:bool -> Unix.file_descr -> t

  val read_line :
    ?timeout_ms:float ->
    ?stop:bool Atomic.t ->
    max:int ->
    t ->
    [ `Line of string | `Oversized of int | `Timeout | `Eof | `Stopped ]
end

(** [write_line fd line] writes [line ^ "\n"] whole (short writes and
    [EINTR] retried); any other [Unix] error — [EPIPE] from a client
    that hung up mid-response — is [Error msg], never an exception. *)
val write_line : Unix.file_descr -> string -> (unit, string) result

val write_raw : Unix.file_descr -> string -> (unit, string) result
