(** The hom-search engine: budgeted, cancellable homomorphism search
    between finite labeled structures.

    Every decision procedure of the paper — the information orderings of
    Prop. 9, membership (Prop. 8 / Theorem 6 via R-compatible
    homomorphisms), certain answers by naïve tableaux — bottoms out in
    this search: one MRV + forward-checking backtracker, run under a
    {!Config.t} that bundles resource limits ({!Limits.t}: node and
    backtrack budgets, a wall-clock deadline, a {!Cancel.t} token
    another domain may trip) with an optional candidate restriction.
    Every search returns a three-valued {!outcome}, so budget exhaustion
    is never conflated with non-existence: [Sat h] carries a verified
    witness, [Unsat] is only reported after the search space is
    exhausted, and [Unknown r] says which limit tripped.

    The search core runs over compiled instances: both structures'
    columnar views ({!Structure.columnar}), interned relation and label
    ids ({!Interner}), and candidate domains as word-parallel bitset
    rows ({!Domains.Dense}) with trail-based undo — support checks are
    [land]s over int arrays driven by the target's per-position tuple
    index.  The existence searches ({!solve}, {!satisfiable}) solve the
    source's connected components one at a time under one budget, and
    stop at the first component that cannot be completed.  {!Reference}
    preserves the pre-columnar map/set core, which searches the whole
    instance, as the ablation baseline and test oracle.

    One semantic fix over {!Reference}: a 0-ary source fact [R()] absent
    from the target makes the instance [Unsat] (the old core ignored
    0-ary constraints, which belong to no variable).

    {!Solver.find_hom} and friends remain as thin unlimited-budget shims
    over this module.  Relational homomorphisms ([Hom]) and gdm
    homomorphisms ([Ghom]) are encoders onto it, so every hom test of
    the library runs here.  {!Batch} fans independent searches out across
    OCaml domains with deterministic result ordering. *)

type hom = int Structure.Int_map.t

(** Why a search stopped early. *)
type reason =
  | Node_budget  (** the branching-decision budget ran out *)
  | Backtrack_budget  (** the dead-end budget ran out *)
  | Deadline  (** the wall-clock deadline passed *)
  | Cancelled  (** the {!Cancel.t} token was tripped *)
  | Crashed of string
      (** the search died mid-flight (an injected fault or other crash
          converted by {!Budget.run}); the payload names the fault
          point.  Like every [Unknown], this carries no evidence either
          way. *)

val reason_to_string : reason -> string

(** Three-valued search result.  [Sat] and [Unsat] are definitive under
    any budget; a tripped limit always surfaces as [Unknown]. *)
type 'a outcome = Sat of 'a | Unsat | Unknown of reason

val map_outcome : ('a -> 'b) -> 'a outcome -> 'b outcome

(** Three-valued verdict for budgeted decision procedures built on the
    engine (orderings, membership, certainty). *)
type decision = [ `True | `False | `Unknown of reason ]

val decision_of_outcome : 'a outcome -> decision

(** Cancellation tokens: an atomic flag safe to trip from any domain. *)
module Cancel : sig
  type t

  val create : unit -> t
  val cancel : t -> unit
  val cancelled : t -> bool
end

(** Resource limits, all off by default. *)
module Limits : sig
  type t = {
    nodes : int option;
        (** max branching decisions; the bounded-treewidth DP
            ({!Bounded_tw.satisfiable}) makes none and ignores it *)
    backtracks : int option;  (** max dead ends; likewise *)
    timeout_ms : float option;
        (** wall-clock, relative to the start of the search; under
            {!Resilient.run}, relative to the start of the run, one
            deadline that every attempt and the fallback share *)
    cancel : Cancel.t option;
  }

  val unlimited : t

  val make :
    ?nodes:int ->
    ?backtracks:int ->
    ?timeout_ms:float ->
    ?cancel:Cancel.t ->
    unit ->
    t

  val is_unlimited : t -> bool
end

(** The runtime counterpart of {!Limits.t}: a mutable tracker that the
    search procedures outside this engine (the CDCL SAT backend, the
    enumeration loops of gdm query answering and of the chase) thread
    through their own hot loops so every budget has one semantics.  The
    relational and gdm hom searches have no loop of their own: they are
    encoded onto this engine. *)
module Budget : sig
  exception Interrupted of reason

  type t

  val start : Limits.t -> t

  (** A shared tracker for {!Limits.unlimited}: it never mutates, so it
      is safe to use concurrently from any number of domains. *)
  val unlimited : t

  (** [tick_node b] accounts one search node / branching decision.
      @raise Interrupted when a limit trips. *)
  val tick_node : t -> unit

  (** [tick_backtrack b] accounts one dead end.
      @raise Interrupted when the backtrack budget trips. *)
  val tick_backtrack : t -> unit

  (** [run limits f] starts a tracker, runs [f], and converts its
      [Some]/[None] result to [Sat]/[Unsat], mapping an [Interrupted]
      escape to [Unknown] and an injected fault
      ([Certdb_obs.Fault.Injected]) to [Unknown (Crashed _)].

      Deadlines are robust to a non-monotone wall clock: the tracker
      accumulates only positive deltas between clock polls, so a clock
      stepped backwards (NTP) can delay the deadline by at most one poll
      interval and can never disarm it. *)
  val run : Limits.t -> (t -> 'a option) -> 'a outcome
end

(** Search configuration: what a search may spend and which candidates it
    may use.  The search itself is fixed — MRV variable selection with
    forward checking — so there are no ordering or propagation knobs. *)
module Config : sig
  type t = {
    limits : Limits.t;
    restrict : Domains.t option;
        (** constrain the graph of the hom to a relation [R ⊆ A × B]
            (Theorem 6's R-compatible homomorphisms) *)
  }

  (** Unlimited budget, no restriction. *)
  val default : t

  val make : ?limits:Limits.t -> ?restrict:Domains.t -> unit -> t
  val with_restrict : Domains.t -> t -> t
end

(** [is_hom ~source ~target h] checks that [h] is a total
    label-preserving homomorphism. *)
val is_hom : source:Structure.t -> target:Structure.t -> hom -> bool

(**/**)

(* Internal plumbing shared with [Solver]'s naive ablation baseline, the
   bounded-treewidth DP and the CNF encoder. *)

type cstr = { rel : string; vars : int array }

val constraints_of : Structure.t -> cstr list

val initial_candidates :
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  Structure.Int_set.t Structure.Int_map.t

(** A compiled hom instance: dense variable/value ids, per-variable
    initial candidate bitsets, and constraints with their matching
    target relation resolved by interned (rel_id, arity). *)
module Compiled : sig
  type ccstr = {
    cvars : int array;  (** dense source vars, one per position *)
    tgt : Structure.crel option;
        (** target tuples of the same (rel, arity), if any *)
  }

  type t = {
    csrc : Structure.columnar;
    ctgt : Structure.columnar;
    nvars : int;
    cap : int;  (** number of target nodes *)
    words : int;
    init : Domains.Bitset.bs array;  (** per dense var *)
    cstrs : ccstr array;
    by_var : ccstr list array;
    zero_ok : bool;  (** every 0-ary source fact occurs in the target *)
    max_arity : int;
    comp : int array;
        (** per dense var: its connected component in [0, ncomps), or -1
            for a pinned variable (exactly one initial candidate) or one
            in no constraint; pinned variables join no component *)
    ncomps : int;
  }

  val make :
    ?restrict:Domains.t ->
    source:Structure.t ->
    target:Structure.t ->
    unit ->
    t
end

val compile :
  ?restrict:Domains.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  Compiled.t

(**/**)

(** [solve ?config ~source ~target ()] searches for one homomorphism.
    [Sat h] is a verified witness; [Unsat] means none exists.

    The search solves the source's connected components one at a time:
    components join the variables of each constraint, except pinned
    variables (one initial candidate, such as a query constant), which
    join none.  Once a component is complete, the search never returns
    into it: if the rest has no solution, the instance has none.  The
    one {!Config.t} budget covers every component.  With two or more
    components it bumps [csp.components.splits] and sets the gauge
    [csp.components.count]. *)
val solve :
  ?config:Config.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  hom outcome

(** [satisfiable ?config ~source ~target ()] decides existence without
    materializing a witness: variables occurring in no constraint are
    never branched on (their candidate sets are only checked non-empty),
    so it explores no more — and on instances with unconstrained nodes
    strictly fewer — nodes than [solve].  It splits into components as
    {!solve} does. *)
val satisfiable :
  ?config:Config.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  unit outcome

(** [iter ?config ~source ~target f] enumerates homomorphisms until [f]
    answers [`Stop], the space is exhausted, or a limit trips.  It needs
    every combination, so it searches the whole instance without the
    component split. *)
val iter :
  ?config:Config.t ->
  source:Structure.t ->
  target:Structure.t ->
  (hom -> [ `Continue | `Stop ]) ->
  [ `Exhausted | `Stopped | `Interrupted of reason ]

(** [count ?config ~source ~target ()] — [Sat n] only when the full
    space was enumerated. *)
val count :
  ?config:Config.t ->
  source:Structure.t ->
  target:Structure.t ->
  unit ->
  int outcome

(** The pre-columnar map/set search core — the same MRV + forward-checking
    search over the whole instance, without the component split — kept
    as the ablation baseline of bench e24 and the independent oracle of
    the engine's property tests.  Same
    {!Config.t}, same budget semantics, same counters — but persistent [Int_set] domains and [Tuple_set]
    support scans instead of bitsets, and 0-ary constraints are (still)
    silently ignored. *)
module Reference : sig
  val solve :
    ?config:Config.t ->
    source:Structure.t ->
    target:Structure.t ->
    unit ->
    hom outcome

  val satisfiable :
    ?config:Config.t ->
    source:Structure.t ->
    target:Structure.t ->
    unit ->
    unit outcome
end

(** Domain-parallel batch solving: a hand-rolled worker pool (OCaml
    domains, no dependencies) that solves independent instances in
    parallel.  Work is distributed by an atomic task index; results are
    reported in input order regardless of [jobs]; per-worker task counts
    land in the [csp.batch.worker<i>.tasks] counters and always sum to
    [csp.batch.tasks]. *)
module Batch : sig
  (** [Domain.recommended_domain_count], at least 1. *)
  val default_jobs : unit -> int

  (** Per-task failure. *)
  type error =
    | Raised of { exn : exn; backtrace : Printexc.raw_backtrace }
        (** the task itself raised *)
    | Skipped
        (** never started: {!Fail_fast} tripped before this task was
            popped from the queue *)

  (** What a raising task does to the rest of the batch. *)
  type failure_policy =
    | Continue  (** isolate the failure; every other task still runs *)
    | Fail_fast of Cancel.t
        (** trip the token on the first failure: workers stop popping new
            tasks, and in-flight searches whose {!Limits.t} carry the
            same token abort with [Unknown Cancelled] *)

  (** [map_result ?jobs ?on_error f xs] applies [f] to every element on
      a pool of [jobs] domains (default {!default_jobs}; the calling
      domain is one of the workers), isolating failures per task: slot
      [i] of the result (input order, regardless of [jobs]) is [Ok y],
      [Error (Raised _)] if [f xs_i] raised, or [Error Skipped] if a
      {!Fail_fast} trip stopped the queue first.  A poisoned task never
      destroys completed work.  Default policy {!Continue}. *)
  val map_result :
    ?jobs:int ->
    ?on_error:failure_policy ->
    ('a -> 'b) ->
    'a list ->
    ('b, error) result list

  (** [map ?jobs f xs] = {!map_result} with {!Continue}, unwrapped.  The
      result list is in input order.  If [f] raises, every remaining task
      still runs to completion and the first (by {e input} order, not
      failure order) exception is re-raised only after all workers have
      drained — completed results are computed and then discarded.
      Callers that need those results, or early shutdown, should use
      {!map_result} directly. *)
  val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

  type task = {
    config : Config.t;
    source : Structure.t;
    target : Structure.t;
  }

  (** [solve_all ?jobs tasks] = [map ?jobs] of {!solve}, with each
      task's own budget. *)
  val solve_all : ?jobs:int -> task list -> hom outcome list
end
