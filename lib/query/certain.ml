open Certdb_values
open Certdb_relational
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let naive_evals = Obs.counter "query.naive_evals"
let certain_checks = Obs.counter "query.certain_checks"
let answer_tuples = Obs.counter "query.answer_tuples"

let drop_null_tuples d =
  Instance.filter
    (fun (f : Instance.fact) -> Array.for_all Value.is_const f.args)
    d

let count_answers d =
  Obs.add answer_tuples (Instance.cardinal d);
  d

let naive_eval_fo ~head q d =
  Obs.incr naive_evals;
  Trace.with_span "query.naive_eval" @@ fun () ->
  count_answers (drop_null_tuples (Fo.answers ~head d q))

let naive_eval_ucq u d =
  Obs.incr naive_evals;
  Trace.with_span "query.naive_eval" @@ fun () ->
  count_answers (drop_null_tuples (Ucq.answers u d))

let naive_holds q d =
  Obs.incr naive_evals;
  Trace.with_span "query.naive_eval" @@ fun () -> Fo.holds d q

let certain_fo ~head q d =
  Obs.incr certain_checks;
  Trace.with_span "query.certain_fo" @@ fun () ->
  Semantics.certain_answers_by_enumeration (fun r -> Fo.answers ~head r q) d

let certain_holds_fo ?(worlds = []) q d =
  let sample = List.map snd (Semantics.sample_completions d) in
  List.for_all (fun r -> Fo.holds r q) (sample @ worlds)

let certain_holds_fo_owa q d =
  List.for_all (fun r -> Fo.holds r q) (Semantics.sample_worlds d)

(* For existential sentences, certainty over all of [[d]] reduces to the
   complete homomorphic images of d: existential FO is preserved under
   extensions, and every member of [[d]] extends such an image.  For the
   relational coding (σ = ∅) images are exactly the groundings — the set
   representation collapses merged facts by itself. *)
let certain_existential q d =
  if not (Fo.is_existential q) then
    invalid_arg "Certain.certain_existential: not an existential sentence";
  Obs.incr certain_checks;
  Trace.with_span "query.certain_existential" @@ fun () ->
  List.for_all (fun (_, r) -> Fo.holds r q) (Semantics.sample_completions d)

let certain_ucq = naive_eval_ucq

let certain_cq_via_hom q d =
  let tableau, _ = Cq.freeze q in
  Ordering.leq tableau d

let certain_cq_via_hom_b ?limits q d =
  let tableau, _ = Cq.freeze q in
  Ordering.leq_b ?limits tableau d

let certain_cq_via_containment q d = Cq.contained (Cq.of_instance d) q
let certain_cq_via_naive q d = Cq.holds q d

(* {2 Bounded-treewidth route (Theorem 6 / Lemma 4)} *)

module Structure = Certdb_csp.Structure
module Bounded_tw = Certdb_csp.Bounded_tw
module Treewidth = Certdb_csp.Treewidth
module Int_set = Structure.Int_set

module Domains = Certdb_csp.Domains

(* [D_Q ⊑ D] as an R-compatible hom problem — the shared encoding behind
   the bounded-treewidth, component-parallel and SAT routes: the query's
   variables are frozen to fresh nulls and the tableau, as an atom list,
   goes through [Hom.encode], so source nodes are numbered by first
   occurrence in the query.  Both DPs ignore 0-ary facts, so
   propositional atoms are partitioned out for a direct check against
   [d]. *)
let cq_hom_encode positive d =
  let frozen = Hashtbl.create 16 in
  let value = function
    | Fo.Val v -> v
    | Fo.Var x -> (
      match Hashtbl.find_opt frozen x with
      | Some n -> n
      | None ->
        let n = Value.fresh_null () in
        Hashtbl.replace frozen x n;
        n)
  in
  Hom.encode
    (List.map
       (fun (a : Cq.atom) -> Instance.fact a.rel (List.map value a.args))
       positive)
    d

let cq_zero_split q d =
  let zero_ary, positive =
    List.partition (fun (a : Cq.atom) -> a.args = []) q.Cq.atoms
  in
  let zero_ok =
    List.for_all
      (fun (a : Cq.atom) ->
        List.exists (fun t -> Array.length t = 0) (Instance.tuples d a.rel))
      zero_ary
  in
  (zero_ok, positive)

let certain_cq_via_btw ?decomposition q d =
  if q.Cq.head <> [] then
    invalid_arg "Certain.certain_cq_via_btw: Boolean query only";
  Obs.incr certain_checks;
  Trace.with_span "query.certain_btw" @@ fun () ->
  let zero_ok, positive = cq_zero_split q d in
  if not zero_ok then false
  else if positive = [] then true
  else begin
    let { Hom.source; target; restrict; _ } = cq_hom_encode positive d in
    let decomposition =
      match decomposition with
      | Some dec -> dec
      | None -> fst (Treewidth.estimate source)
    in
    Bounded_tw.r_hom ~decomposition ~restrict ~source ~target ()
  end

(* The component-parallel route: a query with disconnected atom groups
   (a cartesian-product query) decomposes into one hom instance per
   connected component of the tableau; [Engine.Components] solves them
   independently — on [jobs] domains when asked — and conjoins.  Always
   budget-sound: [`Unknown] only when a limit trips. *)
let certain_cq_via_components ?(jobs = 1)
    ?(limits = Certdb_csp.Engine.Limits.unlimited) q d =
  if q.Cq.head <> [] then
    invalid_arg "Certain.certain_cq_via_components: Boolean query only";
  Obs.incr certain_checks;
  Trace.with_span "query.certain_components" @@ fun () ->
  let zero_ok, positive = cq_zero_split q d in
  if not zero_ok then `False
  else if positive = [] then `True
  else begin
    let { Hom.source; target; restrict; _ } = cq_hom_encode positive d in
    let config =
      Certdb_csp.Engine.Config.make ~limits ~restrict ()
    in
    Certdb_csp.Engine.decision_of_outcome
      (Certdb_csp.Engine.Components.satisfiable ~config ~jobs ~source
         ~target ())
  end

(* {2 The SAT backend route} *)

module Engine = Certdb_csp.Engine
module Sat_backend = Certdb_sat.Backend

(* Same reduction as the components/btw routes — the tableau as source,
   the active domain as target, constants pinned by [restrict] — but
   decided by CNF encoding + CDCL instead of backtracking search. *)
let certain_cq_via_sat_b ?limits ?symmetry q d =
  if q.Cq.head <> [] then
    invalid_arg "Certain.certain_cq_via_sat_b: Boolean query only";
  Obs.incr certain_checks;
  Trace.with_span "query.certain_sat" @@ fun () ->
  let zero_ok, positive = cq_zero_split q d in
  if not zero_ok then `False
  else if positive = [] then `True
  else begin
    let { Hom.source; target; restrict; _ } = cq_hom_encode positive d in
    let config = Engine.Config.make ?limits ~restrict () in
    Engine.decision_of_outcome
      (Sat_backend.satisfiable ~config ?symmetry ~source ~target ())
  end

(* The same instance, exported as DIMACS CNF for external solvers.  The
   0-ary split is not expressible in clauses over the encoding's
   variables (it needs no variables at all), so it is reported in a
   comment; a [zero_ok=false] instance is unsatisfiable regardless of
   the clauses below it. *)
let certain_cq_dimacs ?symmetry q d =
  if q.Cq.head <> [] then
    invalid_arg "Certain.certain_cq_dimacs: Boolean query only";
  let zero_ok, positive = cq_zero_split q d in
  let { Hom.source; target; restrict; _ } = cq_hom_encode positive d in
  let comments =
    [ Printf.sprintf "certdb Boolean-CQ certainty; zero_ok=%b" zero_ok ]
  in
  Sat_backend.dimacs ~restrict ?symmetry ~comments ~source ~target ()

(* {2 Graceful degradation} *)

module Resilient = Certdb_csp.Resilient

let resilient_exact = Obs.counter "query.resilient.exact"
let resilient_degraded = Obs.counter "query.resilient.degraded"

let outcome_of_decision = function
  | `True -> Engine.Sat ()
  | `False -> Engine.Unsat
  | `Unknown r -> Engine.Unknown r

let certain_cq_resilient ?policy ?(limits = Engine.Limits.unlimited)
    ?(backend = Sat_backend.Csp) q d =
  Obs.incr certain_checks;
  let csp limits = outcome_of_decision (certain_cq_via_hom_b ~limits q d) in
  let sat limits = outcome_of_decision (certain_cq_via_sat_b ~limits q d) in
  let r =
    match backend with
    | Sat_backend.Csp ->
      Resilient.run ?policy ~limits (fun ~attempt:_ limits -> csp limits)
    | Sat_backend.Sat ->
      (* SAT primary; if every CDCL attempt trips (or crashes), retry
         once on the CSP engine before degrading *)
      Resilient.run ?policy ~fallback:("csp", csp) ~limits
        (fun ~attempt:_ limits -> sat limits)
    | Sat_backend.Auto ->
      (* without a planner certificate, Auto means: CSP first (the
         default engine), cross to SAT on exhaustion *)
      Resilient.run ?policy ~fallback:("sat", sat) ~limits
        (fun ~attempt:_ limits -> csp limits)
  in
  match r.Resilient.outcome with
  | Engine.Sat () ->
    Obs.incr resilient_exact;
    `Exact true
  | Engine.Unsat ->
    Obs.incr resilient_exact;
    `Exact false
  | Engine.Unknown _ ->
    (* every retry tripped: degrade to naïve evaluation, which is sound
       for certain answers (Theorem 4) and never budgeted.  It is still
       a hom-shaped evaluation, so a permanent injected crash at
       csp.search.node would kill this last rung too — [false] is the
       trivially sound floor, and the graded contract survives *)
    Obs.incr resilient_degraded;
    let lower =
      match certain_cq_via_naive q d with
      | b -> b
      | exception Certdb_obs.Fault.Injected _ -> false
    in
    `Lower_bound lower

let certain_holds_cwa q d =
  Obs.incr certain_checks;
  Trace.with_span "query.certain_cwa" @@ fun () ->
  List.for_all (fun (_, r) -> Fo.holds r q) (Semantics.sample_completions d)

let possible_holds_cwa q d =
  List.exists (fun (_, r) -> Fo.holds r q) (Semantics.sample_completions d)

let possible_ucq u d =
  List.fold_left
    (fun acc (_, r) -> Instance.union acc (Ucq.answers u r))
    Instance.empty
    (Semantics.sample_completions d)

let naive_eval_is_certain ~head q d =
  Instance.equal (naive_eval_fo ~head q d) (certain_fo ~head q d)
