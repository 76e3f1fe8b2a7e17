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

let naive_eval_ucq ?target u d =
  Obs.incr naive_evals;
  Trace.with_span "query.naive_eval" @@ fun () ->
  count_answers (drop_null_tuples (Ucq.answers ?target u d))

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

let certain_cq_via_containment q d = Cq.contained (Cq.of_instance d) q
let certain_cq_via_naive q d = Cq.holds q d

(* {2 Prop. 2 as one hom instance, decided by any solver} *)

module Engine = Certdb_csp.Engine
module Decider = Certdb_csp.Decider
module Resilient = Certdb_csp.Resilient
module Sat_backend = Certdb_sat.Backend

(* [D_Q ⊑ D] as an R-compatible hom problem, built once per call by
   every Boolean-certainty route: the query's variables are frozen to
   fresh nulls and its atoms with arguments go through [Hom.encode_onto], so
   source nodes are numbered by first occurrence in the query and
   constants are pinned.  The DPs and the reference core ignore 0-ary
   facts, so 0-ary atoms are checked against [d] directly: [settled] is
   [Some b] when they, or an empty remainder, decide the query without a
   search.  The target half is [target] when the caller holds one for
   [d] (checked first); otherwise it is built, and only when a search
   is needed. *)
type instance = { settled : bool option; hom : Hom.encoding Lazy.t }

let instance ?target q d =
  if q.Cq.head <> [] then invalid_arg "Certain: Boolean query only";
  let target = Option.map (fun t -> Hom.target_for ~target:t d) target in
  let zero_ary, positive =
    List.partition (fun (a : Cq.atom) -> a.args = []) q.Cq.atoms
  in
  let zero_ok =
    List.for_all
      (fun (a : Cq.atom) ->
        List.exists (fun t -> Array.length t = 0) (Instance.tuples d a.rel))
      zero_ary
  in
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
  {
    settled =
      (if not zero_ok then Some false
       else if positive = [] then Some true
       else None);
    hom =
      lazy
        (Hom.encode_onto (Hom.target_for ?target d)
           (List.map
              (fun (a : Cq.atom) ->
                Instance.fact a.rel (List.map value a.args))
              positive));
  }

let decide (decider : Decider.t) ~limits inst =
  match inst.settled with
  | Some true -> Engine.Sat ()
  | Some false -> Engine.Unsat
  | None ->
    let { Hom.source; target; restrict; _ } = Lazy.force inst.hom in
    decider.satisfiable (Engine.Config.make ~limits ~restrict ()) source target

(* the one span of every Boolean-certainty route, labelled with the
   solver that decides it *)
let with_instance ?target ~solver q d f =
  Obs.incr certain_checks;
  Trace.with_span "query.certain_cq" ~labels:[ ("solver", solver) ]
  @@ fun () -> f (instance ?target q d)

let decide_cq ?(limits = Engine.Limits.unlimited) (decider : Decider.t) q d =
  with_instance ~solver:decider.name q d (decide decider ~limits)

let certain_cq_via_decider ?limits decider q d =
  Engine.decision_of_outcome (decide_cq ?limits decider q d)

let certain_cq_via_hom_b ?limits q d =
  certain_cq_via_decider ?limits Decider.engine q d

let certain_cq_via_sat_b ?limits ?symmetry q d =
  certain_cq_via_decider ?limits (Sat_backend.decider ?symmetry ()) q d

let certain_cq_via_hom q d =
  Option.is_some (Certdb_csp.Solver.definitive (decide_cq Decider.engine q d))

let certain_cq_via_btw ?limits q d =
  certain_cq_via_decider ?limits Decider.btw q d

(* The same instance, exported as DIMACS CNF for external solvers.  The
   0-ary split is not expressible in clauses over the encoding's
   variables (it needs no variables at all), so it is reported in a
   comment; a [zero_ok=false] instance is unsatisfiable regardless of
   the clauses below it. *)
let certain_cq_dimacs ?symmetry q d =
  let inst = instance q d in
  let { Hom.source; target; restrict; _ } = Lazy.force inst.hom in
  let comments =
    [
      Printf.sprintf "certdb Boolean-CQ certainty; zero_ok=%b"
        (inst.settled <> Some false);
    ]
  in
  Sat_backend.dimacs ~restrict ?symmetry ~comments ~source ~target ()

(* {2 Graceful degradation} *)

let resilient_exact = Obs.counter "query.resilient.exact"
let resilient_degraded = Obs.counter "query.resilient.degraded"

let certain_cq_resilient ?policy ?(limits = Engine.Limits.unlimited)
    ?fallback ?target (decider : Decider.t) q d =
  with_instance ?target ~solver:decider.name q d @@ fun inst ->
  let fallback =
    Option.map
      (fun (f : Decider.t) -> (f.name, fun limits -> decide f ~limits inst))
      fallback
  in
  Resilient.run ?policy ?fallback ~limits (fun limits ->
      decide decider ~limits inst)
  |> Resilient.graded ~exact:resilient_exact ~degraded:resilient_degraded
       ~exhausted:(fun () ->
         (* by Prop. 2 any further evaluation would ask the ladder's own
            question with no budget left; a Boolean CQ's only positive
            certificate is a witness, so nothing sound is left to
            certify *)
         `Lower_bound false)

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
