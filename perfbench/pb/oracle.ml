(* Expected answers, computed in-process before anything is timed by a
   path independent of the one the server serves: no cache, no budget,
   no planner.  Boolean certainty is decided by an algorithm other than
   the one the query's route runs: the CDCL backend for queries the
   server solves with the CSP engine (hom ladder, components), the CSP
   engine for the rest (tree-decomposition routes, SAT); a non-Boolean
   query's certain answers are its naive evaluation with null tuples
   dropped (Theorem 4). *)

module Cq = Certdb_query.Cq
module Certain = Certdb_query.Certain
module Engine = Certdb_csp.Engine
module Parse = Certdb_relational.Parse

type answer = Bool of bool | Tuples of string

let to_string = function Bool b -> string_of_bool b | Tuples s -> s

let decision_exn what = function
  | `True -> true
  | `False -> false
  | `Unknown _ -> failwith (what ^ ": unlimited oracle answered unknown")

let answer ~route (q : Cq.t) d =
  if q.Cq.head = [] then
    Bool
      (match route with
      | "hom_ladder" | "components" ->
        decision_exn "sat" (Certain.certain_cq_via_sat_b q d)
      | _ -> decision_exn "engine" (Certain.certain_cq_via_hom_b q d))
  else Tuples (Parse.to_string (Certain.drop_null_tuples (Cq.answers q d)))
