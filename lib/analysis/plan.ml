open Certdb_query
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace
module Sat_choice = Certdb_sat.Backend
module Decider = Certdb_csp.Decider

let plan_naive = Obs.counter "query.plan.naive_eval"
let plan_acyclic = Obs.counter "query.plan.acyclic_join"
let plan_bounded = Obs.counter "query.plan.bounded_width"
let plan_components = Obs.counter "query.plan.components"
let plan_hom = Obs.counter "query.plan.hom_ladder"
let plan_fd = Obs.counter "query.plan.fd_naive"
let plan_sat = Obs.counter "query.plan.sat"

type route =
  | Naive_eval
  | Acyclic_join
  | Bounded_width of int
  | Components of int
  | Hom_ladder
  | Fd_naive of Fd.fd
  | Sat_backend of int

type decision = {
  route : route;
  hypergraph : Hypergraph.t option;
}

let route_to_string = function
  | Naive_eval -> "naive-eval"
  | Acyclic_join -> "acyclic-join"
  | Bounded_width w -> Printf.sprintf "bounded-width(%d)" w
  | Components c -> Printf.sprintf "components(%d)" c
  | Hom_ladder -> "hom-ladder"
  | Fd_naive f -> Printf.sprintf "fd-naive(%s)" (Fd.to_string f)
  | Sat_backend k -> Printf.sprintf "sat-backend(%d)" k

let count_route = function
  | Naive_eval -> Obs.incr plan_naive
  | Acyclic_join -> Obs.incr plan_acyclic
  | Bounded_width _ -> Obs.incr plan_bounded
  | Components _ -> Obs.incr plan_components
  | Hom_ladder -> Obs.incr plan_hom
  | Fd_naive _ -> Obs.incr plan_fd
  | Sat_backend _ -> Obs.incr plan_sat

let default_width_threshold = 2

(* A certainly-satisfied key FD on one of the query's relations: that
   relation is key-determined in every completion.  The FD is kept as
   the route's certificate; the route itself runs the same budgeted hom
   ladder as [Hom_ladder]. *)
let key_fd_for (q : Cq.t) fds =
  List.find_opt
    (fun (f : Fd.fd) ->
      List.exists
        (fun (a : Cq.atom) ->
          a.rel = f.rel && Fd.is_key ~arity:(List.length a.args) f)
        q.atoms)
    fds

(* Largest class of query variables that are pairwise interchangeable:
   swapping the two variables everywhere maps the atom multiset to
   itself.  These are the interchangeable fresh nulls of the naïve
   tableau — the permutation symmetry the SAT encoder breaks with
   ordering clauses, and the thing chronological backtracking pays [k!]
   for.  Classes are built greedily against a representative;
   transpositions through a common element generate the symmetric
   group, so membership is mutual. *)
let largest_interchangeable_class (q : Cq.t) =
  let vars =
    List.sort_uniq compare
      (List.concat_map
         (fun (a : Cq.atom) ->
           List.filter_map
             (function Fo.Var v -> Some v | Fo.Val _ -> None)
             a.args)
         q.atoms)
  in
  let canon swap =
    List.sort compare
      (List.map
         (fun (a : Cq.atom) ->
           ( a.rel,
             List.map
               (function Fo.Var v -> Fo.Var (swap v) | t -> t)
               a.args ))
         q.atoms)
  in
  let id = canon (fun v -> v) in
  let swap_ok a b =
    canon (fun v -> if v = a then b else if v = b then a else v) = id
  in
  let rec classes = function
    | [] -> 0
    | rep :: rest ->
      let members, others = List.partition (swap_ok rep) rest in
      max (1 + List.length members) (classes others)
  in
  classes vars

let route_cq ?(width_threshold = default_width_threshold) ?(fds = [])
    ?(backend = Sat_choice.Csp) (q : Cq.t) =
  if q.head <> [] then { route = Naive_eval; hypergraph = None }
  else
    let hg = Hypergraph.analyze q in
    let route =
      match backend with
      | Sat_choice.Sat ->
        (* explicit opt-in: the whole instance goes to the CDCL core *)
        Sat_backend (largest_interchangeable_class q)
      | Sat_choice.Csp | Sat_choice.Auto -> (
        match hg.certificate with
        | Acyclic _ -> Acyclic_join
        | Cyclic _ -> (
          if hg.width_estimate <= width_threshold then
            Bounded_width hg.width_estimate
          else
            match key_fd_for q fds with
            | Some f -> Fd_naive f
            | None ->
              (* [Auto]'s SAT certificate: cyclic and wide (checked
                 above), dense (at least as many atoms as variables),
                 and a rich permutation symmetry for the ordering
                 clauses to cut — the profile where clause learning
                 beats chronological backtracking *)
              let sym =
                if backend = Sat_choice.Auto then
                  largest_interchangeable_class q
                else 0
              in
              if sym >= 3 && hg.atom_count >= hg.var_count then
                Sat_backend sym
              else if hg.components >= 2 then Components hg.components
              else Hom_ladder))
    in
    { route; hypergraph = Some hg }

let certain ?policy ?limits ?jobs:_ ?width_threshold ?fds ?backend
    (q : Cq.t) d =
  if q.head <> [] then invalid_arg "Plan.certain: Boolean query only";
  let dec = route_cq ?width_threshold ?fds ?backend q in
  count_route dec.route;
  (* the search routes differ only in the decider pair they hand the one
     ladder; CDCL crosses to the CSP engine on exhaustion, so a SAT route
     can never weaken an answer *)
  let ladder ?fallback decider =
    Certain.certain_cq_resilient ?policy ?limits ?fallback decider q d
  in
  (* the route label on this span is what [explain:true] surfaces; it
     always matches the query.plan.* counter bumped just above *)
  Trace.with_span "query.plan"
    ~labels:[ ("route", route_to_string dec.route) ]
    (fun () ->
      match dec.route with
      | Naive_eval -> assert false (* Boolean queries never route here *)
      | Acyclic_join | Bounded_width _ -> ladder Decider.btw
      | Components _ | Hom_ladder | Fd_naive _ -> ladder Decider.engine
      | Sat_backend _ -> ladder ~fallback:Decider.engine (Sat_choice.decider ()))

let certain_answers u d =
  count_route Naive_eval;
  Trace.with_span "query.plan"
    ~labels:[ ("route", route_to_string Naive_eval) ]
    (fun () -> Certain.certain_ucq u d)
