open Certdb_values
open Certdb_csp

let tuple_leq t t' =
  Array.length t = Array.length t'
  && begin
       let ok = ref true in
       Array.iteri
         (fun i v ->
           match v with
           | Value.Null _ -> ()
           | Value.Const _ -> if not (Value.equal v t'.(i)) then ok := false)
         t;
       !ok
     end

let leq d d' = Hom.exists d d'
let leq_b ?limits d d' = Hom.exists_b ?limits d d'
let equiv d d' = leq d d' && leq d' d
let strictly_less d d' = leq d d' && not (leq d' d)
let incomparable d d' = (not (leq d d')) && not (leq d' d)

let fact_leq (f : Instance.fact) (g : Instance.fact) =
  String.equal f.rel g.rel && tuple_leq f.args g.args

let hoare_leq d d' =
  List.for_all
    (fun f -> List.exists (fun g -> fact_leq f g) (Instance.facts d'))
    (Instance.facts d)

let plotkin_leq d d' =
  hoare_leq d d'
  && List.for_all
       (fun g -> List.exists (fun f -> fact_leq f g) (Instance.facts d))
       (Instance.facts d')

let onto ?limits d d' =
  let e = Hom.encode (Instance.facts d) d' in
  Solver.find_onto_hom ?limits ~restrict:e.restrict ~source:e.source
    ~target:e.target ()

let cwa_leq d d' = Option.is_some (Solver.definitive (onto d d'))
let cwa_leq_b ?limits d d' = Engine.decision_of_outcome (onto ?limits d d')

let hall_condition d d' =
  (* left vertices: facts of d'; right: facts of d; edge when the d-fact is
     ⪯-below the d'-fact. *)
  let left = Array.of_list (Instance.facts d') in
  let right = Array.of_list (Instance.facts d) in
  let edges = ref [] in
  Array.iteri
    (fun i g ->
      Array.iteri
        (fun j f -> if fact_leq f g then edges := (i, j) :: !edges)
        right)
    left;
  let g =
    Matching.make ~left:(Array.length left) ~right:(Array.length right)
      ~edges:!edges
  in
  Matching.saturates_left g

let cwa_leq_codd d d' = hoare_leq d d' && hall_condition d d'
