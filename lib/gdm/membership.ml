open Certdb_values
open Certdb_csp
module Int_set = Structure.Int_set
module Int_map = Structure.Int_map

let candidates_for d d' v =
  let data_v = Gdb.data d v in
  List.fold_left
    (fun acc w ->
      if
        String.equal (Gdb.label d v) (Gdb.label d' w)
        && Certdb_relational.Ordering.tuple_leq data_v (Gdb.data d' w)
      then Int_set.add w acc
      else acc)
    Int_set.empty (Gdb.nodes d')

(* The R-relation of Theorem 6 as a first-class [Domains.t]: node [v] of
   [d] may map to the nodes of [d'] with the same label and
   information-greater data tuple. *)
let candidate_relation d d' =
  Domains.of_list
    (List.map (fun v -> (v, candidates_for d d' v)) (Gdb.nodes d))

let generic_leq = Gordering.leq
let generic_leq_b = Gordering.leq_b

let require_codd d =
  if not (Gdb.codd d) then
    invalid_arg "Membership.codd_leq: source is not Codd"

(* the search's bound grows with the width, so spending the second
   elimination heuristic up front (Treewidth.estimate) is always worth it *)
let r_hom ?decomposition d d' =
  require_codd d;
  let source = Gdb.structure d in
  let decomposition =
    match decomposition with
    | Some dec -> dec
    | None -> fst (Treewidth.estimate source)
  in
  Engine.solve
    ~config:
      (Engine.Config.make ~restrict:(candidate_relation d d') ~decomposition
         ())
    ~source ~target:(Gdb.structure d') ()
  |> Solver.definitive

let codd_leq ?decomposition d d' = Option.is_some (r_hom ?decomposition d d')

let codd_leq_witness ?decomposition d d' =
  match r_hom ?decomposition d d' with
  | None -> None
  | Some h1 ->
    (* Codd: each null occurs once, so the per-node data bindings never
       conflict. *)
    let valuation =
      Int_map.fold
        (fun v w acc ->
          match Valuation.extend_match acc (Gdb.data d v) (Gdb.data d' w) with
          | Some acc' -> acc'
          | None -> invalid_arg "Membership: R-relation inconsistent")
        h1 Valuation.empty
    in
    Some { Ghom.node_map = h1; valuation }

let mem d' d =
  Gdb.is_complete d'
  && if Gdb.codd d then codd_leq d d' else generic_leq d d'

let mem_b ?limits d' d =
  if not (Gdb.is_complete d') then `False
  else if Gdb.codd d then if codd_leq d d' then `True else `False
  else generic_leq_b ?limits d d'
