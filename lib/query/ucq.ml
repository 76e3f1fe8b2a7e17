open Certdb_relational
type t = Cq.t list

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | q :: qs ->
    let arity = List.length q.Cq.head in
    List.iter
      (fun q' ->
        if List.length q'.Cq.head <> arity then
          invalid_arg "Ucq.make: disjuncts with different head arities")
      qs;
    q :: qs

let to_fo u = Fo.disj (List.map Cq.to_fo u)

let answers ?target u d =
  let target = Hom.target_for ?target d in
  List.fold_left
    (fun acc q -> Instance.union acc (Cq.answers ~target q d))
    Instance.empty u

let holds u d = List.exists (fun q -> Cq.holds q d) u

let contained u1 u2 =
  List.for_all
    (fun q1 -> List.exists (fun q2 -> Cq.contained q1 q2) u2)
    u1
