open Certdb_values
open Certdb_csp
module Int_map = Structure.Int_map
module Int_set = Structure.Int_set

type t = {
  node_map : int Int_map.t;
  valuation : Valuation.t;
}

let is_hom h d d' =
  let s = Gdb.structure d and s' = Gdb.structure d' in
  Solver.is_hom ~source:s ~target:s' h.node_map
  && List.for_all
       (fun v ->
         let v' = Int_map.find v h.node_map in
         Gdb.data d' v' = Valuation.apply_array h.valuation (Gdb.data d v))
       (Gdb.nodes d)

(* A gdb as one labeled structure: its own nodes, labels and σ-tuples,
   plus one node per data value (numbered past the largest gdm node,
   with a label no gdm node carries) and one data tuple
   [ν, ρ(ν)₁, …, ρ(ν)ₖ] per node. *)
let value_label = "\000value"
let data_rel = "\000data"

let encode_db d =
  let base = 1 + List.fold_left max (-1) (Gdb.nodes d) in
  let s, ids =
    List.fold_left
      (fun (s, ids) v ->
        let ids, tup =
          Array.fold_left_map
            (fun ids x ->
              match Value.Map.find_opt x ids with
              | Some n -> (ids, n)
              | None ->
                let n = base + Value.Map.cardinal ids in
                (Value.Map.add x n ids, n))
            ids (Gdb.data d v)
        in
        (Structure.add_tuple s data_rel (Array.append [| v |] tup), ids))
      (Gdb.structure d, Value.Map.empty)
      (Gdb.nodes d)
  in
  ( Value.Map.fold
      (fun _ n s -> Structure.add_node ~label:value_label s n)
      ids s,
    ids )

type encoding = {
  source : Structure.t;
  target : Structure.t;
  restrict : Domains.t;
  decode : Engine.hom -> t;
}

(* Constants are pinned to their own value node (the empty set when [d']
   lacks the constant); nulls range over every value node of [d']. *)
let encode ?(restrict = Domains.unconstrained) d d' =
  let source, src_ids = encode_db d and target, tgt_ids = encode_db d' in
  let tgt_value =
    Value.Map.fold (fun x n m -> Int_map.add n x m) tgt_ids Int_map.empty
  in
  let pins =
    Value.Map.fold
      (fun x n acc ->
        if Value.is_null x then acc
        else
          ( n,
            match Value.Map.find_opt x tgt_ids with
            | Some w -> Int_set.singleton w
            | None -> Int_set.empty )
          :: acc)
      src_ids []
  in
  let decode h =
    {
      node_map = Int_map.filter (fun v _ -> Gdb.mem_node d v) h;
      valuation =
        Value.Map.fold
          (fun x n acc ->
            if Value.is_null x then
              Valuation.bind acc x (Int_map.find (Int_map.find n h) tgt_value)
            else acc)
          src_ids Valuation.empty;
    }
  in
  let restrict = Domains.inter restrict (Domains.of_list pins) in
  { source; target; restrict; decode }

let config ?(limits = Engine.Limits.unlimited) e =
  Engine.Config.make ~limits ~restrict:e.restrict ()

let find_b ?restrict ?limits d d' =
  let e = encode ?restrict d d' in
  Engine.map_outcome e.decode
    (Engine.solve ~config:(config ?limits e) ~source:e.source
       ~target:e.target ())

let satisfiable ?restrict ?limits d d' =
  let e = encode ?restrict d d' in
  Engine.satisfiable ~config:(config ?limits e) ~source:e.source
    ~target:e.target ()

let exists_b ?restrict ?limits d d' =
  Engine.decision_of_outcome (satisfiable ?restrict ?limits d d')

let find ?restrict d d' = Solver.definitive (find_b ?restrict d d')

let exists ?restrict d d' =
  Option.is_some (Solver.definitive (satisfiable ?restrict d d'))

let iter ?restrict d d' f =
  let e = encode ?restrict d d' in
  Solver.iter_homs ~restrict:e.restrict ~source:e.source ~target:e.target
    (fun h -> f (e.decode h))

(* Onto on the encoding is onto on the gdb: covering every gdm node of
   [d'] covers its data tuples and value nodes too. *)
let find_onto d d' =
  let e = encode d d' in
  Option.map e.decode
    (Solver.definitive
       (Solver.find_onto_hom ~restrict:e.restrict ~source:e.source
          ~target:e.target ()))
