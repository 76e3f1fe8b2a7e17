open Certdb_values
module Engine = Certdb_csp.Engine
module Solver = Certdb_csp.Solver
module Structure = Certdb_csp.Structure
module Domains = Certdb_csp.Domains
module Int_map = Structure.Int_map
module Int_set = Structure.Int_set

let is_hom h d d' =
  List.for_all
    (fun (f : Instance.fact) ->
      Instance.mem d' { f with args = Valuation.apply_array h f.args })
    (Instance.facts d)

type encoding = {
  source : Structure.t;
  target : Structure.t;
  restrict : Domains.t;
  src_values : Value.t array;
  tgt_values : Value.t array;
}

(* Target nodes are numbered in the order of the active domain.  The
   target half of an encoding depends on [d'] alone, so it is built once
   per [d'] and reused by every source tested against it; its columnar
   view is forced here, so a target shared between domains is never
   written again. *)
type target = {
  instance : Instance.t;
  structure : Structure.t;
  values : Value.t array;
  ids : int Value.Map.t;
}

let targets_built = Certdb_obs.Obs.counter "relational.hom.targets"

let build d' =
  let values =
    Array.of_list (Value.Set.elements (Instance.active_domain d'))
  in
  let ids =
    snd
      (Array.fold_left
         (fun (i, m) v -> (i + 1, Value.Map.add v i m))
         (0, Value.Map.empty) values)
  in
  let structure =
    Structure.make
      ~nodes:(List.init (Array.length values) (fun i -> (i, None)))
      ~tuples:
        (List.map
           (fun (f : Instance.fact) ->
             (f.rel, [ Array.map (fun v -> Value.Map.find v ids) f.args ]))
           (Instance.facts d'))
  in
  ignore (Structure.columnar structure);
  { instance = d'; structure; values; ids }

let target d' =
  Certdb_obs.Obs.incr targets_built;
  build d'

let target_for ?target:t d' =
  match t with
  | None -> target d'
  | Some t when t.instance == d' -> t
  | Some _ -> invalid_arg "Hom.target_for: target built from another instance"

(* Source nodes are numbered in order of first occurrence along [facts].
   A constant is pinned to itself, which is the empty set when it is
   missing from adom(d'); every null ranges over all of adom(d'). *)
let encode_onto t facts =
  let ids = Hashtbl.create 16 in
  let values = ref [] in
  let id_of v =
    match Hashtbl.find_opt ids v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids v i;
      values := v :: !values;
      i
  in
  let tuples =
    List.map
      (fun (f : Instance.fact) -> (f.rel, [ Array.map id_of f.args ]))
      facts
  in
  let src_values = Array.of_list (List.rev !values) in
  let restrict =
    Domains.of_list
      (List.concat
         (List.mapi
            (fun i v ->
              if Value.is_null v then []
              else
                match Value.Map.find_opt v t.ids with
                | Some j -> [ (i, Int_set.singleton j) ]
                | None -> [ (i, Int_set.empty) ])
            (Array.to_list src_values)))
  in
  {
    source =
      Structure.make
        ~nodes:(List.init (Array.length src_values) (fun i -> (i, None)))
        ~tuples;
    target = t.structure;
    restrict;
    src_values;
    tgt_values = t.values;
  }

let encode facts d' = encode_onto (target d') facts

let encode_endo ?(fixed = Value.Set.empty) d =
  let t = build d in
  let pins = ref [] in
  Array.iteri
    (fun i v ->
      if Value.is_const v || Value.Set.mem v fixed then
        pins := (i, Int_set.singleton i) :: !pins)
    t.values;
  {
    source = t.structure;
    target = t.structure;
    restrict = Domains.of_list !pins;
    src_values = t.values;
    tgt_values = t.values;
  }

let valuation e h =
  Int_map.fold
    (fun i j acc ->
      let v = e.src_values.(i) in
      if Value.is_null v then Valuation.bind acc v e.tgt_values.(j) else acc)
    h Valuation.empty

let config ?(limits = Engine.Limits.unlimited) e =
  Engine.Config.make ~limits ~restrict:e.restrict ()

let satisfiable ?limits e =
  Engine.satisfiable ~config:(config ?limits e) ~source:e.source
    ~target:e.target ()

let find_b_onto ?limits t d =
  let e = encode_onto t (Instance.facts d) in
  Engine.map_outcome (valuation e)
    (Engine.solve ~config:(config ?limits e) ~source:e.source
       ~target:e.target ())

let exists_b_onto ?limits t d =
  Engine.decision_of_outcome
    (satisfiable ?limits (encode_onto t (Instance.facts d)))

let exists_onto t d =
  Option.is_some
    (Solver.definitive (satisfiable (encode_onto t (Instance.facts d))))

let iter_onto t d f =
  let e = encode_onto t (Instance.facts d) in
  Solver.iter_homs ~restrict:e.restrict ~source:e.source ~target:e.target
    (fun h -> f (valuation e h))

let find_b ?limits d d' = find_b_onto ?limits (target d') d
let exists_b ?limits d d' = exists_b_onto ?limits (target d') d
let find d d' = Solver.definitive (find_b d d')
let exists d d' = exists_onto (target d') d
let iter d d' f = iter_onto (target d') d f

let count d d' =
  let e = encode (Instance.facts d) d' in
  Solver.count_homs ~restrict:e.restrict ~source:e.source ~target:e.target ()
