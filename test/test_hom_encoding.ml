(* Differential tests for the hom encoders: relational [Hom] and gdm
   [Ghom] run on the CSP engine through an encoding; here they are
   checked against brute-force enumeration of every null valuation (and,
   for gdbs, every node map) on small random inputs. *)

open Certdb_values
open Certdb_relational
module Engine = Certdb_csp.Engine
module Domains = Certdb_csp.Domains
module Int_map = Certdb_csp.Structure.Int_map
module Int_set = Certdb_csp.Structure.Int_set
module Gdb = Certdb_gdm.Gdb
module Ghom = Certdb_gdm.Ghom
module Gcwa = Certdb_gdm.Gcwa

let seed_arb = QCheck.int_range 0 100_000

(* every function from [keys] to [range], as association lists *)
let rec assignments keys range =
  match keys with
  | [] -> [ [] ]
  | k :: rest ->
    List.concat_map
      (fun tail -> List.map (fun r -> (k, r) :: tail) range)
      (assignments rest range)

(* {1 Relational} *)

(* Nulls come from one pool of three shared by both sides; constants 1-3
   in the source and 1, 2, 4 in the target, so a source constant is
   often missing from the target; P is 0-ary. *)
let random_instance st consts =
  let value () =
    if Random.State.int st 5 < 2 then Value.null (9001 + Random.State.int st 3)
    else Value.int (List.nth consts (Random.State.int st (List.length consts)))
  in
  let fact () =
    match Random.State.int st 5 with
    | 0 -> Instance.fact "P" []
    | 1 -> Instance.fact "S" [ value () ]
    | _ -> Instance.fact "R" [ value (); value () ]
  in
  Instance.of_facts (List.init (1 + Random.State.int st 4) (fun _ -> fact ()))

let pair_of_seed s =
  let st = Random.State.make [| s |] in
  let d = random_instance st [ 1; 2; 3 ] in
  let d' = random_instance st [ 1; 2; 4 ] in
  (* a superset of d's facts in d' half the time, so homs exist often *)
  let d' =
    if Random.State.bool st then Instance.union d' (Instance.ground d) else d'
  in
  (d, d')

let brute_homs d d' =
  List.filter_map
    (fun a ->
      let h = Valuation.of_list a in
      if Hom.is_hom h d d' then Some h else None)
    (assignments
       (Value.Set.elements (Instance.nulls d))
       (Value.Set.elements (Instance.active_domain d')))

let same_valuation h h' = Valuation.bindings h = Valuation.bindings h'

let prop_relational =
  QCheck.Test.make ~count:400 ~name:"Hom agrees with brute force" seed_arb
    (fun s ->
      let d, d' = pair_of_seed s in
      let homs = brute_homs d d' in
      let found = ref [] in
      Hom.iter d d' (fun h ->
          found := h :: !found;
          `Continue);
      let onto =
        List.exists (fun h -> Instance.equal (Instance.apply h d) d') homs
      in
      let budgeted =
        match Hom.find_b ~limits:(Engine.Limits.make ~nodes:2 ()) d d' with
        | Engine.Sat h -> Hom.is_hom h d d'
        | Engine.Unsat -> homs = []
        | Engine.Unknown Engine.Node_budget -> true
        | Engine.Unknown _ -> false
      in
      (* one staged target, applied to several sources *)
      let into_d' = Hom.exists_onto (Hom.target d') in
      Hom.exists d d' = (homs <> [])
      && into_d' d = (homs <> [])
      && into_d' d'
      && into_d' d = (homs <> [])
      && (match Hom.find d d' with
         | Some h -> Hom.is_hom h d d'
         | None -> homs = [])
      && Hom.count d d' = List.length homs
      && List.length !found = List.length homs
      && List.for_all (fun h -> List.exists (same_valuation h) homs) !found
      && Ordering.cwa_leq d d' = onto
      && Ordering.cwa_leq_b d d' = (if onto then `True else `False)
      && Hom.exists_b d d' = (if homs <> [] then `True else `False)
      && budgeted)

(* {1 Generalized databases} *)

(* Labels a (one datum) and b (two data); data from constants 1, 2 and
   a pool of two nulls; one binary σ-relation E. *)
let random_gdb st =
  let n = 1 + Random.State.int st 3 in
  let value () =
    if Random.State.bool st then Value.null (9101 + Random.State.int st 2)
    else Value.int (1 + Random.State.int st 2)
  in
  let nodes =
    List.init n (fun i ->
        if Random.State.bool st then (i, "a", [ value () ])
        else (i, "b", [ value (); value () ]))
  in
  let edges =
    List.filter_map
      (fun _ ->
        if Random.State.bool st then
          Some [ Random.State.int st n; Random.State.int st n ]
        else None)
      (List.init 3 Fun.id)
  in
  Gdb.make ~nodes ~tuples:[ ("E", edges) ]

let data_values g =
  List.fold_left
    (fun acc v ->
      Array.fold_left (fun acc x -> Value.Set.add x acc) acc (Gdb.data g v))
    Value.Set.empty (Gdb.nodes g)

let brute_ghoms ?(restrict = Domains.unconstrained) g g' =
  List.concat_map
    (fun nm ->
      let node_map = Int_map.of_seq (List.to_seq nm) in
      if not (List.for_all (fun (v, w) -> Domains.mem restrict v w) nm) then []
      else
        List.filter_map
          (fun a ->
            let h = { Ghom.node_map; valuation = Valuation.of_list a } in
            if Ghom.is_hom h g g' then Some h else None)
          (assignments
             (Value.Set.elements (Gdb.nulls g))
             (Value.Set.elements (data_values g'))))
    (assignments (Gdb.nodes g) (Gdb.nodes g'))

let same_ghom (h : Ghom.t) (h' : Ghom.t) =
  Int_map.bindings h.node_map = Int_map.bindings h'.node_map
  && same_valuation h.valuation h'.valuation

let mem_ghom h homs = List.exists (same_ghom h) homs

(* the gdm CWA condition: every node and every σ-fact of g' is hit *)
let onto (h : Ghom.t) g g' =
  let image =
    Int_map.fold (fun _ w s -> Int_set.add w s) h.node_map Int_set.empty
  in
  let s = Gdb.structure g and s' = Gdb.structure g' in
  Int_set.subset (Int_set.of_list (Gdb.nodes g')) image
  && List.for_all
       (fun (rel, t') ->
         List.exists
           (fun (rel0, t) ->
             rel0 = rel
             && Array.map (fun v -> Int_map.find v h.node_map) t = t')
           (Certdb_csp.Structure.all_tuples s))
       (Certdb_csp.Structure.all_tuples s')

let prop_gdm =
  QCheck.Test.make ~count:300 ~name:"Ghom agrees with brute force" seed_arb
    (fun s ->
      let st = Random.State.make [| s |] in
      let g = random_gdb st in
      (* a target that contains an image of g two times in three *)
      let image =
        let pick () =
          List.nth
            [ Value.int 1; Value.int 2; Value.null 9102 ]
            (Random.State.int st 3)
        in
        Gdb.apply
          (Valuation.of_list
             [ (Value.null 9101, pick ()); (Value.null 9102, pick ()) ])
          g
      in
      let g' =
        match Random.State.int st 3 with
        | 0 -> random_gdb st
        | 1 -> image
        | _ ->
          let u, _, _ = Gdb.disjoint_union (random_gdb st) image in
          u
      in
      let restrict =
        Domains.of_list
          [
            ( 0,
              Int_set.of_list
                (List.filter (fun _ -> Random.State.bool st) (Gdb.nodes g'))
            );
          ]
      in
      let homs = brute_ghoms g g' in
      let rhoms = brute_ghoms ~restrict g g' in
      let found = ref 0 in
      Ghom.iter ~restrict g g' (fun h ->
          assert (Ghom.is_hom h g g' && mem_ghom h rhoms);
          incr found;
          `Continue);
      Ghom.exists g g' = (homs <> [])
      && Ghom.exists ~restrict g g' = (rhoms <> [])
      && (match Ghom.find ~restrict g g' with
         | Some h -> mem_ghom h rhoms
         | None -> rhoms = [])
      && (match Ghom.find_b ~limits:(Engine.Limits.make ~nodes:2 ()) g g' with
         | Engine.Sat h -> Ghom.is_hom h g g'
         | Engine.Unsat -> homs = []
         | Engine.Unknown r -> r = Engine.Node_budget)
      && !found = List.length rhoms
      && Gcwa.leq g g' = List.exists (fun h -> onto h g g') homs
      && (match Gcwa.find g g' with Some h -> onto h g g' | None -> true))

let () =
  Alcotest.run "hom_encoding"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest [ prop_relational; prop_gdm ] );
    ]
