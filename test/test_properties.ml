(* Property-based tests (qcheck) for the core invariants of the library:
   preorder laws, glb/lub universal properties, core and retraction laws,
   semantics monotonicity — each on randomly generated instances, trees and
   graphs driven by integer seeds (cheap shrinking, reproducible). *)

open Certdb_values
open Certdb_relational

let count = 60

(* generators: seeds mapped through the library's random builders *)
let seed_arb = QCheck.int_range 0 10_000

let naive_of_seed ?(facts = 3) ?(null_prob = 0.4) seed =
  Codd.random_naive ~seed ~schema:[ ("R", 2); ("S", 1) ] ~facts ~null_prob
    ~domain:2 ~null_pool:2 ()

let codd_of_seed seed =
  Codd.random ~seed ~schema:[ ("R", 2) ] ~facts:3 ~null_prob:0.4 ~domain:3 ()

let tree_of_seed seed =
  let t =
    Certdb_xml.Tree.random ~seed
      ~labels:[ ("r", 0); ("a", 1); ("b", 1) ]
      ~max_depth:3 ~max_children:2 ~null_prob:0.3 ~domain:2 ()
  in
  { t with Certdb_xml.Tree.label = "r"; data = [||] }

let graph_of_seed seed =
  Certdb_graph.Digraph.random ~seed ~vertices:4 ~edge_prob:0.4 ()

let mk name arb prop = QCheck.Test.make ~count ~name arb prop

(* --- relational preorder laws --- *)

let prop_leq_reflexive =
  mk "leq reflexive" seed_arb (fun s -> Ordering.leq (naive_of_seed s) (naive_of_seed s))

let prop_leq_transitive =
  mk "leq transitive"
    QCheck.(triple seed_arb seed_arb seed_arb)
    (fun (a, b, c) ->
      let da = naive_of_seed a
      and db = naive_of_seed b
      and dc = naive_of_seed c in
      (not (Ordering.leq da db && Ordering.leq db dc)) || Ordering.leq da dc)

let prop_cwa_implies_owa =
  mk "cwa implies owa"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = naive_of_seed a and db = naive_of_seed b in
      (not (Ordering.cwa_leq da db)) || Ordering.leq da db)

let prop_leq_implies_hoare =
  mk "leq implies hoare"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = naive_of_seed a and db = naive_of_seed b in
      (not (Ordering.leq da db)) || Ordering.hoare_leq da db)

let prop_codd_hoare_equals_leq =
  mk "on codd tables hoare = leq"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = codd_of_seed a and db = codd_of_seed b in
      Ordering.hoare_leq da db = Ordering.leq da db)

(* --- semantics --- *)

let prop_valuation_image_above =
  mk "d leq h(d) for any valuation" seed_arb (fun s ->
      let d = naive_of_seed s in
      let h =
        Valuation.grounding_of_nulls ~avoid:(Instance.constants d)
          (Instance.nulls d)
      in
      Ordering.leq d (Instance.apply h d))

let prop_ground_in_semantics =
  mk "ground d in [[d]]" seed_arb (fun s ->
      let d = naive_of_seed s in
      Semantics.mem (Instance.ground d) d)

let prop_pi_cpl_below =
  mk "pi_cpl d leq d" seed_arb (fun s ->
      let d = naive_of_seed s in
      Ordering.leq (Instance.pi_cpl d) d)

let prop_pi_cpl_idempotent =
  mk "pi_cpl idempotent" seed_arb (fun s ->
      let d = naive_of_seed s in
      Instance.equal (Instance.pi_cpl (Instance.pi_cpl d)) (Instance.pi_cpl d))

let prop_rename_apart_equiv =
  mk "rename_apart preserves ~" seed_arb (fun s ->
      let d = naive_of_seed s in
      let d', _ = Instance.rename_apart ~avoid:(Instance.nulls d) d in
      Ordering.equiv d d')

(* --- glb / lub --- *)

let prop_glb_lower_bound =
  mk "glb is a lower bound"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = naive_of_seed a and db = naive_of_seed b in
      let g = Glb.glb da db in
      Ordering.leq g da && Ordering.leq g db)

let prop_glb_greatest =
  mk "lower bounds factor through the glb"
    QCheck.(triple seed_arb seed_arb seed_arb)
    (fun (a, b, c) ->
      let da = naive_of_seed a
      and db = naive_of_seed b
      and dc = naive_of_seed c in
      (not (Ordering.leq dc da && Ordering.leq dc db))
      || Ordering.leq dc (Glb.glb da db))

let prop_lub_upper_bound =
  mk "lub is an upper bound"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = naive_of_seed a and db = naive_of_seed b in
      let u = Lub.pair da db in
      Ordering.leq da u && Ordering.leq db u)

let prop_lub_least =
  mk "upper bounds dominate the lub"
    QCheck.(triple seed_arb seed_arb seed_arb)
    (fun (a, b, c) ->
      let da = naive_of_seed a
      and db = naive_of_seed b
      and dc = naive_of_seed c in
      (not (Ordering.leq da dc && Ordering.leq db dc))
      || Ordering.leq (Lub.pair da db) dc)

let prop_glb_commutes =
  mk "glb commutative up to ~"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = naive_of_seed a and db = naive_of_seed b in
      Ordering.equiv (Glb.glb da db) (Glb.glb db da))

let prop_glb_associative =
  mk "glb associative up to ~"
    QCheck.(triple seed_arb seed_arb seed_arb)
    (fun (a, b, c) ->
      let da = naive_of_seed a
      and db = naive_of_seed b
      and dc = naive_of_seed c in
      Ordering.equiv
        (Glb.glb (Glb.glb da db) dc)
        (Glb.glb da (Glb.glb db dc)))

let prop_glb_idempotent =
  mk "glb idempotent up to ~" seed_arb (fun s ->
      let d = naive_of_seed s in
      Ordering.equiv (Glb.glb d d) d)

let prop_lub_idempotent =
  mk "lub idempotent up to ~" seed_arb (fun s ->
      let d = naive_of_seed s in
      Ordering.equiv (Lub.pair d d) d)

(* --- cores --- *)

let prop_core_equiv =
  mk "core ~ original" seed_arb (fun s ->
      let d = naive_of_seed s in
      Ordering.equiv (Core_instance.core d) d)

let prop_core_idempotent =
  mk "core idempotent" seed_arb (fun s ->
      let d = naive_of_seed s in
      let c1 = Core_instance.core d in
      Instance.cardinal (Core_instance.core c1) = Instance.cardinal c1)

let prop_core_no_smaller_equivalent =
  mk "core is minimal among sampled equivalents"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = naive_of_seed a and db = naive_of_seed b in
      (not (Ordering.equiv da db))
      || Instance.cardinal (Core_instance.core da)
         = Instance.cardinal (Core_instance.core db))

(* [Core_instance.core_b] against a fact-drop oracle: the oracle freezes
   the fixed nulls to fresh constants and drops facts one at a time while
   [d → d − {f}] holds.  On random instances with nulls, constants of
   both kinds, repeated atoms and 0-ary facts, the core must be a
   subinstance hom-equivalent to [d] (fixed nulls pinned), no fact of it
   may be droppable, it must keep every fixed null, and it must have the
   oracle's cardinality. *)
let gen_core_case =
  QCheck.Gen.(
    let value =
      frequency
        [
          (2, map Value.int (int_range 1 2));
          (2, map (fun i -> Value.str (string_of_int i)) (int_range 1 2));
          (5, map (fun i -> Value.null (900 + i)) (int_range 0 4));
        ]
    in
    let fact =
      frequency
        [
          (6, map2 (fun a b -> ("R", [ a; b ])) value value);
          (2, map (fun a -> ("S", [ a ])) value);
          (1, map3 (fun a b c -> ("T", [ a; b; c ])) value value value);
          (1, return ("Z", []));
        ]
    in
    list_size (int_range 1 7) fact >>= fun facts ->
    (* repeated atoms *)
    list_size (int_range 0 2) (oneofl facts) >>= fun dups ->
    list_size (int_range 0 2) (map (fun i -> Value.null (900 + i)) (int_range 0 4))
    >|= fun fixed ->
    ( List.fold_left
        (fun d (rel, args) -> Instance.add_fact d rel args)
        Instance.empty (facts @ dups),
      Value.Set.of_list fixed ))

let prop_core_b_oracle =
  QCheck.Test.make ~count:300 ~name:"core_b matches the fact-drop oracle"
    (QCheck.make
       ~print:(fun (d, fixed) ->
         Printf.sprintf "%s  fixed %s" (Parse.to_string d)
           (String.concat "," (List.map Value.to_string (Value.Set.elements fixed))))
       gen_core_case)
    (fun (d, fixed) ->
      let pin =
        Value.Set.fold
          (fun v h -> Valuation.bind h v (Value.fresh_const ()))
          fixed Valuation.empty
      in
      let frozen d = Instance.apply pin d in
      let rec drop d =
        match
          List.find_map
            (fun f ->
              Hom.find d
                (Instance.filter (fun g -> Instance.compare_fact f g <> 0) d))
            (Instance.facts d)
        with
        | Some h -> drop (Instance.apply h d)
        | None -> d
      in
      let oracle = drop (frozen d) in
      match Core_instance.core_b ~fixed d with
      | Certdb_csp.Engine.Sat c ->
        let fc = frozen c in
        List.for_all (Instance.mem d) (Instance.facts c)
        && Hom.exists (frozen d) fc
        && Hom.exists fc (frozen d)
        && List.for_all
             (fun f ->
               not
                 (Hom.exists fc
                    (Instance.filter (fun g -> Instance.compare_fact f g <> 0) fc)))
             (Instance.facts fc)
        && Value.Set.subset
             (Value.Set.inter fixed (Instance.nulls d))
             (Instance.nulls c)
        && Instance.cardinal c = Instance.cardinal oracle
      | _ -> false)

(* The per-null core, kept as an oracle for the one-search core: one hom
   test per null [v] of [d] asks for an endomorphism whose image avoids
   [v] (a restriction takes [v] out of every movable node's candidates);
   on [Sat h] the instance retracts to [h(d)] and is encoded afresh.
   Nulls in [fixed] are pinned and never tested. *)
let core_per_null ?(fixed = Value.Set.empty) d =
  let module Engine = Certdb_csp.Engine in
  let module Domains = Certdb_csp.Domains in
  let module Int_set = Certdb_csp.Structure.Int_set in
  let rec round d todo =
    let e = Hom.encode_endo ~fixed d in
    let values = e.Hom.tgt_values in
    let nodes = Int_set.of_list (List.init (Array.length values) Fun.id) in
    let rec test = function
      | [] -> d
      | v :: rest -> (
        match Array.find_index (Value.equal v) values with
        | None -> test rest
        | Some j -> (
          let restrict =
            Domains.of_list
              (List.init (Array.length values) (fun i ->
                   match Domains.find e.Hom.restrict i with
                   | Some pin -> (i, pin)
                   | None -> (i, Int_set.remove j nodes)))
          in
          match
            Engine.solve ~config:(Engine.Config.make ~restrict ())
              ~source:e.Hom.source ~target:e.Hom.target ()
          with
          | Engine.Sat h -> round (Instance.apply (Hom.valuation e h) d) rest
          | Engine.Unsat -> test rest
          | Engine.Unknown _ -> assert false))
    in
    test todo
  in
  round d (Value.Set.elements (Value.Set.diff (Instance.nulls d) fixed))

(* random instances with fixed nulls (as [prop_core_b_oracle] draws
   them), and bidirectional cliques of 2 to 5 nulls with extra atoms over
   the same nulls, constants and fixed nulls *)
let gen_core_cliques =
  QCheck.Gen.(
    int_range 2 5 >>= fun k ->
    let null i = Value.null (950 + i) in
    let value =
      frequency
        [
          (1, map Value.int (int_range 1 2));
          (4, map null (int_range 0 (k + 1)));
        ]
    in
    list_size (int_range 0 3) (map2 (fun a b -> ("E", [ a; b ])) value value)
    >>= fun extra ->
    list_size (int_range 0 2) (map null (int_range 0 (k + 1))) >|= fun fixed ->
    let clique =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b -> if a <> b then Some ("E", [ null a; null b ]) else None)
            (List.init k Fun.id))
        (List.init k Fun.id)
    in
    ( List.fold_left
        (fun d (rel, args) -> Instance.add_fact d rel args)
        Instance.empty (clique @ extra),
      Value.Set.of_list fixed ))

let prop_core_one_search =
  QCheck.Test.make ~count:400
    ~name:"the one-search core matches the per-null oracle"
    (QCheck.make
       ~print:(fun (d, fixed) ->
         Printf.sprintf "%s  fixed %s" (Parse.to_string d)
           (String.concat "," (List.map Value.to_string (Value.Set.elements fixed))))
       QCheck.Gen.(frequency [ (1, gen_core_case); (1, gen_core_cliques) ]))
    (fun (d, fixed) ->
      let pin =
        Value.Set.fold
          (fun v h -> Valuation.bind h v (Value.fresh_const ()))
          fixed Valuation.empty
      in
      let frozen d = Instance.apply pin d in
      let oracle = core_per_null ~fixed d in
      match Core_instance.core_b ~fixed d with
      | Certdb_csp.Engine.Sat c ->
        Instance.cardinal c = Instance.cardinal oracle
        && Ordering.equiv (frozen c) (frozen oracle)
        && Ordering.equiv (frozen c) (frozen d)
        && Value.Set.subset
             (Value.Set.inter fixed (Instance.nulls d))
             (Instance.nulls c)
      | _ -> false)

(* --- graphs --- *)

let prop_graph_product_universal =
  mk "graph product universal property"
    QCheck.(triple seed_arb seed_arb seed_arb)
    (fun (a, b, c) ->
      let open Certdb_graph in
      let ga = graph_of_seed a
      and gb = graph_of_seed b
      and gc = graph_of_seed c in
      Graph_hom.leq gc (Digraph.product ga gb)
      = (Graph_hom.leq gc ga && Graph_hom.leq gc gb))

let prop_graph_core_equiv =
  mk "graph core ~ original" seed_arb (fun s ->
      let open Certdb_graph in
      let g = graph_of_seed s in
      Graph_hom.equiv g (Graph_core.core g))

let prop_chromatic_monotone =
  mk "chromatic number monotone along hom order"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let open Certdb_graph in
      let ga = graph_of_seed a and gb = graph_of_seed b in
      Graph_props.monotone_antimonotone_witness ga gb)

(* --- trees --- *)

let prop_tree_leq_reflexive =
  mk "tree leq reflexive" seed_arb (fun s ->
      let t = tree_of_seed s in
      Certdb_xml.Tree_hom.leq t t)

let prop_tree_glb_lower_bound =
  mk "tree glb lower bound"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let t1 = tree_of_seed a and t2 = tree_of_seed b in
      match Certdb_xml.Tree_glb.glb t1 t2 with
      | None -> false (* same root label: must exist *)
      | Some g ->
        Certdb_xml.Tree_hom.leq g t1 && Certdb_xml.Tree_hom.leq g t2)

let prop_tree_ground_member =
  mk "tree grounding is a completion" seed_arb (fun s ->
      let t = tree_of_seed s in
      Certdb_xml.Tree_hom.mem (Certdb_xml.Tree.ground t) t)

(* --- gdm --- *)

let prop_gdm_coding_preserves_order =
  mk "gdm coding preserves leq"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = naive_of_seed a and db = naive_of_seed b in
      Ordering.leq da db
      = Certdb_gdm.Gordering.leq
          (Certdb_gdm.Encode.of_instance da)
          (Certdb_gdm.Encode.of_instance db))

let prop_gdm_glb_lower_bound =
  mk "gdm glb lower bound"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let da = Certdb_gdm.Encode.of_instance (naive_of_seed a) in
      let db = Certdb_gdm.Encode.of_instance (naive_of_seed b) in
      let g = Certdb_gdm.Gglb.glb_sigma da db in
      Certdb_gdm.Gordering.leq g da && Certdb_gdm.Gordering.leq g db)

(* --- c-tables --- *)

let prop_ctable_select_strong =
  mk "ctable selection commutes with grounding" seed_arb (fun s ->
      let d = naive_of_seed ~facts:2 s in
      let t = Ctable.of_instance_relation d "R" in
      if Ctable.arity t < 2 then true
      else
        let selected = Ctable.select_eq_col 0 1 t in
        List.for_all
          (fun h ->
            let lhs = List.sort compare (Ctable.ground h selected) in
            let rhs =
              List.sort compare
                (List.filter
                   (fun tu -> Value.equal tu.(0) tu.(1))
                   (Ctable.ground h t))
            in
            lhs = rhs)
          (Ctable.sample_valuations t))

let prop_ctable_difference_strong =
  mk "ctable difference commutes with grounding"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let t1 = Ctable.of_instance_relation (naive_of_seed ~facts:2 a) "R" in
      let t2 = Ctable.of_instance_relation (naive_of_seed ~facts:2 b) "R" in
      if Ctable.arity t1 <> Ctable.arity t2 || Ctable.arity t1 = 0 then true
      else
        let diff = Ctable.difference t1 t2 in
        List.for_all
          (fun h ->
            let lhs = List.sort compare (Ctable.ground h diff) in
            let w2 = Ctable.ground h t2 in
            let rhs =
              List.sort compare
                (List.filter
                   (fun tu -> not (List.mem tu w2))
                   (Ctable.ground h t1))
            in
            lhs = rhs)
          (Ctable.sample_valuations (Ctable.union t1 t2)))

(* --- nested relations --- *)

let nested_of_seed seed =
  Certdb_nested.Nested.of_instance_relation (naive_of_seed seed) "R"

let prop_nested_owa_reflexive =
  mk "nested owa reflexive" seed_arb (fun s ->
      let v = nested_of_seed s in
      Certdb_nested.Nested.leq_owa v v)

let prop_nested_cwa_implies_owa =
  mk "nested cwa implies owa"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let va = nested_of_seed a and vb = nested_of_seed b in
      (not (Certdb_nested.Nested.leq_cwa va vb))
      || Certdb_nested.Nested.leq_owa va vb)

let prop_nested_ground_above =
  mk "nested value below its grounding" seed_arb (fun s ->
      let v = nested_of_seed s in
      Certdb_nested.Nested.leq_owa v (Certdb_nested.Nested.ground v))

let prop_nested_glb_lower_bound =
  mk "nested glb lower bound"
    QCheck.(pair seed_arb seed_arb)
    (fun (a, b) ->
      let va = nested_of_seed a and vb = nested_of_seed b in
      match Certdb_nested.Nested.glb va vb with
      | None -> false
      | Some g ->
        Certdb_nested.Nested.leq_owa g va
        && Certdb_nested.Nested.leq_owa g vb)

(* --- incomplete documents --- *)

let doc_alphabet = [ ("r", 0); ("a", 1); ("b", 1) ]

let doc_of_seed seed =
  let t =
    Certdb_xml.Tree.random ~seed ~labels:doc_alphabet ~max_depth:2
      ~max_children:2 ~null_prob:0.4 ~domain:2 ()
  in
  let base = Certdb_xml.Incomplete_doc.of_tree { t with Certdb_xml.Tree.label = "r"; data = [||] } in
  (* turn the first edge (if any) into a descendant edge *)
  match base.Certdb_xml.Incomplete_doc.edges with
  | (_, c) :: rest ->
    { base with
      Certdb_xml.Incomplete_doc.edges =
        (Certdb_xml.Incomplete_doc.Descendant, c) :: rest }
  | [] -> base

let prop_doc_completions_are_members =
  mk "incomplete-doc completions satisfy the description"
    (QCheck.int_range 0 300) (fun seed ->
      let doc = doc_of_seed seed in
      if Value.Set.cardinal (Certdb_xml.Incomplete_doc.nulls doc) > 3 then true
      else
        List.for_all
          (fun t -> Certdb_xml.Incomplete_doc.member doc t)
          (Certdb_xml.Incomplete_doc.sample_completions ~alphabet:doc_alphabet
             ~chain_bound:2 doc))

let all_props =
  [
    prop_leq_reflexive; prop_leq_transitive; prop_cwa_implies_owa;
    prop_leq_implies_hoare; prop_codd_hoare_equals_leq;
    prop_valuation_image_above; prop_ground_in_semantics; prop_pi_cpl_below;
    prop_pi_cpl_idempotent; prop_rename_apart_equiv; prop_glb_lower_bound;
    prop_glb_greatest; prop_lub_upper_bound; prop_lub_least;
    prop_glb_commutes; prop_glb_associative; prop_glb_idempotent;
    prop_lub_idempotent; prop_core_equiv; prop_core_idempotent;
    prop_core_no_smaller_equivalent; prop_core_b_oracle; prop_core_one_search;
    prop_graph_product_universal;
    prop_graph_core_equiv; prop_chromatic_monotone; prop_tree_leq_reflexive;
    prop_tree_glb_lower_bound; prop_tree_ground_member;
    prop_gdm_coding_preserves_order; prop_gdm_glb_lower_bound;
    prop_ctable_select_strong; prop_ctable_difference_strong;
    prop_nested_owa_reflexive; prop_nested_cwa_implies_owa;
    prop_nested_ground_above; prop_nested_glb_lower_bound;
    prop_doc_completions_are_members;
  ]

let () =
  Alcotest.run "properties"
    [ ("qcheck", List.map QCheck_alcotest.to_alcotest all_props) ]
