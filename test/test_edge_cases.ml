(* Edge-case tests: empty inputs, arity conflicts, degenerate structures,
   counting functions, decomposition reuse, classifier corners. *)

open Certdb_values
open Certdb_csp
open Certdb_relational

let check = Alcotest.(check bool)
let c i = Value.int i
let n1 = Value.null 1801
let n2 = Value.null 1802

(* --- schema --- *)
let test_schema_conflicts () =
  Alcotest.check_raises "redeclared arity"
    (Invalid_argument "Schema.add: R redeclared with arity 3 (was 2)")
    (fun () -> ignore (Schema.of_list [ ("R", 2); ("R", 3) ]));
  let s1 = Schema.of_list [ ("R", 2) ] and s2 = Schema.of_list [ ("S", 1) ] in
  Alcotest.(check int) "union size" 2
    (List.length (Schema.relations (Schema.union s1 s2)));
  check "conforms" true (Schema.conforms s1 ~rel:"R" ~arity:2);
  check "wrong arity" false (Schema.conforms s1 ~rel:"R" ~arity:1);
  check "unknown" false (Schema.conforms s1 ~rel:"T" ~arity:2)

let test_instance_schema_inference () =
  let d = Instance.of_list [ ("R", [ [ c 1; c 2 ] ]); ("S", [ [ c 1 ] ]) ] in
  let s = Instance.schema d in
  check "R/2" true (Schema.arity s "R" = Some 2);
  check "S/1" true (Schema.arity s "S" = Some 1);
  let bad = Instance.of_list [ ("R", [ [ c 1 ]; [ c 1; c 2 ] ]) ] in
  Alcotest.check_raises "mixed arities"
    (Invalid_argument "Schema.add: R redeclared with arity 2 (was 1)")
    (fun () -> ignore (Instance.schema bad))

(* --- empty instances --- *)
let test_empty_instances () =
  check "empty leq empty" true (Ordering.leq Instance.empty Instance.empty);
  check "empty cwa empty" true (Ordering.cwa_leq Instance.empty Instance.empty);
  check "empty is complete" true (Instance.is_complete Instance.empty);
  check "empty is codd" true (Codd.is_codd Instance.empty);
  check "empty core" true
    (Instance.is_empty (Core_instance.core Instance.empty));
  let d = Instance.of_list [ ("R", [ [ c 1 ] ]) ] in
  let g = Glb.glb Instance.empty d in
  check "glb with empty is empty" true (Instance.is_empty g)

(* --- zero-ary facts --- *)
let test_zero_ary () =
  let d = Instance.of_list [ ("Flag", [ [] ]) ] in
  check "mem 0-ary" true (Instance.mem d (Instance.fact "Flag" []));
  check "complete" true (Instance.is_complete d);
  check "self hom" true (Ordering.leq d d);
  let d2 = Instance.of_list [ ("Flag", [ [] ]); ("R", [ [ n1 ] ]) ] in
  check "0-ary preserved in glb" true
    (Instance.mem (Glb.glb d2 d2) (Instance.fact "Flag" []))

(* --- hom counting --- *)
let test_hom_count () =
  let d = Instance.of_list [ ("R", [ [ n1 ] ]) ] in
  let d' = Instance.of_list [ ("R", [ [ c 1 ]; [ c 2 ]; [ c 3 ] ]) ] in
  Alcotest.(check int) "three homs" 3 (Hom.count d d');
  let coupled = Instance.of_list [ ("R", [ [ n1 ] ]); ("S", [ [ n1 ] ]) ] in
  let target =
    Instance.of_list [ ("R", [ [ c 1 ]; [ c 2 ] ]); ("S", [ [ c 1 ] ]) ]
  in
  Alcotest.(check int) "coupling restricts" 1 (Hom.count coupled target)

let test_hom_no_facts_for_relation () =
  let d = Instance.of_list [ ("R", [ [ c 1 ] ]) ] in
  let d' = Instance.of_list [ ("S", [ [ c 1 ] ]) ] in
  check "different relations" false (Ordering.leq d d')

(* --- structure / solver corners --- *)
let test_structure_add_tuple_unknown_node () =
  (* tuple nodes are registered implicitly: no pre-declaration needed *)
  let s = Structure.make ~nodes:[ (0, None) ] ~tuples:[] in
  let s = Structure.add_tuple s "E" [| 0; 1 |] in
  check "node auto-registered" true
    (List.mem 1 (Structure.nodes s));
  check "tuple present" true (Structure.mem_tuple s "E" [| 0; 1 |]);
  check "fresh node unlabeled" true (Structure.label_of s 1 = None)

let test_solver_empty_source () =
  let t = Structure.make ~nodes:[ (0, None) ] ~tuples:[] in
  check "empty source has hom" true
    (Solver.exists_hom ~source:Structure.empty ~target:t ());
  check "empty target blocks nonempty source" false
    (Solver.exists_hom ~source:t ~target:Structure.empty ())

let test_solver_self_loop () =
  let loop =
    Structure.make ~nodes:[ (0, None) ] ~tuples:[ ("E", [ [| 0; 0 |] ]) ]
  in
  let open Certdb_graph in
  check "everything maps to a loop" true
    (Solver.exists_hom
       ~source:(Digraph.to_structure (Digraph.clique 3))
       ~target:loop ());
  check "loop only maps to loopy" false
    (Solver.exists_hom ~source:loop
       ~target:(Digraph.to_structure (Digraph.cycle 2))
       ())

let test_treewidth_explicit_order () =
  let open Certdb_graph in
  let g = Digraph.to_structure (Digraph.cycle 4) in
  let d1 = Treewidth.of_elimination_order g [ 0; 1; 2; 3 ] in
  check "explicit order valid" true (Treewidth.is_valid g d1);
  check "width at least 2" true (Treewidth.width d1 >= 2);
  let empty = Treewidth.of_elimination_order Structure.empty [] in
  Alcotest.(check int) "empty decomposition width" (-1) (Treewidth.width empty)

let test_bounded_tw_single_node () =
  let s = Structure.make ~nodes:[ (0, Some "a") ] ~tuples:[] in
  let t = Structure.make ~nodes:[ (5, Some "a"); (6, Some "b") ] ~tuples:[] in
  let btw target =
    Decider.btw.satisfiable Engine.Config.default s target = Engine.Sat ()
  in
  check "single node maps" true (btw t);
  let t_wrong = Structure.make ~nodes:[ (5, Some "b") ] ~tuples:[] in
  check "label blocks" false (btw t_wrong)

(* --- gdm corners --- *)
let test_gdb_errors () =
  let open Certdb_gdm in
  let db = Gdb.make ~nodes:[ (0, "a", [ c 1 ]) ] ~tuples:[] in
  Alcotest.check_raises "duplicate node"
    (Invalid_argument "Gdb.add_node: node exists") (fun () ->
      ignore (Gdb.add_node db ~node:0 ~label:"b" ~data:[]));
  Alcotest.check_raises "missing node data"
    (Invalid_argument "Gdb.data: missing node") (fun () ->
      ignore (Gdb.data db 42))

let test_gdb_map_nodes_merge_guard () =
  let open Certdb_gdm in
  let db =
    Gdb.make ~nodes:[ (0, "a", [ c 1 ]); (1, "a", [ c 2 ]) ] ~tuples:[]
  in
  Alcotest.check_raises "conflicting data merge"
    (Invalid_argument "Gdb.map_nodes: merged nodes with different data")
    (fun () -> ignore (Gdb.map_nodes db (fun _ -> 0)));
  let db_same =
    Gdb.make ~nodes:[ (0, "a", [ c 1 ]); (1, "a", [ c 1 ]) ] ~tuples:[]
  in
  Alcotest.(check int) "legal merge" 1
    (Gdb.size (Gdb.map_nodes db_same (fun _ -> 0)))

let test_logic_eqattr_out_of_range () =
  let open Certdb_gdm in
  let db = Gdb.make ~nodes:[ (0, "a", [ c 1 ]) ] ~tuples:[] in
  check "index 2 on arity 1 is false" false
    (Logic.holds db (Logic.Exists ([ "x" ], Logic.EqAttr (2, "x", 2, "x"))));
  check "index 1 reflexive" true
    (Logic.holds db (Logic.Exists ([ "x" ], Logic.EqAttr (1, "x", 1, "x"))))

let test_gschema_duplicates () =
  let open Certdb_gdm in
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Gschema.make: duplicate label") (fun () ->
      ignore (Gschema.make ~alphabet:[ ("a", 1); ("a", 2) ] ~sigma:[]))

(* --- valuation laws --- *)
let test_valuation_compose_identity () =
  let h = Valuation.bind Valuation.empty n1 (c 3) in
  let composed = Valuation.compose Valuation.empty h in
  check "left identity-ish" true
    (Value.equal (Valuation.apply composed n1) (c 3));
  let composed2 = Valuation.compose h Valuation.empty in
  check "right identity" true
    (Value.equal (Valuation.apply composed2 n1) (c 3))

let test_valuation_compose_chain () =
  let f = Valuation.bind Valuation.empty n1 n2 in
  let g = Valuation.bind Valuation.empty n2 (c 9) in
  let fg = Valuation.compose f g in
  check "f;g on n1" true (Value.equal (Valuation.apply fg n1) (c 9));
  (* compose is not commutative *)
  let gf = Valuation.compose g f in
  check "g;f on n1" true (Value.equal (Valuation.apply gf n1) n2)

(* --- ordering corner: instances equivalent but not equal --- *)
let test_equiv_not_equal () =
  let d1 = Instance.of_list [ ("R", [ [ n1 ] ]) ] in
  let d2 = Instance.of_list [ ("R", [ [ n2 ] ]) ] in
  check "not structurally equal" false (Instance.equal d1 d2);
  check "equivalent" true (Ordering.equiv d1 d2)

(* --- exchange corners --- *)
let test_mapping_no_triggers () =
  let open Certdb_exchange in
  let rule =
    Mapping.relational_rule
      ~body:(Instance.of_list [ ("S", [ [ n1 ] ]) ])
      ~head:(Instance.of_list [ ("T", [ [ n1 ] ]) ])
  in
  let empty_source = Certdb_gdm.Encode.of_instance Instance.empty in
  check "no triggers on empty source" true
    (Mapping.m_of_d [ rule ] empty_source = []);
  check "empty is a solution then" true
    (Solution.is_solution [ rule ] ~source:empty_source Certdb_gdm.Gdb.empty)

let test_chase_relational_preserves_source_nulls_linkage () =
  let open Certdb_exchange in
  let shared = Value.fresh_null () in
  let rule =
    Mapping.relational_rule
      ~body:(Instance.of_list [ ("S", [ [ n1; n2 ] ]) ])
      ~head:(Instance.of_list [ ("T", [ [ n2; n1 ] ]) ])
  in
  let source = Instance.of_list [ ("S", [ [ shared; c 2 ]; [ c 3; shared ] ]) ] in
  let out = Universal.chase_relational [ rule ] source in
  (* the source null flows into both target facts in swapped positions *)
  let tuples = Instance.tuples out "T" in
  Alcotest.(check int) "two target facts" 2 (List.length tuples);
  let target_nulls = Instance.nulls out in
  Alcotest.(check int) "single source null in target" 1
    (Value.Set.cardinal target_nulls);
  check "it is the shared one" true (Value.Set.mem shared target_nulls)

(* --- graph corner --- *)
let test_graph_empty () =
  let open Certdb_graph in
  check "empty graph hom" true (Graph_hom.leq Digraph.empty Digraph.empty);
  check "empty into anything" true
    (Graph_hom.leq Digraph.empty (Digraph.cycle 3));
  Alcotest.(check int) "core of empty" 0
    (Digraph.size (Graph_core.core Digraph.empty))

let () =
  Alcotest.run "edge-cases"
    [
      ( "schema",
        [
          Alcotest.test_case "conflicts" `Quick test_schema_conflicts;
          Alcotest.test_case "inference" `Quick test_instance_schema_inference;
        ] );
      ( "instances",
        [
          Alcotest.test_case "empty" `Quick test_empty_instances;
          Alcotest.test_case "zero-ary" `Quick test_zero_ary;
          Alcotest.test_case "equiv not equal" `Quick test_equiv_not_equal;
        ] );
      ( "homs",
        [
          Alcotest.test_case "count" `Quick test_hom_count;
          Alcotest.test_case "relation mismatch" `Quick
            test_hom_no_facts_for_relation;
        ] );
      ( "csp",
        [
          Alcotest.test_case "implicit nodes" `Quick test_structure_add_tuple_unknown_node;
          Alcotest.test_case "empty source" `Quick test_solver_empty_source;
          Alcotest.test_case "self loop" `Quick test_solver_self_loop;
          Alcotest.test_case "explicit order" `Quick test_treewidth_explicit_order;
          Alcotest.test_case "single node dp" `Quick test_bounded_tw_single_node;
        ] );
      ( "gdm",
        [
          Alcotest.test_case "gdb errors" `Quick test_gdb_errors;
          Alcotest.test_case "merge guard" `Quick test_gdb_map_nodes_merge_guard;
          Alcotest.test_case "eqattr range" `Quick test_logic_eqattr_out_of_range;
          Alcotest.test_case "gschema dupes" `Quick test_gschema_duplicates;
        ] );
      ( "valuations",
        [
          Alcotest.test_case "compose identity" `Quick
            test_valuation_compose_identity;
          Alcotest.test_case "compose chain" `Quick test_valuation_compose_chain;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "no triggers" `Quick test_mapping_no_triggers;
          Alcotest.test_case "source nulls flow" `Quick
            test_chase_relational_preserves_source_nulls_linkage;
        ] );
      ( "graph",
        [ Alcotest.test_case "empty graph" `Quick test_graph_empty ] );
    ]
