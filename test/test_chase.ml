(* Tests for the constrained chase (tgds + egds), CQ minimization, and XML
   data exchange (the Prop. 10 loss-of-canonicity phenomenon). *)

open Certdb_values
open Certdb_relational
open Certdb_exchange

let check = Alcotest.(check bool)
let c i = Value.int i
let nx = Value.null 1601
let ny = Value.null 1602
let nz = Value.null 1603

(* --- egds: functional dependency on T: first column determines second --- *)
let fd_egd =
  Constraints.egd
    ~body:(Instance.of_list [ ("T", [ [ nx; ny ]; [ nx; nz ] ]) ])
    ~left:ny ~right:nz

let test_egd_unifies_nulls () =
  let n1 = Value.fresh_null () in
  let d = Instance.of_list [ ("T", [ [ c 1; n1 ]; [ c 1; c 5 ] ]) ] in
  let constraints = Constraints.make ~egds:[ fd_egd ] () in
  check "violated before" false (Constraints.satisfies d constraints);
  let chased = Constraints.chase d constraints in
  check "satisfied after" true (Constraints.satisfies chased constraints);
  Alcotest.(check int) "facts merged" 1 (Instance.cardinal chased);
  check "null resolved to 5" true
    (Instance.mem chased (Instance.fact "T" [ c 1; c 5 ]))

let test_egd_constant_clash () =
  let d = Instance.of_list [ ("T", [ [ c 1; c 4 ]; [ c 1; c 5 ] ]) ] in
  let constraints = Constraints.make ~egds:[ fd_egd ] () in
  check "clash raises" true
    (match Constraints.chase d constraints with
    | exception Constraints.Chase_failure _ -> true
    | _ -> false)

(* --- tgds: every T-endpoint needs a U-tag --- *)
let tag_tgd =
  Constraints.tgd
    ~body:(Instance.of_list [ ("T", [ [ nx; ny ] ]) ])
    ~head:(Instance.of_list [ ("U", [ [ ny; nz ] ]) ])

let test_tgd_fires () =
  let d = Instance.of_list [ ("T", [ [ c 1; c 2 ] ]) ] in
  let constraints = Constraints.make ~tgds:[ tag_tgd ] () in
  check "violated before" false (Constraints.satisfies d constraints);
  let chased = Constraints.chase d constraints in
  check "satisfied after" true (Constraints.satisfies chased constraints);
  (* one U fact with endpoint 2 and an invented null *)
  let us = Instance.tuples chased "U" in
  Alcotest.(check int) "one U fact" 1 (List.length us);
  (match us with
  | [ [| a; b |] ] ->
    check "endpoint" true (Value.equal a (c 2));
    check "invented null" true (Value.is_null b)
  | _ -> Alcotest.fail "unexpected U shape")

let test_tgd_already_satisfied () =
  let d = Instance.of_list [ ("T", [ [ c 1; c 2 ] ]); ("U", [ [ c 2; c 9 ] ]) ] in
  let constraints = Constraints.make ~tgds:[ tag_tgd ] () in
  check "satisfied" true (Constraints.satisfies d constraints);
  check "chase is identity" true
    (Instance.equal (Constraints.chase d constraints) d)

let test_hom_check_terminates_growing_tgd () =
  (* R(x,y) -> R(y,z): under homomorphism-based satisfaction the all-null
     head is satisfied by any R-fact after one round — the standard chase
     terminates where the oblivious chase would not *)
  let grow =
    Constraints.tgd
      ~body:(Instance.of_list [ ("R", [ [ nx; ny ] ]) ])
      ~head:(Instance.of_list [ ("R", [ [ ny; nz ] ]) ])
  in
  let d = Instance.of_list [ ("R", [ [ c 1; c 2 ] ]) ] in
  let constraints = Constraints.make ~tgds:[ grow ] () in
  let chased = Constraints.chase ~max_rounds:10 d constraints in
  check "terminates satisfied" true (Constraints.satisfies chased constraints)

let test_round_limit_guard () =
  (* more violations than allowed rounds: the guard must fire *)
  let constraints = Constraints.make ~tgds:[ tag_tgd ] () in
  let d =
    Instance.of_list
      [ ("T", [ [ c 1; c 2 ]; [ c 3; c 4 ]; [ c 5; c 6 ] ]) ]
  in
  check "round limit enforced" true
    (match Constraints.chase ~max_rounds:1 d constraints with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_exchange_with_target_constraints () =
  (* exchange S(x,y) -> T(x,z),T(z,y); target fd: T's first column is a
     key.  Two source facts sharing x force their invented z's to merge. *)
  let mapping =
    [
      Mapping.relational_rule
        ~body:(Instance.of_list [ ("S", [ [ nx; ny ] ]) ])
        ~head:(Instance.of_list [ ("T", [ [ nx; nz ]; [ nz; ny ] ]) ]);
    ]
  in
  let source = Instance.of_list [ ("S", [ [ c 1; c 2 ]; [ c 1; c 2 ] ]) ] in
  match
    Constraints.universal_solution_with_constraints mapping ~source
      ~target_constraints:(Constraints.make ~egds:[ fd_egd ] ())
  with
  | None -> Alcotest.fail "solution exists"
  | Some solution ->
    check "satisfies fd" true
      (Constraints.satisfies solution (Constraints.make ~egds:[ fd_egd ] ()));
    (* the two invented nulls were identified *)
    Alcotest.(check int) "two facts after merging" 2
      (Instance.cardinal solution)

(* --- CQ minimization --- *)
let test_minimize_redundant_atom () =
  let open Certdb_query in
  let v = Fo.var in
  (* ans(x) :- R(x,y), R(x,z): the second atom is redundant *)
  let q =
    Cq.make ~head:[ "x" ] [ ("R", [ v "x"; v "y" ]); ("R", [ v "x"; v "z" ]) ]
  in
  let m = Cq.minimize q in
  Alcotest.(check int) "one atom" 1 (List.length m.Cq.atoms);
  check "equivalent" true (Cq.equivalent q m)

let test_minimize_keeps_core () =
  let open Certdb_query in
  let v = Fo.var in
  (* path of length 2 with distinct roles: not foldable *)
  let q =
    Cq.make ~head:[ "x"; "z" ]
      [ ("R", [ v "x"; v "y" ]); ("R", [ v "y"; v "z" ]) ]
  in
  let m = Cq.minimize q in
  Alcotest.(check int) "two atoms" 2 (List.length m.Cq.atoms);
  check "equivalent" true (Cq.equivalent q m)

let test_minimize_boolean_triangle_plus_edge () =
  let open Certdb_query in
  let v = Fo.var in
  (* triangle plus a pendant homomorphic edge folds to the triangle *)
  let q =
    Cq.boolean
      [ ("R", [ v "a"; v "b" ]); ("R", [ v "b"; v "c" ]);
        ("R", [ v "c"; v "a" ]); ("R", [ v "p"; v "q" ]) ]
  in
  let m = Cq.minimize q in
  Alcotest.(check int) "three atoms" 3 (List.length m.Cq.atoms);
  check "equivalent" true (Cq.equivalent q m)

(* --- XML exchange --- *)
open Certdb_xml

let test_xml_exchange_solutions () =
  let nb = Value.fresh_null () in
  (* source: doc[ item(v) ]; rule: item(v) -> out[ entry(v) ] *)
  let mapping =
    [
      Xml_exchange.rule
        ~body:(Tree.leaf "item" ~data:[ nb ])
        ~head:(Tree.node "out" [ Tree.leaf "entry" ~data:[ nb ] ]);
    ]
  in
  let source =
    Tree.node "doc" [ Tree.leaf "item" ~data:[ c 1 ]; Tree.leaf "item" ~data:[ c 2 ] ]
  in
  let pieces = Xml_exchange.m_of_d mapping source in
  Alcotest.(check int) "two pieces" 2 (List.length pieces);
  let good =
    Tree.node "out" [ Tree.leaf "entry" ~data:[ c 1 ]; Tree.leaf "entry" ~data:[ c 2 ] ]
  in
  check "merged tree solves" true
    (Xml_exchange.is_solution mapping ~source good);
  let bad = Tree.node "out" [ Tree.leaf "entry" ~data:[ c 1 ] ] in
  check "missing entry is no solution" false
    (Xml_exchange.is_solution mapping ~source bad)

let test_xml_exchange_incomparable_solutions () =
  (* the Prop. 10 shape as an exchange problem: two rules emitting a[b]
     and a[c]; both a[b;c] and d[a[b];a[c]] are solutions, neither maps
     into the other *)
  let mapping =
    [
      Xml_exchange.rule ~body:(Tree.leaf "src")
        ~head:(Tree.node "a" [ Tree.leaf "b" ]);
      Xml_exchange.rule ~body:(Tree.leaf "src")
        ~head:(Tree.node "a" [ Tree.leaf "c" ]);
    ]
  in
  let source = Tree.leaf "src" in
  let s1 = Tree.node "a" [ Tree.leaf "b"; Tree.leaf "c" ] in
  let s2 =
    Tree.node "d"
      [ Tree.node "a" [ Tree.leaf "b" ]; Tree.node "a" [ Tree.leaf "c" ] ]
  in
  check "incomparable solutions exist" true
    (Xml_exchange.incomparable_solutions mapping ~source s1 s2);
  (* and therefore neither is universal against the other *)
  check "s1 not universal" false
    (Xml_exchange.is_universal_vs mapping ~source s1 ~solutions:[ s2 ]);
  check "s2 not universal" false
    (Xml_exchange.is_universal_vs mapping ~source s2 ~solutions:[ s1 ])

(* every rule of a [satisfies] call or of one chase round reads the
   instance through one prepared hom target *)
let test_one_target_per_round () =
  let targets = Certdb_obs.Obs.counter "relational.hom.targets" in
  let built f =
    let v0 = Certdb_obs.Obs.counter_value targets in
    let r = f () in
    (r, Certdb_obs.Obs.counter_value targets - v0)
  in
  let n1 = Value.fresh_null () in
  let d = Instance.of_list [ ("T", [ [ c 1; c 2 ]; [ c 1; n1 ] ]) ] in
  let constraints = Constraints.make ~tgds:[ tag_tgd ] ~egds:[ fd_egd ] () in
  (* round 1 unifies n1 with 2, round 2 adds U(2,_), round 3 finds none *)
  let chased, n = built (fun () -> Constraints.chase d constraints) in
  Alcotest.(check int) "one target per chase round" 3 n;
  let ok, n = built (fun () -> Constraints.satisfies chased constraints) in
  check "chased instance satisfies" true ok;
  Alcotest.(check int) "one target per satisfies" 1 n

let () =
  Alcotest.run "chase"
    [
      ( "egds",
        [
          Alcotest.test_case "unify nulls" `Quick test_egd_unifies_nulls;
          Alcotest.test_case "constant clash" `Quick test_egd_constant_clash;
        ] );
      ( "tgds",
        [
          Alcotest.test_case "fires" `Quick test_tgd_fires;
          Alcotest.test_case "already satisfied" `Quick test_tgd_already_satisfied;
          Alcotest.test_case "growing tgd terminates" `Quick
            test_hom_check_terminates_growing_tgd;
          Alcotest.test_case "round limit" `Quick test_round_limit_guard;
          Alcotest.test_case "one target per round" `Quick
            test_one_target_per_round;
          Alcotest.test_case "exchange + constraints" `Quick
            test_exchange_with_target_constraints;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "redundant atom" `Quick test_minimize_redundant_atom;
          Alcotest.test_case "core kept" `Quick test_minimize_keeps_core;
          Alcotest.test_case "triangle + edge" `Quick
            test_minimize_boolean_triangle_plus_edge;
        ] );
      ( "xml-exchange",
        [
          Alcotest.test_case "solutions" `Quick test_xml_exchange_solutions;
          Alcotest.test_case "incomparable solutions" `Quick
            test_xml_exchange_incomparable_solutions;
        ] );
    ]
