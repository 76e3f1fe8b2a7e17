(* Tests for the extension modules: graph parameters (Section 4's
   monotone/antimonotone observation), the Dedekind–MacNeille completion
   (Theorem 3's order-theoretic engine), and certain answers in data
   exchange. *)

open Certdb_values
open Certdb_graph

let check = Alcotest.(check bool)

(* graph parameters *)
let test_chromatic () =
  Alcotest.(check int) "K4" 4 (Graph_props.chromatic_number (Digraph.clique 4));
  Alcotest.(check int) "C5" 3 (Graph_props.chromatic_number (Digraph.cycle 5));
  Alcotest.(check int) "C6" 2 (Graph_props.chromatic_number (Digraph.cycle 6));
  Alcotest.(check int) "P4" 2 (Graph_props.chromatic_number (Digraph.path 4));
  Alcotest.(check int) "empty" 0 (Graph_props.chromatic_number Digraph.empty)

let test_girth () =
  Alcotest.(check (option int)) "C5 girth" (Some 5)
    (Graph_props.girth (Digraph.cycle 5));
  Alcotest.(check (option int)) "C5 odd girth" (Some 5)
    (Graph_props.odd_girth (Digraph.cycle 5));
  Alcotest.(check (option int)) "C6 odd girth" None
    (Graph_props.odd_girth (Digraph.cycle 6));
  Alcotest.(check (option int)) "path girth" None
    (Graph_props.girth (Digraph.path 5));
  check "path acyclic" true (Graph_props.is_acyclic (Digraph.path 5));
  check "cycle not acyclic" false (Graph_props.is_acyclic (Digraph.cycle 3))

let test_longest_path () =
  Alcotest.(check (option int)) "P5" (Some 5)
    (Graph_props.longest_path (Digraph.path 5));
  Alcotest.(check (option int)) "cyclic" None
    (Graph_props.longest_path (Digraph.cycle 4));
  Alcotest.(check (option int)) "tournament" (Some 3)
    (Graph_props.longest_path (Digraph.transitive_tournament 4))

let test_monotone_antimonotone () =
  (* chromatic number monotone, odd girth antimonotone along ⊑ *)
  for seed = 0 to 14 do
    let g = Digraph.random ~seed ~vertices:5 ~edge_prob:0.3 () in
    let g' = Digraph.random ~seed:(seed + 70) ~vertices:5 ~edge_prob:0.4 () in
    check
      (Printf.sprintf "seed %d" seed)
      true
      (Graph_props.monotone_antimonotone_witness g g')
  done;
  (* concrete: C5 ⊑ C3 (odd cycles map to shorter odd cycles? C5 → C3
     exists since 5 ≥ 3 odd walk... verify explicitly) *)
  if Graph_hom.leq (Digraph.cycle 5) (Digraph.cycle 3) then
    check "C5 vs C3 parameters" true
      (Graph_props.monotone_antimonotone_witness (Digraph.cycle 5) (Digraph.cycle 3))

(* Dedekind–MacNeille completion *)
let test_completion_chain () =
  (* a 3-chain completes to itself (already a lattice) *)
  let c = Certdb_order.Completion.make ~size:3 ~leq:(fun x y -> x <= y) in
  Alcotest.(check int) "chain cuts" 3 (Certdb_order.Completion.cardinal c);
  check "lattice" true (Certdb_order.Completion.is_lattice c);
  check "order preserved" true
    (Certdb_order.Completion.embedding_preserves_order c
       ~leq:(fun x y -> x <= y))

let test_completion_antichain () =
  (* a 2-antichain gains bottom and top: 4 cuts *)
  let c = Certdb_order.Completion.make ~size:2 ~leq:(fun x y -> x = y) in
  Alcotest.(check int) "antichain cuts" 4 (Certdb_order.Completion.cardinal c);
  check "lattice" true (Certdb_order.Completion.is_lattice c);
  check "order preserved" true
    (Certdb_order.Completion.embedding_preserves_order c ~leq:(fun x y -> x = y))

let test_completion_divisibility () =
  (* divisors of 12 under divisibility: {1,2,3,4,6,12} is already a
     lattice; elements indexed 0..5 *)
  let divisors = [| 1; 2; 3; 4; 6; 12 |] in
  let leq x y = divisors.(y) mod divisors.(x) = 0 in
  let c = Certdb_order.Completion.make ~size:6 ~leq in
  Alcotest.(check int) "divisor lattice" 6 (Certdb_order.Completion.cardinal c);
  check "lattice" true (Certdb_order.Completion.is_lattice c);
  check "order preserved" true
    (Certdb_order.Completion.embedding_preserves_order c ~leq);
  (* meet of 4 and 6 is 2 *)
  let e i = Certdb_order.Completion.embed c i in
  Alcotest.(check int) "gcd(4,6)=2"
    (e 1)
    (Certdb_order.Completion.meet c (e 3) (e 4))

let test_completion_incomparable_pair_without_meet () =
  (* poset: a, b < c, d with no meet/join among {a,b} originally; the
     completion adds them *)
  let leq x y =
    x = y || ((x = 0 || x = 1) && (y = 2 || y = 3))
  in
  let c = Certdb_order.Completion.make ~size:4 ~leq in
  check "completion is a lattice" true (Certdb_order.Completion.is_lattice c);
  check "order preserved" true
    (Certdb_order.Completion.embedding_preserves_order c ~leq);
  (* original poset had no glb for {2,3}; the completion gives one *)
  let m =
    Certdb_order.Completion.meet c
      (Certdb_order.Completion.embed c 2)
      (Certdb_order.Completion.embed c 3)
  in
  check "meet exists in completion" true (m >= 0)

(* certain answers in exchange *)
let test_certain_exchange () =
  let open Certdb_relational in
  let open Certdb_query in
  let nx = Value.fresh_null () and ny = Value.fresh_null () in
  let nz = Value.fresh_null () in
  let mapping =
    [
      Certdb_exchange.Mapping.relational_rule
        ~body:(Instance.of_list [ ("S", [ [ nx; ny ] ]) ])
        ~head:(Instance.of_list [ ("T", [ [ nx; nz ]; [ nz; ny ] ]) ]);
    ]
  in
  let source = Instance.of_list [ ("S", [ [ Value.int 1; Value.int 2 ] ]) ] in
  let q =
    Ucq.make
      [ Cq.make ~head:[ "x"; "y" ]
          [ ("T", [ Fo.Var "x"; Fo.Var "z" ]); ("T", [ Fo.Var "z"; Fo.Var "y" ]) ] ]
  in
  let direct = Certdb_exchange.Certain_exchange.certain_ucq mapping ~source q in
  let via_core =
    Certdb_exchange.Certain_exchange.certain_ucq_via_core mapping ~source q
  in
  check "endpoints certain" true
    (Instance.mem direct (Instance.fact "ans" [ Value.int 1; Value.int 2 ]));
  check "core route agrees" true (Instance.equal direct via_core);
  (* the invented intermediate value itself never shows up among certain
     answers, but z = 2 is certain (T(v,2) holds in every solution) *)
  let q_mid =
    Ucq.make [ Cq.make ~head:[ "z" ] [ ("T", [ Fo.Var "x"; Fo.Var "z" ]) ] ]
  in
  let mid = Certdb_exchange.Certain_exchange.certain_ucq mapping ~source q_mid in
  Alcotest.(check int) "only the endpoint is certain" 1 (Instance.cardinal mid);
  check "it is ans(2)" true
    (Instance.mem mid (Instance.fact "ans" [ Value.int 2 ]))

let () =
  Alcotest.run "extensions"
    [
      ( "graph-params",
        [
          Alcotest.test_case "chromatic" `Quick test_chromatic;
          Alcotest.test_case "girth" `Quick test_girth;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "monotone/antimonotone" `Quick
            test_monotone_antimonotone;
        ] );
      ( "completion",
        [
          Alcotest.test_case "chain" `Quick test_completion_chain;
          Alcotest.test_case "antichain" `Quick test_completion_antichain;
          Alcotest.test_case "divisibility" `Quick test_completion_divisibility;
          Alcotest.test_case "adds meets" `Quick
            test_completion_incomparable_pair_without_meet;
        ] );
      ( "certain-exchange",
        [ Alcotest.test_case "exchange answers" `Quick test_certain_exchange ] );
    ]
