(* Tests for the CSP substrate: structures, solver, matching, treewidth,
   the engine's search over a tree decomposition. *)

open Certdb_csp
module IS = Structure.Int_set

let check = Alcotest.(check bool)

let triangle =
  Structure.make
    ~nodes:[ (0, None); (1, None); (2, None) ]
    ~tuples:[ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ]) ]

let square =
  Structure.make
    ~nodes:[ (0, None); (1, None); (2, None); (3, None) ]
    ~tuples:[ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 0 |] ]) ]

let labelled_pair =
  Structure.make
    ~nodes:[ (0, Some "a"); (1, Some "b") ]
    ~tuples:[ ("E", [ [| 0; 1 |] ]) ]

let test_structure_basics () =
  Alcotest.(check int) "size" 3 (Structure.size triangle);
  Alcotest.(check int) "tuples" 3 (Structure.tuple_count triangle);
  check "mem tuple" true (Structure.mem_tuple triangle "E" [| 0; 1 |]);
  check "no reverse edge" false (Structure.mem_tuple triangle "E" [| 1; 0 |]);
  check "labels" true
    (Structure.label_of labelled_pair 0 = Some "a")

let test_structure_product () =
  let p, decode = Structure.product triangle triangle in
  Alcotest.(check int) "product nodes" 9 (Structure.size p);
  (* product has an edge for each compatible pair: 3*3 = 9 edges *)
  Alcotest.(check int) "product edges" 9 (Structure.tuple_count p);
  let v = List.hd (Structure.nodes p) in
  let a, b = decode v in
  check "decode in range" true (a >= 0 && a < 3 && b >= 0 && b < 3)

let test_product_labels () =
  let p, _ = Structure.product labelled_pair labelled_pair in
  Alcotest.(check int) "only like-labelled pairs" 2 (Structure.size p)

let test_disjoint_union () =
  let u, inj1, inj2 = Structure.disjoint_union triangle square in
  Alcotest.(check int) "union nodes" 7 (Structure.size u);
  Alcotest.(check int) "union tuples" 7 (Structure.tuple_count u);
  check "injections disjoint" true (inj1 0 <> inj2 0)

let test_restrict () =
  let r = Structure.restrict triangle (IS.of_list [ 0; 1 ]) in
  Alcotest.(check int) "restricted nodes" 2 (Structure.size r);
  Alcotest.(check int) "restricted edges" 1 (Structure.tuple_count r)

let test_gaifman () =
  let g = Structure.gaifman triangle in
  check "neighbors" true
    (IS.equal (Structure.Int_map.find 0 g) (IS.of_list [ 1; 2 ]))

let test_solver_basic () =
  check "triangle -> triangle" true
    (Solver.exists_hom ~source:triangle ~target:triangle ());
  check "square -> square" true
    (Solver.exists_hom ~source:square ~target:square ());
  (* no hom C3 -> C4: directed cycles map iff length divisible *)
  check "triangle -/-> square" false
    (Solver.exists_hom ~source:triangle ~target:square ());
  check "square -/-> triangle" false
    (Solver.exists_hom ~source:square ~target:triangle ())

let test_solver_labels () =
  let flipped =
    Structure.make
      ~nodes:[ (0, Some "b"); (1, Some "a") ]
      ~tuples:[ ("E", [ [| 0; 1 |] ]) ]
  in
  check "labels preserved" true
    (Solver.exists_hom ~source:labelled_pair ~target:labelled_pair ());
  check "label mismatch" false
    (Solver.exists_hom ~source:labelled_pair ~target:flipped ())

let test_solver_witness () =
  match Solver.find_hom ~source:square ~target:square () with
  | None -> Alcotest.fail "expected endomorphism"
  | Some h -> check "witness checks" true (Solver.is_hom ~source:square ~target:square h)

let test_solver_restrict () =
  let r = Domains.of_list [ (0, IS.singleton 1) ] in
  (match Solver.find_hom ~restrict:r ~source:triangle ~target:triangle () with
  | Some h -> Alcotest.(check int) "restricted image" 1 (Structure.Int_map.find 0 h)
  | None -> Alcotest.fail "expected restricted hom");
  let empty_r =
    Domains.of_list [ (0, IS.empty); (1, IS.empty); (2, IS.empty) ]
  in
  check "empty restriction" false
    (Solver.exists_hom ~restrict:empty_r ~source:triangle ~target:triangle ())

let test_solver_agreement_with_naive () =
  for seed = 0 to 20 do
    let mk s p =
      let open Certdb_graph in
      Digraph.to_structure (Digraph.random ~seed:s ~vertices:5 ~edge_prob:p ())
    in
    let a = mk seed 0.3 and b = mk (seed + 100) 0.5 in
    check
      (Printf.sprintf "seed %d: mrv = naive" seed)
      (Option.is_some (Solver.find_hom ~source:a ~target:b ()))
      (Option.is_some (Solver.find_hom_naive ~source:a ~target:b ()))
  done

let test_count_homs () =
  (* homs from a single edge into a triangle: 3 edges to pick *)
  let edge =
    Structure.make ~nodes:[ (0, None); (1, None) ]
      ~tuples:[ ("E", [ [| 0; 1 |] ]) ]
  in
  Alcotest.(check int) "edge into triangle" 3
    (Solver.count_homs ~source:edge ~target:triangle ())

let test_onto () =
  let edge =
    Structure.make ~nodes:[ (0, None); (1, None) ]
      ~tuples:[ ("E", [ [| 0; 1 |] ]) ]
  in
  let onto source target =
    Option.is_some
      (Solver.definitive (Solver.find_onto_hom ~source ~target ()))
  in
  check "no onto edge -> triangle" false (onto edge triangle);
  check "onto triangle -> triangle" true (onto triangle triangle)

(* matching *)
let test_matching_perfect () =
  let g =
    Matching.make ~left:3 ~right:3
      ~edges:[ (0, 0); (0, 1); (1, 1); (1, 2); (2, 2) ]
  in
  let size, ml = Matching.max_matching g in
  Alcotest.(check int) "perfect matching" 3 size;
  check "all matched" true (Array.for_all Option.is_some ml);
  check "saturates" true (Matching.saturates_left g)

let test_matching_hall_violation () =
  (* two left vertices share a single right neighbor *)
  let g = Matching.make ~left:2 ~right:2 ~edges:[ (0, 0); (1, 0) ] in
  check "not saturating" false (Matching.saturates_left g);
  match Matching.hall_violation g with
  | Some u -> check "violator has >= 2 vertices" true (List.length u >= 2)
  | None -> Alcotest.fail "expected a Hall violator"

let test_matching_empty () =
  let g = Matching.make ~left:0 ~right:0 ~edges:[] in
  check "empty saturates" true (Matching.saturates_left g)

(* the word popcount against clearing the lowest bit one at a time,
   over the sign bit and both 32-bit halves *)
let qcheck_popcount =
  QCheck.Test.make ~count:2000 ~name:"popcount_word counts every bit"
    QCheck.(oneof [ int; int_range (-64) 64; map (fun k -> 1 lsl k) (int_range 0 62) ])
    (fun w ->
      let rec slow n w = if w = 0 then n else slow (n + 1) (w land (w - 1)) in
      Domains.Bitset.popcount_word w = slow 0 w)

(* treewidth *)
let test_treewidth_path () =
  let open Certdb_graph in
  let p = Digraph.to_structure (Digraph.path 6) in
  let d = Treewidth.of_structure p in
  check "valid decomposition" true (Treewidth.is_valid p d);
  Alcotest.(check int) "path width 1" 1 (Treewidth.width d)

let test_treewidth_cycle () =
  let open Certdb_graph in
  let c = Digraph.to_structure (Digraph.cycle 8) in
  let d = Treewidth.of_structure c in
  check "valid decomposition" true (Treewidth.is_valid c d);
  Alcotest.(check int) "cycle width 2" 2 (Treewidth.width d)

let test_treewidth_clique () =
  let open Certdb_graph in
  let k = Digraph.to_structure (Digraph.clique 4) in
  let d = Treewidth.of_structure k in
  check "valid decomposition" true (Treewidth.is_valid k d);
  Alcotest.(check int) "clique width n-1" 3 (Treewidth.width d)

let test_treewidth_exact () =
  let open Certdb_graph in
  (* exact widths on known graphs *)
  let cases =
    [ (Digraph.to_structure (Digraph.path 5), 1);
      (Digraph.to_structure (Digraph.cycle 6), 2);
      (Digraph.to_structure (Digraph.clique 4), 3);
      (Digraph.to_structure (Digraph.grid 2 3), 2) ]
  in
  List.iter
    (fun (s, expected) ->
      let d = Treewidth.exact s in
      check "exact valid" true (Treewidth.is_valid s d);
      Alcotest.(check int) "exact width" expected (Treewidth.width d))
    cases;
  (* heuristics never beat the optimum *)
  for seed = 0 to 8 do
    let g =
      Digraph.to_structure (Digraph.random ~seed ~vertices:7 ~edge_prob:0.3 ())
    in
    let opt = Treewidth.width (Treewidth.exact g) in
    List.iter
      (fun h ->
        check
          (Printf.sprintf "seed %d heuristic >= exact" seed)
          true
          (Treewidth.width (Treewidth.of_structure ~heuristic:h g) >= opt))
      [ `Min_degree; `Min_fill ]
  done;
  Alcotest.check_raises "size guard"
    (Invalid_argument "Treewidth.exact: too many nodes (max 12)") (fun () ->
      ignore (Treewidth.exact (Digraph.to_structure (Digraph.clique 13))))

let test_treewidth_random_valid () =
  for seed = 0 to 10 do
    let open Certdb_graph in
    let g =
      Digraph.to_structure
        (Digraph.random ~seed ~vertices:8 ~edge_prob:0.3 ())
    in
    List.iter
      (fun h ->
        let d = Treewidth.of_structure ~heuristic:h g in
        check (Printf.sprintf "seed %d valid" seed) true
          (Treewidth.is_valid g d))
      [ `Min_degree; `Min_fill ]
  done

(* The Int_set elimination heuristics [Treewidth] ran before its dense
   adjacency rows, kept as the oracle: the rows must give the same bags,
   parents and widths, tie-breaks included. *)
module Tw_oracle = struct
  module Int_map = Structure.Int_map

  let adjacency s =
    let adj = Hashtbl.create 16 in
    Int_map.iter (fun v ns -> Hashtbl.replace adj v ns) (Structure.gaifman s);
    adj

  let neighbors adj v =
    match Hashtbl.find_opt adj v with Some ns -> ns | None -> IS.empty

  let eliminate adj ns v =
    IS.iter
      (fun u ->
        Hashtbl.replace adj u
          (IS.union (IS.remove v (neighbors adj u)) (IS.remove u ns)))
      ns;
    Hashtbl.remove adj v

  let of_elimination_order s order =
    let adj = adjacency s in
    let n = List.length order in
    let bags = Array.make (max n 1) IS.empty in
    let position = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace position v i) order;
    List.iteri
      (fun i v ->
        let ns = neighbors adj v in
        bags.(i) <- IS.add v ns;
        eliminate adj ns v)
      order;
    let parent = Array.make (max n 1) (-1) in
    Array.iteri
      (fun i b ->
        let later = IS.filter (fun u -> Hashtbl.find position u > i) b in
        match IS.elements later with
        | [] -> ()
        | u :: us ->
          let first =
            List.fold_left
              (fun best u ->
                if Hashtbl.find position u < Hashtbl.find position best then u
                else best)
              u us
          in
          parent.(i) <- Hashtbl.find position first)
      bags;
    if n = 0 then { Treewidth.bags = [||]; parent = [||] }
    else { Treewidth.bags; parent }

  let order_by_heuristic heuristic s =
    let adj = adjacency s in
    let remaining = ref (IS.of_list (Structure.nodes s)) in
    let cost v =
      let ns = neighbors adj v in
      match heuristic with
      | `Min_degree -> IS.cardinal ns
      | `Min_fill ->
        IS.fold
          (fun u acc ->
            IS.fold
              (fun w acc ->
                if u < w && not (IS.mem w (neighbors adj u)) then acc + 1
                else acc)
              ns acc)
          ns 0
    in
    let order = ref [] in
    while not (IS.is_empty !remaining) do
      let v =
        IS.fold
          (fun v best ->
            match best with
            | Some b when cost v >= cost b -> best
            | _ -> Some v)
          !remaining None
        |> Option.get
      in
      order := v :: !order;
      eliminate adj (neighbors adj v) v;
      remaining := IS.remove v !remaining
    done;
    List.rev !order

  let of_structure heuristic s =
    of_elimination_order s (order_by_heuristic heuristic s)

  let estimate s =
    let md = of_structure `Min_degree s and mf = of_structure `Min_fill s in
    let best = if Treewidth.width mf < Treewidth.width md then mf else md in
    (best, Treewidth.width best)
end

(* Random structures for the oracle: up to ~70 nodes, so that the rows
   cross the word boundary at 63; raw ids spread out and unsorted,
   labels, arities 0-3, repeated tuples and isolated nodes *)
let tw_structure st =
  let int = Random.State.int st in
  let n = if int 2 = 0 then int 21 else int 71 in
  let ids = Array.init (3 * n + 1) Fun.id in
  for i = Array.length ids - 1 downto 1 do
    let j = int (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let nodes = Array.sub ids 0 n in
  let nodes_labelled =
    Array.to_list
      (Array.map
         (fun v -> (v, match int 3 with 0 -> Some "a" | 1 -> Some "b" | _ -> None))
         nodes)
  in
  let tuples =
    if n = 0 then []
    else
      List.init (int ((2 * n) + 1)) (fun _ ->
          let arity = int 4 in
          ( Printf.sprintf "R%d" arity,
            Array.init arity (fun _ -> nodes.(int (max 1 (n / (1 + int 4))))) ))
  in
  let tuples = tuples @ List.filteri (fun i _ -> i mod 3 = 0) tuples in
  let s =
    Structure.make ~nodes:nodes_labelled
      ~tuples:(List.map (fun (r, t) -> (r, [ t ])) tuples)
  in
  let order = Array.of_list (Structure.nodes s) in
  for i = Array.length order - 1 downto 1 do
    let j = int (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  (s, Array.to_list order)

let same_decomposition (a : Treewidth.t) (b : Treewidth.t) =
  Array.length a.bags = Array.length b.bags
  && Array.for_all2 IS.equal a.bags b.bags
  && a.parent = b.parent

let qcheck_treewidth_oracle =
  let print seed =
    let s, order = tw_structure (Random.State.make [| seed |]) in
    Format.asprintf "seed %d@.order %s@.%a" seed
      (String.concat "," (List.map string_of_int order))
      Structure.pp s
  in
  QCheck.Test.make ~count:2000
    ~name:"dense elimination matches the Int_set heuristics"
    (QCheck.make ~print QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let s, order = tw_structure (Random.State.make [| seed |]) in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let agree name got expected =
        same_decomposition got expected
        || fail "%s: got@.%a@.expected@.%a" name Treewidth.pp got
             Treewidth.pp expected
      in
      let d, w = Treewidth.estimate s and d', w' = Tw_oracle.estimate s in
      (* the same tuples over the ranks of their nodes *)
      let nodes = Structure.nodes s in
      let rank = Hashtbl.create 16 in
      List.iteri (fun i v -> Hashtbl.replace rank v i) nodes;
      let edges =
        Array.of_list
          (List.map
             (fun (_, t) -> Array.map (Hashtbl.find rank) t)
             (Structure.all_tuples s))
      in
      agree "min-degree"
        (Treewidth.of_structure ~heuristic:`Min_degree s)
        (Tw_oracle.of_structure `Min_degree s)
      && agree "min-fill"
           (Treewidth.of_structure ~heuristic:`Min_fill s)
           (Tw_oracle.of_structure `Min_fill s)
      && agree "elimination order"
           (Treewidth.of_elimination_order s order)
           (Tw_oracle.of_elimination_order s order)
      && agree "estimate" d d'
      && (w = w' || fail "estimate width %d, oracle %d" w w')
      && (Treewidth.estimate_width (List.length nodes) edges = w'
         || fail "estimate_width %d, oracle %d"
              (Treewidth.estimate_width (List.length nodes) edges)
              w'))

(* Theorem 6's R-compatible hom test: the engine over a tree
   decomposition of the source (min-degree unless given) *)
let btw_witness ?decomposition ?restrict ~source ~target () =
  let decomposition =
    match decomposition with
    | Some d -> d
    | None -> Treewidth.of_structure source
  in
  Solver.definitive
    (Engine.solve
       ~config:(Engine.Config.make ?restrict ~decomposition ())
       ~source ~target ())

let btw_hom ?decomposition ?restrict ~source ~target () =
  Option.is_some (btw_witness ?decomposition ?restrict ~source ~target ())

(* the bounded-width search vs backtracking solver *)
let test_bounded_tw_agreement () =
  for seed = 0 to 25 do
    let open Certdb_graph in
    (* tree-like sources: paths and cycles (small width) *)
    let source =
      Digraph.to_structure
        (if seed mod 2 = 0 then Digraph.path (3 + (seed mod 4))
         else Digraph.cycle (3 + (seed mod 4)))
    in
    let target =
      Digraph.to_structure
        (Digraph.random ~seed:(seed + 50) ~vertices:5 ~edge_prob:0.4 ())
    in
    check
      (Printf.sprintf "seed %d: btw = solver" seed)
      (Solver.exists_hom ~source ~target ())
      (btw_hom ~source ~target ())
  done

let test_bounded_tw_witness () =
  let open Certdb_graph in
  let source = Digraph.to_structure (Digraph.path 4) in
  let target = Digraph.to_structure (Digraph.cycle 3) in
  let restrict = Domains.unconstrained in
  match btw_witness ~source ~target ~restrict () with
  | None -> Alcotest.fail "path should map into cycle"
  | Some h ->
    check "witness is hom" true (Solver.is_hom ~source ~target h)

let test_bounded_tw_restrict () =
  let open Certdb_graph in
  let source = Digraph.to_structure (Digraph.path 2) in
  let target = Digraph.to_structure (Digraph.cycle 3) in
  (* forbid node 0 of the path from mapping anywhere: unsatisfiable *)
  let restrict = Domains.of_list [ (0, IS.empty) ] in
  check "empty restriction blocks" false
    (btw_hom ~source ~target ~restrict ());
  (* pin path start to cycle node 1 *)
  let restrict = Domains.singleton 0 1 in
  (match btw_witness ~source ~target ~restrict () with
  | Some h -> Alcotest.(check int) "pinned" 1 (Structure.Int_map.find 0 h)
  | None -> Alcotest.fail "pinned hom should exist")

(* a decomposition that leaves a fact in no bag, or holds a node the
   source lacks, is refused rather than searched *)
let test_bounded_tw_invalid_decomposition () =
  let bags l = Array.of_list (List.map IS.of_list l) in
  let refused name decomposition =
    match btw_hom ~decomposition ~source:triangle ~target:triangle () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  refused "fact in no bag"
    { Treewidth.bags = bags [ [ 0; 1 ]; [ 1; 2 ] ]; parent = [| -1; 0 |] };
  refused "node outside the source"
    { Treewidth.bags = bags [ [ 0; 1; 2; 9 ] ]; parent = [| -1 |] }

let test_bounded_tw_empty_source () =
  check "empty source has hom" true
    (btw_hom ~source:Structure.empty ~target:triangle ())

(* The bounded-width search against the pre-columnar engine on random
   labelled instances: relations of arity 0-3 with repeated variables,
   relations missing from the target, disconnected sources (forest
   decompositions) and random restrictions, over both heuristics'
   decompositions and an optimal one, and through [Decider.btw].  The
   reference core ignores 0-ary constraints, so its verdict is conjoined
   with the 0-ary facts' presence. *)
let random_instance st =
  let int n = Random.State.int st n in
  let label () = match int 4 with 0 -> Some "a" | 1 -> Some "b" | _ -> None in
  let rels = [ ("Z", 0); ("U", 1); ("R", 2); ("Q", 2); ("S", 3) ] in
  let structure ~nodes ~facts ~keep =
    let tuples =
      List.filter_map
        (fun (rel, arity) ->
          if not (keep rel) then None
          else
            Some
              ( rel,
                List.init (facts arity) (fun _ ->
                    Array.init arity (fun _ -> int nodes)) ))
        rels
    in
    Structure.make ~nodes:(List.init nodes (fun v -> (v, label ()))) ~tuples
  in
  let sn = 1 + int 7 and tn = 1 + int 5 in
  (* sparse sources: few facts, so isolated nodes and components are
     common; denser targets *)
  let source =
    structure ~nodes:sn
      ~facts:(fun arity -> if arity = 0 then int 2 else int 3)
      ~keep:(fun _ -> true)
  in
  let target =
    structure ~nodes:tn
      ~facts:(fun arity -> if arity = 0 then int 2 else int (2 + (tn * tn)))
      ~keep:(fun _ -> int 4 > 0)
  in
  let restrict =
    Domains.of_list
      (List.filter_map
         (fun v ->
           if int 3 > 0 then None
           else
             Some
               ( v,
                 IS.of_list
                   (List.filter (fun _ -> int 3 > 0) (List.init tn Fun.id)) ))
         (List.init sn Fun.id))
  in
  (source, target, restrict)

let qcheck_bounded_tw_differential =
  let print seed =
    let source, target, _ = random_instance (Random.State.make [| seed |]) in
    Format.asprintf "seed %d@.source %a@.target %a" seed Structure.pp source
      Structure.pp target
  in
  QCheck.Test.make ~count:2000 ~name:"bounded-tw DP agrees with Engine.Reference"
    (QCheck.make ~print QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let source, target, restrict = random_instance (Random.State.make [| seed |]) in
      let zero_ok =
        List.for_all
          (fun t -> Array.length t > 0 || Structure.mem_tuple target "Z" t)
          (Structure.tuples_of source "Z")
      in
      let expected =
        zero_ok
        && Engine.Reference.satisfiable
             ~config:(Engine.Config.make ~restrict ()) ~source ~target ()
           = Engine.Sat ()
      in
      let decisions = Certdb_obs.Obs.counter "csp.solver.decisions" in
      let config decomposition =
        Engine.Config.make ~restrict ~decomposition ()
      in
      (* Theorem 6's bound: each (bag, separator values) pair is searched
         at most once, for at most 2·|B|^k decisions on the k variables
         homed in the bag, and the separator and those k fit in the bag *)
      let bound decomposition =
        Array.fold_left
          (fun acc bag ->
            let rec pow k =
              if k = 0 then 1 else Structure.size target * pow (k - 1)
            in
            acc + (2 * pow (IS.cardinal bag)))
          0 decomposition.Treewidth.bags
      in
      (Decider.btw.satisfiable (Engine.Config.make ~restrict ()) source target
       = Engine.Sat ()
       = expected
      || QCheck.Test.fail_reportf "Decider.btw disagrees (expected %b)" expected)
      && List.for_all
        (fun (name, decomposition) ->
          let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) name in
          let d0 = Certdb_obs.Obs.counter_value decisions in
          let sat =
            Engine.satisfiable ~config:(config decomposition) ~source ~target ()
          in
          let spent = Certdb_obs.Obs.counter_value decisions - d0 in
          if (sat = Engine.Sat ()) <> expected then
            fail "satisfiable disagrees (expected %b)" expected
          else if spent > bound decomposition then
            fail "%d decisions, past the bound %d" spent (bound decomposition)
          else
            match
              Engine.solve ~config:(config decomposition) ~source ~target ()
            with
            | Engine.Unsat -> (not expected) || fail "no witness"
            | Engine.Unknown r -> fail "unknown: %s" (Engine.reason_to_string r)
            | Engine.Sat h ->
              (expected || fail "witness for an unsatisfiable instance")
              && (Engine.is_hom ~source ~target h || fail "witness is not a hom")
              && (Structure.Int_map.for_all (fun v w -> Domains.mem restrict v w) h
                 || fail "witness leaves the restriction"))
        [
          ("min-degree", Treewidth.of_structure ~heuristic:`Min_degree source);
          ("min-fill", Treewidth.of_structure ~heuristic:`Min_fill source);
          ("exact", Treewidth.exact source);
        ])

(* Sparse random digraphs into dense ones: the separators of their
   decompositions repeat values across the search, so the memo's goods
   and nogoods, and the values it prunes, decide much of each answer *)
let qcheck_bounded_tw_sparse =
  let open Certdb_graph in
  QCheck.Test.make ~count:500 ~name:"bounded-tw search on sparse digraphs"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let sv = 6 + Random.State.int st 10 and tv = 3 + Random.State.int st 5 in
      let source =
        Digraph.to_structure
          (Digraph.random ~seed ~vertices:sv
             ~edge_prob:(1.6 /. float_of_int sv) ())
      in
      let target =
        Digraph.to_structure
          (Digraph.random ~seed:(seed + 1) ~vertices:tv
             ~edge_prob:(0.3 +. Random.State.float st 0.4) ())
      in
      let restrict =
        Domains.of_list
          (List.filter_map
             (fun v ->
               if Random.State.int st 6 > 0 then None
               else
                 Some
                   ( v,
                     IS.of_list
                       (List.filter
                          (fun _ -> Random.State.int st 3 > 0)
                          (List.init tv Fun.id)) ))
             (List.init sv Fun.id))
      in
      let expected =
        Engine.Reference.satisfiable
          ~config:(Engine.Config.make ~restrict ()) ~source ~target ()
        = Engine.Sat ()
      in
      List.for_all
        (fun heuristic ->
          let decomposition = Treewidth.of_structure ~heuristic source in
          match
            Engine.solve
              ~config:(Engine.Config.make ~restrict ~decomposition ())
              ~source ~target ()
          with
          | Engine.Sat h ->
            expected
            && Engine.is_hom ~source ~target h
            && Structure.Int_map.for_all (fun v w -> Domains.mem restrict v w) h
          | Engine.Unsat -> not expected
          | Engine.Unknown _ -> false)
        [ `Min_degree; `Min_fill ])

(* --- lex-leader symmetry breaking in [Engine.satisfiable] --- *)

let edges_of pairs =
  List.map (fun (a, b) -> [| a; b |]) pairs

(* the complete digraph on 0 .. k - 1 *)
let clique k =
  let ids = List.init k Fun.id in
  Structure.make ~nodes:[]
    ~tuples:
      [
        ( "E",
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j -> if i <> j then Some [| i; j |] else None)
                ids)
            ids );
      ]

let decisions_of f =
  let c = Certdb_obs.Obs.counter "csp.solver.decisions" in
  let d0 = Certdb_obs.Obs.counter_value c in
  let r = f () in
  (r, Certdb_obs.Obs.counter_value c - d0)

(* K_k into K_(k-1): pigeonhole.  Sorted along the class and forward
   checked, the refutation walks increasing chains only: at most
   2^(k-1) - 1 decisions where the plain search pays (k-1)! leaves *)
let test_lex_pigeonhole () =
  List.iter
    (fun (k, bound) ->
      let r, spent =
        decisions_of (fun () ->
            Engine.satisfiable ~source:(clique k) ~target:(clique (k - 1)) ())
      in
      check (Printf.sprintf "K%d -/-> K%d" k (k - 1)) true (r = Engine.Unsat);
      if spent > bound then
        Alcotest.failf "K%d -> K%d: %d decisions, past %d" k (k - 1) spent
          bound)
    [ (5, 15); (6, 31); (7, 63); (8, 127); (9, 255); (10, 511) ];
  check "K5 -> K5" true
    (Engine.satisfiable ~source:(clique 5) ~target:(clique 5) () = Engine.Sat ())

(* The classes the search orders: a member that a restriction narrows
   leaves its class. *)
let test_lex_classes () =
  (* a member narrowed away from the smallest value, which some member
     takes in every solution: ordering it first in the class would
     refute a satisfiable instance *)
  let restrict = Domains.of_list [ (0, IS.of_list [ 1; 2 ]) ] in
  check "narrowed member satisfiable" true
    (Engine.satisfiable
       ~config:(Engine.Config.make ~restrict ())
       ~source:(clique 3) ~target:(clique 3) ()
    = Engine.Sat ());
  let source = clique 4 and target = clique 5 in
  let classes restrict =
    Engine.Compiled.interchangeable_classes
      (Engine.compile ?restrict ~source ~target ())
  in
  check "one class of four" true (classes None = [| [| 0; 1; 2; 3 |] |]);
  check "a narrowed member leaves" true
    (classes (Some (Domains.of_list [ (3, IS.of_list [ 0; 1; 2 ]) ]))
    = [| [| 0; 1; 2 |] |])

(* Enumeration and [solve] keep every symmetric copy *)
let test_lex_enumeration () =
  let count source target =
    match Engine.count ~source ~target () with
    | Engine.Sat n -> n
    | _ -> Alcotest.fail "count interrupted"
  in
  Alcotest.(check int) "K3 -> K4" 24 (count (clique 3) (clique 4));
  let biclique =
    Structure.make ~nodes:[]
      ~tuples:[ ("E", edges_of [ (0, 2); (0, 3); (1, 2); (1, 3) ]) ]
  in
  (* one side on one node (3 ways) leaves 2 x 2 for the other, on two
     nodes (6 ways) leaves 1 *)
  Alcotest.(check int) "K(2,2) -> K3" 18 (count biclique (clique 3));
  let seen = ref [] in
  ignore
    (Engine.iter ~source:(clique 3) ~target:(clique 3) (fun h ->
         seen := h :: !seen;
         `Continue));
  Alcotest.(check int) "iter K3 -> K3" 6
    (List.length (List.sort_uniq compare (List.map Structure.Int_map.bindings !seen)));
  match Engine.solve ~source:(clique 4) ~target:(clique 4) () with
  | Engine.Sat h ->
    check "solve witness" true
      (Engine.is_hom ~source:(clique 4) ~target:(clique 4) h)
  | _ -> Alcotest.fail "K4 -> K4"

(* Random instances with planted classes: cliques, bicliques,
   back-and-forth pairs, disjoint copies (so members in different
   components), stars and ternary fans on a shared anchor, over a few
   random base facts.  A class may carry one label, or lose a member to
   another label or to a restriction of its own; a whole class may share
   a restriction.  The targets are dense enough that about half the
   instances are satisfiable.  [satisfiable] must agree with the
   reference core, which breaks no symmetry. *)
let planted_instance st =
  let int n = Random.State.int st n in
  let tn = 2 + int 4 in
  let density = 0.4 +. Random.State.float st 0.5 in
  let coin p = Random.State.float st 1.0 < p in
  let nodes = List.init tn Fun.id in
  let pairs = List.concat_map (fun a -> List.map (fun b -> [| a; b |]) nodes) nodes in
  let target =
    Structure.make
      ~nodes:((tn, Some "a") :: List.map (fun v -> (v, None)) nodes)
      ~tuples:
        [
          ("R", [| tn; tn |] :: List.filter (fun _ -> coin density) pairs);
          ("Q", List.filter (fun _ -> coin density) pairs);
          ("U", [| tn |] :: List.filter_map (fun v -> if coin 0.7 then Some [| v |] else None) nodes);
          ( "S",
            List.init (tn * tn) (fun _ -> [| int tn; int tn; int tn |])
            @ List.filter_map
                (fun v -> if coin 0.5 then Some [| 0; v; v |] else None)
                nodes );
          ("Z", if coin 0.8 then [ [||] ] else []);
        ]
  in
  let next = ref 3 in
  let fresh () =
    incr next;
    !next
  in
  let facts = ref [] and classes = ref [] in
  let add rel t = facts := (rel, t) :: !facts in
  (* a few base facts over nodes 0..3 *)
  for _ = 1 to int 3 do
    add (if coin 0.5 then "R" else "Q") [| int 4; int 4 |]
  done;
  if coin 0.3 then add "Z" [||];
  let members k = List.init k (fun _ -> fresh ()) in
  for _ = 0 to int 3 do
    let rel = if int 3 = 0 then "Q" else "R" in
    match int 6 with
    | 0 ->
      let xs = members (2 + int 3) in
      List.iter
        (fun a -> List.iter (fun b -> if a <> b then add rel [| a; b |]) xs)
        xs;
      classes := xs :: !classes
    | 1 ->
      let xs = members (1 + int 3) and ys = members (1 + int 3) in
      List.iter (fun a -> List.iter (fun b -> add rel [| a; b |]) ys) xs;
      classes := xs :: ys :: !classes
    | 2 ->
      let x = fresh () and y = fresh () in
      add rel [| x; y |];
      add rel [| y; x |];
      classes := [ x; y ] :: !classes
    | 3 ->
      (* disjoint copies of one gadget: a loop, or a unary fact *)
      let xs = members (2 + int 3) in
      let loop = coin 0.5 in
      List.iter (fun x -> if loop then add rel [| x; x |] else add "U" [| x |]) xs;
      classes := xs :: !classes
    | 4 ->
      let anchor = int 4 in
      let xs = members (2 + int 3) in
      List.iter (fun x -> add rel [| anchor; x |]) xs;
      if coin 0.5 then List.iter (fun x -> add "U" [| x |]) xs;
      classes := xs :: !classes
    | _ ->
      let xs = members (2 + int 3) in
      List.iter (fun x -> add "S" [| 0; x; x |]) xs;
      classes := xs :: !classes
  done;
  (* a random subset, or the low or the high values: a member ordered
     against its class by mistake then has no room to move *)
  let row () =
    let k = 1 + int (tn - 1) in
    IS.of_list
      (List.filter
         (match int 3 with
         | 0 -> fun _ -> coin 0.7
         | 1 -> fun v -> v < k
         | _ -> fun v -> v >= k)
         (tn :: nodes))
  in
  let one_of xs = List.nth xs (int (List.length xs)) in
  let labels = ref [] and rows = ref [] in
  List.iter
    (fun xs ->
      (match int 8 with
      | 0 -> labels := List.map (fun x -> (x, Some "a")) xs @ !labels
      | 1 -> labels := (one_of xs, Some "a") :: !labels
      | _ -> ());
      match int 4 with
      | 0 ->
        let r = row () in
        rows := List.map (fun x -> (x, r)) xs @ !rows
      | 1 -> rows := (one_of xs, row ()) :: !rows
      | _ -> ())
    !classes;
  let source =
    List.fold_left
      (fun s (rel, t) -> Structure.add_tuple s rel t)
      (Structure.make ~nodes:!labels ~tuples:[])
      !facts
  in
  (source, target, Domains.of_list !rows)

(* The endomorphism classes read off the source match those of the
   compiled endomorphism problem, under restrictions that pin nodes to
   themselves (as the planner's frozen tableau does), narrow them to
   sets, or leave them whole *)
let qcheck_endo_classes =
  QCheck.Test.make ~count:1000
    ~name:"endomorphism classes off the source match the compiled ones"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let s, _ = tw_structure st in
      let nodes = Structure.nodes s in
      let restrict =
        if Random.State.bool st then None
        else
          Some
            (Domains.of_list
               (List.filter_map
                  (fun v ->
                    match Random.State.int st 4 with
                    | 0 -> Some (v, IS.singleton v)
                    | 1 ->
                      Some
                        (v, IS.of_list (List.filter (fun _ -> Random.State.bool st) nodes))
                    | 2 -> Some (v, IS.of_list nodes)
                    | _ -> None)
                  nodes))
      in
      let got = Engine.Compiled.endo_interchangeable_classes ?restrict
          (Structure.columnar s)
      in
      let expected =
        Engine.Compiled.interchangeable_classes
          (Engine.compile ?restrict ~source:s ~target:s ())
      in
      got = expected
      || QCheck.Test.fail_reportf "%d classes off the source, %d compiled"
           (Array.length got) (Array.length expected))

(* The columnar view built straight from tuples equals the one compiled
   off the persistent structure: relations by name then arity, tuples
   in set order with repeats collapsed, the same per-position index *)
let qcheck_columnar_of =
  QCheck.Test.make ~count:500
    ~name:"columnar_of equals the columnar view of make"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = Random.State.int st 8 in
      let tuples =
        List.init (Random.State.int st 12) (fun _ ->
            let arity = if n = 0 then 0 else Random.State.int st 4 in
            ( (if Random.State.bool st then "R" else "S"),
              Array.init arity (fun _ -> Random.State.int st n) ))
      in
      let tuples = tuples @ List.filteri (fun i _ -> i mod 3 = 0) tuples in
      let got = Structure.columnar_of ~nodes:n tuples in
      let expected =
        Structure.columnar
          (Structure.make
             ~nodes:(List.init n (fun i -> (i, None)))
             ~tuples:(List.map (fun (r, t) -> (r, [ t ])) tuples))
      in
      let crel (c : Structure.crel) =
        ( c.Structure.rel,
          c.Structure.rel_id,
          c.Structure.arity,
          c.Structure.count,
          Array.sub c.Structure.flat 0 (c.Structure.count * c.Structure.arity),
          c.Structure.by_pos )
      in
      got.Structure.node_ids = expected.Structure.node_ids
      && got.Structure.node_labels = expected.Structure.node_labels
      && Array.map crel got.Structure.crels = Array.map crel expected.Structure.crels
      && List.for_all
           (fun i -> Hashtbl.find_opt got.Structure.dense_of i = Some i)
           (List.init n Fun.id))

let qcheck_lex_planted =
  let print seed =
    let source, target, _ = planted_instance (Random.State.make [| seed |]) in
    Format.asprintf "seed %d@.source %a@.target %a" seed Structure.pp source
      Structure.pp target
  in
  QCheck.Test.make ~count:3000
    ~name:"lex-leader satisfiable agrees with Engine.Reference"
    (QCheck.make ~print QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let source, target, restrict =
        planted_instance (Random.State.make [| seed |])
      in
      let config = Engine.Config.make ~restrict () in
      let zero_ok =
        List.for_all
          (fun t -> Structure.mem_tuple target "Z" t)
          (Structure.tuples_of source "Z")
      in
      let expected =
        zero_ok
        && Engine.Reference.satisfiable ~config ~source ~target ()
           = Engine.Sat ()
      in
      let got = Engine.satisfiable ~config ~source ~target () = Engine.Sat () in
      got = expected
      || QCheck.Test.fail_reportf "satisfiable %b, reference %b" got expected)

let () =
  Alcotest.run "csp"
    [
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_structure_basics;
          Alcotest.test_case "product" `Quick test_structure_product;
          Alcotest.test_case "product labels" `Quick test_product_labels;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "gaifman" `Quick test_gaifman;
        ] );
      ( "solver",
        [
          Alcotest.test_case "basic" `Quick test_solver_basic;
          Alcotest.test_case "labels" `Quick test_solver_labels;
          Alcotest.test_case "witness" `Quick test_solver_witness;
          Alcotest.test_case "restrict" `Quick test_solver_restrict;
          Alcotest.test_case "mrv vs naive" `Quick test_solver_agreement_with_naive;
          Alcotest.test_case "count" `Quick test_count_homs;
          Alcotest.test_case "onto" `Quick test_onto;
        ] );
      ( "matching",
        [
          Alcotest.test_case "perfect" `Quick test_matching_perfect;
          Alcotest.test_case "hall violation" `Quick test_matching_hall_violation;
          Alcotest.test_case "empty" `Quick test_matching_empty;
        ] );
      ( "treewidth",
        [
          Alcotest.test_case "path" `Quick test_treewidth_path;
          Alcotest.test_case "cycle" `Quick test_treewidth_cycle;
          Alcotest.test_case "clique" `Quick test_treewidth_clique;
          Alcotest.test_case "random valid" `Quick test_treewidth_random_valid;
          Alcotest.test_case "exact" `Quick test_treewidth_exact;
          QCheck_alcotest.to_alcotest qcheck_treewidth_oracle;
          QCheck_alcotest.to_alcotest qcheck_popcount;
        ] );
      ( "bounded_tw",
        [
          Alcotest.test_case "agreement" `Quick test_bounded_tw_agreement;
          Alcotest.test_case "witness" `Quick test_bounded_tw_witness;
          Alcotest.test_case "restriction" `Quick test_bounded_tw_restrict;
          Alcotest.test_case "empty source" `Quick test_bounded_tw_empty_source;
          Alcotest.test_case "invalid decomposition" `Quick
            test_bounded_tw_invalid_decomposition;
          QCheck_alcotest.to_alcotest qcheck_bounded_tw_differential;
          QCheck_alcotest.to_alcotest qcheck_bounded_tw_sparse;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "pigeonhole decisions" `Quick test_lex_pigeonhole;
          Alcotest.test_case "classes" `Quick test_lex_classes;
          Alcotest.test_case "enumeration keeps every copy" `Quick
            test_lex_enumeration;
          QCheck_alcotest.to_alcotest qcheck_lex_planted;
          QCheck_alcotest.to_alcotest qcheck_endo_classes;
          QCheck_alcotest.to_alcotest qcheck_columnar_of;
        ] );
    ]
