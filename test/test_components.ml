(* Property-based tests (qcheck) for the interned/bitset data layer and
   the component split of the existence search:

   - on sources of several groups linked only through pinned constants,
     with 0-ary facts and isolated nodes, [Engine.satisfiable] and
     [Engine.solve] (which solve the components one at a time) agree
     with the preserved map/set [Engine.Reference] core (which searches
     the whole instance), every witness is a homomorphism inside the
     restriction, and budgets never flip a definitive answer;
   - the compiled components partition the unpinned constrained nodes,
     match an independent count that ignores pinned nodes, and drive the
     [csp.components.*] metrics;
   - the compiled bitset engine agrees with [Engine.Reference]. *)

open Certdb_csp
open Certdb_graph
module Int_set = Structure.Int_set
module Int_map = Structure.Int_map
module Obs = Certdb_obs.Obs

let count = 60
let seed_arb = QCheck.int_range 0 10_000
let mk ?(count = count) name arb prop = QCheck.Test.make ~count ~name arb prop

let graph_structure ~seed ~vertices ~edge_prob =
  Digraph.to_structure (Digraph.random ~seed ~vertices ~edge_prob ())

let target_of_seed seed =
  graph_structure ~seed:(seed + 7919) ~vertices:5 ~edge_prob:0.45

(* --- multi-component sources --- *)

type instance = {
  source : Structure.t;
  target : Structure.t;
  restrict : Domains.t;
}

(* 2–3 groups of 2–4 nodes with random E edges and unary U facts, each
   linked by one edge to one of 1–2 constants (nodes pinned to one target
   node by a singleton restrict row), up to 2 isolated nodes, random
   restrict rows on group and isolated nodes, and an occasional 0-ary
   fact P() on either side.  Group node ids interleave, so MRV's ties
   fall between groups. *)
let multi_component seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let coin p = Random.State.float st 1.0 < p in
  let tnodes = 2 + int 4 in
  let target =
    ref
      (Structure.make
         ~nodes:(List.init tnodes (fun i -> (i, None)))
         ~tuples:[])
  in
  for a = 0 to tnodes - 1 do
    for b = 0 to tnodes - 1 do
      if coin 0.45 then target := Structure.add_tuple !target "E" [| a; b |]
    done
  done;
  if coin 0.5 then target := Structure.add_tuple !target "P" [||];
  for a = 0 to tnodes - 1 do
    if coin 0.5 then target := Structure.add_tuple !target "U" [| a |]
  done;
  let source = ref Structure.empty in
  let rows = Hashtbl.create 8 in
  let random_row () =
    Int_set.of_list (List.filter (fun _ -> coin 0.6) (List.init tnodes Fun.id))
  in
  let constants = 1 + int 2 in
  for k = 0 to constants - 1 do
    source := Structure.add_node !source (100 + k);
    Hashtbl.replace rows (100 + k) (Int_set.singleton (int tnodes))
  done;
  for g = 0 to 1 + int 2 do
    let n = 2 + int 3 in
    let node i = g + (3 * i) in
    for i = 0 to n - 1 do
      source := Structure.add_node !source (node i);
      for j = 0 to n - 1 do
        if coin 0.4 then
          source := Structure.add_tuple !source "E" [| node i; node j |]
      done;
      if coin 0.3 then source := Structure.add_tuple !source "U" [| node i |];
      if coin 0.3 then Hashtbl.replace rows (node i) (random_row ())
    done;
    let x = node (int n) and k = 100 + int constants in
    source :=
      Structure.add_tuple !source "E"
        (if coin 0.5 then [| x; k |] else [| k; x |])
  done;
  for k = 0 to int 3 - 1 do
    source := Structure.add_node !source (200 + k);
    if coin 0.3 then Hashtbl.replace rows (200 + k) (random_row ())
  done;
  if coin 0.3 then source := Structure.add_tuple !source "P" [||];
  {
    source = !source;
    target = !target;
    restrict = Domains.of_list (List.of_seq (Hashtbl.to_seq rows));
  }

let print_instance i =
  Format.asprintf "source %a@.target %a@.restrict %a" Structure.pp i.source
    Structure.pp i.target Domains.pp i.restrict

let instance_arb =
  QCheck.make ~print:print_instance
    (QCheck.Gen.map multi_component (QCheck.Gen.int_range 0 1_000_000))

let config_of ?limits i = Engine.Config.make ?limits ~restrict:i.restrict ()

(* the oracle: the reference core over the whole instance, conjoined with
   the 0-ary facts it ignores *)
let expected i =
  let zero_ok =
    List.for_all
      (fun (rel, t) -> Array.length t > 0 || Structure.mem_tuple i.target rel t)
      (Structure.all_tuples i.source)
  in
  zero_ok
  &&
  match
    Engine.Reference.satisfiable ~config:(config_of i) ~source:i.source
      ~target:i.target ()
  with
  | Engine.Sat () -> true
  | Engine.Unsat -> false
  | Engine.Unknown _ -> QCheck.Test.fail_report "unlimited reference tripped"

let respects_restrict i h =
  Int_map.for_all (fun v w -> Domains.mem i.restrict v w) h

let prop_components_agree =
  mk ~count:300 "components = whole instance" instance_arb (fun i ->
      let want = expected i in
      let config = config_of i in
      let sat =
        Engine.satisfiable ~config ~source:i.source ~target:i.target ()
      in
      let sol = Engine.solve ~config ~source:i.source ~target:i.target () in
      (match (want, sat) with
      | true, Engine.Sat () | false, Engine.Unsat -> ()
      | _ -> QCheck.Test.fail_report "satisfiable disagrees with the reference");
      match (want, sol) with
      | true, Engine.Sat h ->
        Engine.is_hom ~source:i.source ~target:i.target h
        && respects_restrict i h
      | false, Engine.Unsat -> true
      | _ -> QCheck.Test.fail_report "solve disagrees with the reference")

(* Budgets may turn a definitive answer into Unknown, never flip it. *)
let prop_components_budget_sound =
  mk ~count:200 "budgets never flip Sat/Unsat"
    QCheck.(pair instance_arb (int_range 1 40))
    (fun (i, nodes) ->
      let want = expected i in
      let config = config_of ~limits:(Engine.Limits.make ~nodes ()) i in
      let ok = function
        | Engine.Sat _ -> want
        | Engine.Unsat -> not want
        | Engine.Unknown _ -> true
      in
      ok (Engine.satisfiable ~config ~source:i.source ~target:i.target ())
      && ok (Engine.solve ~config ~source:i.source ~target:i.target ()))

(* The number of components, counted independently: classes of the
   nodes with more than one candidate that occur in some tuple, joined
   along tuples and never through a pinned node. *)
let unpinned_components i =
  let candidates v =
    match Domains.find i.restrict v with
    | None -> List.length (Structure.nodes i.target)
    | Some s ->
      Int_set.cardinal (Int_set.inter s (Int_set.of_list (Structure.nodes i.target)))
  in
  let unpinned v = candidates v <> 1 in
  let class_of = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt class_of v with
    | Some u when u <> v -> find u
    | _ -> v
  in
  List.iter
    (fun (_, t) ->
      let vs = List.filter unpinned (Array.to_list t) in
      List.iter (fun v -> if not (Hashtbl.mem class_of v) then Hashtbl.replace class_of v v) vs;
      match vs with
      | [] -> ()
      | v :: rest ->
        List.iter
          (fun u ->
            let a = find v and b = find u in
            if a <> b then Hashtbl.replace class_of b a)
          rest)
    (Structure.all_tuples i.source);
  Hashtbl.fold (fun v _ n -> if find v = v then n + 1 else n) class_of 0

let prop_split_partitions_source =
  mk ~count:200 "split partitions nodes and tuples" instance_arb (fun i ->
      let cp =
        Engine.compile ~restrict:i.restrict ~source:i.source ~target:i.target ()
      in
      let comp = cp.Engine.Compiled.comp in
      let ncomps = cp.Engine.Compiled.ncomps in
      let pinned v = Domains.Bitset.count cp.Engine.Compiled.init.(v) = 1 in
      (* every unpinned constrained variable lies in exactly one
         component, and every constraint's unpinned variables in one *)
      let classes_ok =
        Array.for_all
          (fun (c : Engine.Compiled.ccstr) ->
            let ids =
              List.sort_uniq compare
                (List.filter_map
                   (fun v -> if pinned v then None else Some comp.(v))
                   (Array.to_list c.Engine.Compiled.cvars))
            in
            List.for_all (fun k -> k >= 0 && k < ncomps) ids
            && List.length ids <= 1)
          cp.Engine.Compiled.cstrs
      in
      let pinned_ok =
        List.for_all
          (fun v -> (not (pinned v)) || comp.(v) = -1)
          (List.init cp.Engine.Compiled.nvars Fun.id)
      in
      let splits = Obs.counter "csp.components.splits" in
      let gauge = Obs.gauge "csp.components.count" in
      Obs.set_int gauge 0;
      let before = Obs.counter_value splits in
      ignore
        (Engine.satisfiable ~config:(config_of i) ~source:i.source
           ~target:i.target ());
      let bumped = Obs.counter_value splits - before in
      let metrics_ok =
        if ncomps >= 2 then
          bumped = 1 && int_of_float (Obs.gauge_value gauge) = ncomps
        else bumped = 0
      in
      classes_ok && pinned_ok && metrics_ok && ncomps = unpinned_components i)

(* A completed component must not cut a partly assigned one.  Component
   A = {a1 (node 0), a2 (node 2)} with E(a1,a2) and U(a2); component
   B = {b (node 1)} with F(b).  MRV first picks a1 = 0, which leaves a2
   two candidates that both fail U; b ties with a2 and comes first in
   node order, so a search that left A for B here would complete B, find
   no a2 below it, and cut the search, although a1 = 1, a2 = 2 works. *)
let test_completed_component_keeps_partial_one () =
  let source =
    Structure.make
      ~nodes:[ (0, None); (1, None); (2, None) ]
      ~tuples:[ ("E", [ [| 0; 2 |] ]); ("U", [ [| 2 |] ]); ("F", [ [| 1 |] ]) ]
  in
  let target =
    Structure.make
      ~nodes:(List.init 4 (fun w -> (w, None)))
      ~tuples:
        [
          ("E", [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 2 |]; [| 1; 3 |] ]);
          ("U", [ [| 2 |] ]);
          ("F", [ [| 0 |]; [| 1 |] ]);
        ]
  in
  let row = Int_set.of_list [ 0; 1 ] in
  let restrict = Domains.of_list [ (0, row); (1, row) ] in
  let config = Engine.Config.make ~restrict () in
  Alcotest.(check int)
    "two components" 2
    (Engine.compile ~restrict ~source ~target ()).Engine.Compiled.ncomps;
  match Engine.solve ~config ~source ~target () with
  | Engine.Sat h ->
    Alcotest.(check bool) "witness" true (Engine.is_hom ~source ~target h);
    Alcotest.(check (option int)) "a1" (Some 1) (Int_map.find_opt 0 h)
  | Engine.Unsat | Engine.Unknown _ -> Alcotest.fail "expected a witness"

(* --- compiled bitset engine vs preserved Reference core --- *)

let prop_engine_matches_reference =
  mk "engine = reference" seed_arb (fun seed ->
      let source = graph_structure ~seed ~vertices:5 ~edge_prob:0.35 in
      let target = target_of_seed seed in
      let a = Engine.solve ~source ~target () in
      let b = Engine.Reference.solve ~source ~target () in
      match (a, b) with
      | Engine.Sat h, Engine.Sat _ -> Engine.is_hom ~source ~target h
      | Engine.Unsat, Engine.Unsat -> true
      | _ -> false)

let prop_engine_matches_reference_restricted =
  mk "engine = reference under restrict" seed_arb (fun seed ->
      let source = graph_structure ~seed ~vertices:4 ~edge_prob:0.4 in
      let target = target_of_seed seed in
      let restrict =
        Domains.of_list
          (List.filter_map
             (fun v ->
               if v mod 2 = 0 then
                 Some
                   ( v,
                     Int_set.of_list
                       (List.filter
                          (fun w -> w mod 2 = seed mod 2)
                          (Structure.nodes target)) )
               else None)
             (Structure.nodes source))
      in
      let config = Engine.Config.make ~restrict () in
      let a = Engine.satisfiable ~config ~source ~target () in
      let b = Engine.Reference.satisfiable ~config ~source ~target () in
      match (a, b) with
      | Engine.Sat (), Engine.Sat () | Engine.Unsat, Engine.Unsat -> true
      | _ -> false)

(* --- implicit node registration --- *)

let prop_add_tuple_registers =
  mk "add_tuple registers nodes" seed_arb (fun seed ->
      let tup = [| seed mod 7; (seed / 7) mod 7 |] in
      let s = Structure.add_tuple Structure.empty "E" tup in
      Array.for_all (fun v -> List.mem v (Structure.nodes s)) tup
      && Structure.mem_tuple s "E" tup)

let all_props =
  [
    prop_components_agree;
    prop_components_budget_sound;
    prop_split_partitions_source;
    prop_engine_matches_reference;
    prop_engine_matches_reference_restricted;
    prop_add_tuple_registers;
  ]

let () =
  Alcotest.run "components"
    [
      ("qcheck", List.map QCheck_alcotest.to_alcotest all_props);
      ( "split",
        [
          Alcotest.test_case "a completed component keeps a partial one"
            `Quick test_completed_component_keeps_partial_one;
        ] );
    ]
