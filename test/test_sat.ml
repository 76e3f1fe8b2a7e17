(* lib/sat: the CDCL core's budget/fault contract, agreement of the CNF
   encoding with the CSP engine (and its pre-columnar Reference oracle)
   on random hom instances, soundness of the symmetry-breaking clauses,
   the planner's SAT route, and the resilient ladder's backend
   crossing. *)

open Certdb_values
module Obs = Certdb_obs.Obs
module Fault = Certdb_obs.Fault
module Engine = Certdb_csp.Engine
module Structure = Certdb_csp.Structure
module Cdcl = Certdb_sat.Solver.Cdcl
module Dimacs = Certdb_sat.Dimacs
module Encode = Certdb_sat.Encode
module Backend = Certdb_sat.Backend
module Decider = Certdb_csp.Decider
module Instance = Certdb_relational.Instance
module Cq = Certdb_query.Cq
module Certain = Certdb_query.Certain
module Plan = Certdb_analysis.Plan

let check = Alcotest.(check bool)
let counter_value name = Obs.counter_value (Obs.counter name)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0
let c i = Value.int i
let v x = Certdb_query.Fo.Var x

(* --- the CDCL core --- *)

(* NB: always bind the solve result before reading model values —
   Printf evaluates arguments right to left, so inlining both calls in
   one format application reads the model before it exists. *)

let test_cdcl_sat_model () =
  let s = Cdcl.create () in
  let a = Cdcl.new_var s in
  let b = Cdcl.new_var s in
  Cdcl.add_clause s [ a; b ];
  Cdcl.add_clause s [ -a; b ];
  let r = Cdcl.solve s in
  check "sat" true (r = Engine.Sat ());
  (* b is forced: a model with b=false would violate one of the two *)
  check "b true" true (Cdcl.model_value s b);
  (* incremental: the clause set is permanent, adding ¬b flips it *)
  Cdcl.add_clause s [ -b ];
  check "unsat after -b" true (Cdcl.solve s = Engine.Unsat)

let test_cdcl_assumptions () =
  let s = Cdcl.create () in
  let a = Cdcl.new_var s in
  let b = Cdcl.new_var s in
  Cdcl.add_clause s [ a; b ];
  check "unsat under assumptions" true
    (Cdcl.solve ~assumptions:[ -a; -b ] s = Engine.Unsat);
  check "sat without them" true (Cdcl.solve s = Engine.Sat ())

let test_cdcl_empty_clause () =
  let s = Cdcl.create () in
  let _ = Cdcl.new_var s in
  Cdcl.add_clause s [];
  check "empty clause" true (Cdcl.solve s = Engine.Unsat)

(* pigeonhole: n+1 pigeons into n holes — unsat, and small enough to
   refute quickly, but only through genuine conflicts *)
let pigeonhole s n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Cdcl.new_var s)) in
  for p = 0 to n do
    Cdcl.add_clause s (Array.to_list var.(p))
  done;
  for h = 0 to n - 1 do
    for p = 0 to n do
      for q = p + 1 to n do
        Cdcl.add_clause s [ -var.(p).(h); -var.(q).(h) ]
      done
    done
  done

let test_cdcl_pigeonhole () =
  let s = Cdcl.create () in
  pigeonhole s 3;
  check "php(4,3) unsat" true (Cdcl.solve s = Engine.Unsat);
  check "needed conflicts" true (Cdcl.conflicts s > 0)

let test_cdcl_budgets () =
  let s = Cdcl.create () in
  pigeonhole s 4;
  let r = Cdcl.solve ~limits:(Engine.Limits.make ~backtracks:0 ()) s in
  check "conflict budget" true (r = Engine.Unknown Engine.Backtrack_budget);
  let r = Cdcl.solve ~limits:(Engine.Limits.make ~nodes:0 ()) s in
  check "decision budget" true (r = Engine.Unknown Engine.Node_budget);
  let cancel = Engine.Cancel.create () in
  Engine.Cancel.cancel cancel;
  let r = Cdcl.solve ~limits:(Engine.Limits.make ~cancel ()) s in
  check "cancelled" true (r = Engine.Unknown Engine.Cancelled);
  (* the budgets left no mark: the full solve is still definitive *)
  check "still unsat" true (Cdcl.solve s = Engine.Unsat)

let test_cdcl_fault_point () =
  let s = Cdcl.create () in
  pigeonhole s 3;
  Fault.with_armed [ (Certdb_sat.Solver.conflict_fault_point, Fault.Every 1) ]
  @@ fun () ->
  match Cdcl.solve s with
  | Engine.Unknown (Engine.Crashed p) ->
    check "fault point name" true (p = "csp.sat.conflict")
  | _ -> Alcotest.fail "expected Unknown (Crashed csp.sat.conflict)"

let test_recorder () =
  let r = Dimacs.Recorder.create () in
  let a = Dimacs.Recorder.new_var r in
  let b = Dimacs.Recorder.new_var r in
  Dimacs.Recorder.add_clause r [ a; -b ];
  Dimacs.Recorder.add_clause r [ b ];
  let s = Dimacs.to_string ~comments:[ "hello" ] r in
  check "header" true
    (contains ~sub:"p cnf 2 2" s && contains ~sub:"c hello" s);
  check "recorder never solves" true
    (match Dimacs.Recorder.solve r with
    | Engine.Unknown (Engine.Crashed _) -> true
    | _ -> false)

(* --- encoding vs the engine: random hom instances --- *)

let random_structure ?(zero = false) seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 4 in
  let nodes = List.init n (fun v -> (v, None)) in
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Random.State.float st 1.0 < 0.35 then edges := [| a; b |] :: !edges
    done
  done;
  let tuples = [ ("E", !edges) ] in
  (* occasionally a 0-ary fact: present in the source but not the
     target must force Unsat (the engine's zero_ok semantics) *)
  let tuples =
    if zero && Random.State.int st 3 = 0 then ("P", [ [||] ]) :: tuples
    else tuples
  in
  Structure.make ~nodes ~tuples

(* a source with a deliberately interchangeable block: k front nodes
   share their attachment pattern (and optionally form a clique), so the
   symmetry breaker has real classes to order *)
let symmetric_source seed =
  let st = Random.State.make [| seed |] in
  let k = 2 + Random.State.int st 3 in
  let anchors = 1 + Random.State.int st 2 in
  let nodes = List.init (k + anchors) (fun v -> (v, None)) in
  let edges = ref [] in
  for a = 0 to anchors - 1 do
    if Random.State.bool st then
      for i = 0 to k - 1 do
        edges := [| i; k + a |] :: !edges
      done
  done;
  if Random.State.bool st then
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        if i <> j then edges := [| i; j |] :: !edges
      done
    done;
  Structure.make ~nodes ~tuples:[ ("E", !edges) ]

let qcheck_sat_vs_engine =
  QCheck.Test.make ~count:300
    ~name:"SAT backend agrees with the engine (0-ary facts included)"
    QCheck.(pair (int_range 0 20000) (int_range 0 20000))
    (fun (s1, s2) ->
      let source = random_structure ~zero:true s1
      and target = random_structure ~zero:true s2 in
      match (Backend.solve ~source ~target (), Engine.solve ~source ~target ())
      with
      | Engine.Sat h, Engine.Sat _ -> Engine.is_hom ~source ~target h
      | Engine.Unsat, Engine.Unsat -> true
      | Engine.Unknown _, _ | _, Engine.Unknown _ ->
        QCheck.Test.fail_report "Unknown under an unlimited budget"
      | _ -> false)

let qcheck_sat_vs_reference =
  QCheck.Test.make ~count:300
    ~name:"SAT backend agrees with Engine.Reference (no 0-ary facts)"
    QCheck.(pair (int_range 0 20000) (int_range 0 20000))
    (fun (s1, s2) ->
      let source = random_structure s1 and target = random_structure s2 in
      match
        ( Backend.satisfiable ~source ~target (),
          Engine.Reference.satisfiable ~source ~target () )
      with
      | Engine.Sat (), Engine.Sat () | Engine.Unsat, Engine.Unsat -> true
      | Engine.Unknown _, _ | _, Engine.Unknown _ ->
        QCheck.Test.fail_report "Unknown under an unlimited budget"
      | _ -> false)

let qcheck_symmetry_sound =
  QCheck.Test.make ~count:300
    ~name:"symmetry-breaking clauses never change satisfiability"
    QCheck.(pair (int_range 0 20000) (int_range 0 20000))
    (fun (s1, s2) ->
      let source = symmetric_source s1 and target = random_structure s2 in
      let with_sym = Backend.satisfiable ~symmetry:true ~source ~target ()
      and without = Backend.satisfiable ~symmetry:false ~source ~target () in
      match (with_sym, without) with
      | Engine.Sat (), Engine.Sat () | Engine.Unsat, Engine.Unsat -> true
      | _ -> false)

let test_encode_edges () =
  (* empty source: the empty hom, trivially Sat *)
  let empty = Structure.make ~nodes:[] ~tuples:[] in
  let k2 =
    Structure.make
      ~nodes:[ (0, None); (1, None) ]
      ~tuples:[ ("E", [ [| 0; 1 |]; [| 1; 0 |] ]) ]
  in
  check "empty source" true
    (Backend.satisfiable ~source:empty ~target:k2 () = Engine.Sat ());
  (* empty candidate domain: the target has no E tuples at all *)
  let loop =
    Structure.make ~nodes:[ (0, None) ] ~tuples:[ ("E", [ [| 0; 0 |] ]) ]
  in
  let no_edges = Structure.make ~nodes:[ (0, None); (1, None) ] ~tuples:[] in
  check "missing target relation" true
    (Backend.satisfiable ~source:loop ~target:no_edges () = Engine.Unsat);
  (* budget mapping: conflicts tick the backtrack budget *)
  let tri =
    Structure.make
      ~nodes:[ (0, None); (1, None); (2, None) ]
      ~tuples:[ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ]) ]
  in
  check "conflict budget surfaces" true
    (Backend.satisfiable
       ~config:
         (Engine.Config.make ~limits:(Engine.Limits.make ~backtracks:0 ()) ())
       ~source:tri ~target:k2 ()
    = Engine.Unknown Engine.Backtrack_budget)

let test_interchangeable_classes () =
  (* three nodes with identical attachments and a distinct anchor: one
     class of three, the anchor in none *)
  let source =
    Structure.make
      ~nodes:[ (0, None); (1, None); (2, None); (3, None) ]
      ~tuples:[ ("E", [ [| 0; 3 |]; [| 1; 3 |]; [| 2; 3 |] ]) ]
  in
  let target =
    Structure.make
      ~nodes:[ (0, None); (1, None) ]
      ~tuples:[ ("E", [ [| 0; 1 |] ]) ]
  in
  let compiled = Engine.compile ~source ~target () in
  match Encode.interchangeable_classes compiled with
  | [| cls |] -> check "class of three" true (Array.length cls = 3)
  | other ->
    Alcotest.failf "expected one class, got %d" (Array.length other)

(* --- Boolean-CQ certainty through the SAT backend --- *)

let triangle_cq =
  Cq.boolean
    [
      ("E", [ v "x"; v "y" ]); ("E", [ v "y"; v "z" ]); ("E", [ v "z"; v "x" ]);
    ]

let k2 = Instance.of_list [ ("E", [ [ c 1; c 2 ]; [ c 2; c 1 ] ]) ]

let k3 =
  Instance.of_list
    [
      ( "E",
        [
          [ c 1; c 2 ]; [ c 2; c 1 ]; [ c 1; c 3 ]; [ c 3; c 1 ];
          [ c 2; c 3 ]; [ c 3; c 2 ];
        ] );
    ]

let test_certain_sat_agrees () =
  List.iter
    (fun (q, d) ->
      let sat = Certain.certain_cq_via_sat_b q d in
      let csp = Certain.certain_cq_via_hom_b q d in
      check "sat = csp" true (sat = csp))
    [ (triangle_cq, k2); (triangle_cq, k3) ];
  check "triangle not certain in k2" true
    (Certain.certain_cq_via_sat_b triangle_cq k2 = `False);
  check "triangle certain in k3" true
    (Certain.certain_cq_via_sat_b triangle_cq k3 = `True)

let test_certain_dimacs () =
  let s = Certain.certain_cq_dimacs triangle_cq k2 in
  check "dimacs header" true (contains ~sub:"p cnf " s);
  check "zero_ok comment" true
    (contains ~sub:"zero_ok=true" s)

(* satellite (c): the injected-conflict fault surfaces as a Crashed
   Unknown from the SAT route, and the resilient ladder crosses to the
   CSP backend instead of degrading *)
let test_certain_sat_fault () =
  Fault.with_armed [ ("csp.sat.conflict", Fault.Every 1) ] @@ fun () ->
  match Certain.certain_cq_via_sat_b triangle_cq k2 with
  | `Unknown (Engine.Crashed "csp.sat.conflict") -> ()
  | _ -> Alcotest.fail "expected Unknown (Crashed csp.sat.conflict)"

let test_certain_sat_crash_crosses_to_csp () =
  let before = counter_value "csp.resilient.crossed" in
  let answer =
    Fault.with_armed [ ("csp.sat.conflict", Fault.Every 1) ] @@ fun () ->
    Certain.certain_cq_resilient ~fallback:Decider.engine (Backend.decider ())
      triangle_cq k2
  in
  (* every CDCL attempt crashed; the CSP rung still settles it exactly *)
  check "exact despite sat crash" true (answer = `Exact false);
  Alcotest.(check int)
    "crossed counted" (before + 1)
    (counter_value "csp.resilient.crossed")

let test_certain_backends_never_flip () =
  List.iter
    (fun (decider, fallback) ->
      check "triangle/k2 false" true
        (Certain.certain_cq_resilient ?fallback decider triangle_cq k2
        = `Exact false);
      check "triangle/k3 true" true
        (Certain.certain_cq_resilient ?fallback decider triangle_cq k3
        = `Exact true))
    [ (Decider.engine, None); (Backend.decider (), Some Decider.engine) ];
  (* Auto is the planner's choice between the two *)
  List.iter
    (fun backend ->
      check "planned triangle/k2 false" true
        (Plan.certain ~backend triangle_cq k2 = `Exact false);
      check "planned triangle/k3 true" true
        (Plan.certain ~backend triangle_cq k3 = `Exact true))
    [ Backend.Csp; Backend.Sat; Backend.Auto ]

(* --- the planner's SAT route --- *)

let clique_cq k =
  let vars = List.init k (fun i -> "x" ^ string_of_int i) in
  Cq.boolean
    (List.concat_map
       (fun a ->
         List.filter_map
           (fun b -> if a <> b then Some ("E", [ v a; v b ]) else None)
           vars)
       vars)

let test_plan_sat_route () =
  (* auto: cyclic, wide, dense, and fully interchangeable — the SAT
     certificate fires with the whole clique as one class *)
  (match (Plan.route_cq ~backend:Backend.Auto (clique_cq 4)).Plan.route with
  | Plan.Sat_backend k -> Alcotest.(check int) "class size" 4 k
  | r -> Alcotest.failf "auto routed to %s" (Plan.route_to_string r));
  (* the default backend never routes to SAT: pinned outputs stay put *)
  (match (Plan.route_cq (clique_cq 4)).Plan.route with
  | Plan.Sat_backend _ -> Alcotest.fail "csp default must not route to SAT"
  | _ -> ());
  (* an acyclic query is never SAT-eligible under auto *)
  (match
     (Plan.route_cq ~backend:Backend.Auto
        (Cq.boolean [ ("E", [ v "x"; v "y" ]) ]))
       .Plan.route
   with
  | Plan.Sat_backend _ -> Alcotest.fail "acyclic query routed to SAT"
  | _ -> ());
  (* explicit --backend sat forces the route, and the counter tracks it *)
  let before = counter_value "query.plan.sat" in
  check "forced route answers" true
    (Plan.certain ~backend:Backend.Sat triangle_cq k3 = `Exact true);
  Alcotest.(check int)
    "query.plan.sat counted" (before + 1)
    (counter_value "query.plan.sat")

let () =
  Alcotest.run "sat"
    [
      ( "cdcl",
        [
          Alcotest.test_case "sat model" `Quick test_cdcl_sat_model;
          Alcotest.test_case "assumptions" `Quick test_cdcl_assumptions;
          Alcotest.test_case "empty clause" `Quick test_cdcl_empty_clause;
          Alcotest.test_case "pigeonhole" `Quick test_cdcl_pigeonhole;
          Alcotest.test_case "budgets and cancel" `Quick test_cdcl_budgets;
          Alcotest.test_case "conflict fault point" `Quick
            test_cdcl_fault_point;
          Alcotest.test_case "dimacs recorder" `Quick test_recorder;
        ] );
      ( "encoding",
        [
          QCheck_alcotest.to_alcotest qcheck_sat_vs_engine;
          QCheck_alcotest.to_alcotest qcheck_sat_vs_reference;
          QCheck_alcotest.to_alcotest qcheck_symmetry_sound;
          Alcotest.test_case "edge cases and budgets" `Quick test_encode_edges;
          Alcotest.test_case "interchangeable classes" `Quick
            test_interchangeable_classes;
        ] );
      ( "certainty",
        [
          Alcotest.test_case "agrees with hom check" `Quick
            test_certain_sat_agrees;
          Alcotest.test_case "dimacs export" `Quick test_certain_dimacs;
          Alcotest.test_case "fault surfaces as crash" `Quick
            test_certain_sat_fault;
          Alcotest.test_case "crash crosses to csp" `Quick
            test_certain_sat_crash_crosses_to_csp;
          Alcotest.test_case "backends never flip" `Quick
            test_certain_backends_never_flip;
        ] );
      ( "routing",
        [ Alcotest.test_case "sat route" `Quick test_plan_sat_route ] );
    ]
