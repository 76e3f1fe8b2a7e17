(* lib/sat: the CDCL core's budget/fault contract, its [add_clause]
   normalisation against a list model and its incremental solves
   against brute force, agreement of the CNF encoding
   with the CSP engine (and its pre-columnar Reference oracle) on random
   hom instances, soundness of the symmetry-breaking clauses, golden
   CNFs with pinned search counts, the planner's SAT route, and the
   resilient ladder's backend crossing. *)

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
  Cdcl.add_clause s [| a; b |];
  Cdcl.add_clause s [| -a; b |];
  let r = Cdcl.solve s in
  check "sat" true (r = Engine.Sat ());
  (* b is forced: a model with b=false would violate one of the two *)
  check "b true" true (Cdcl.model_value s b);
  (* incremental: the clause set is permanent, adding ¬b flips it *)
  Cdcl.add_clause s [| -b |];
  check "unsat after -b" true (Cdcl.solve s = Engine.Unsat)

let test_cdcl_assumptions () =
  let s = Cdcl.create () in
  let a = Cdcl.new_var s in
  let b = Cdcl.new_var s in
  Cdcl.add_clause s [| a; b |];
  check "unsat under assumptions" true
    (Cdcl.solve ~assumptions:[ -a; -b ] s = Engine.Unsat);
  check "sat without them" true (Cdcl.solve s = Engine.Sat ())

let test_cdcl_empty_clause () =
  let s = Cdcl.create () in
  let _ = Cdcl.new_var s in
  Cdcl.add_clause s [||];
  check "empty clause" true (Cdcl.solve s = Engine.Unsat)

(* pigeonhole: n+1 pigeons into n holes — unsat, and small enough to
   refute quickly, but only through genuine conflicts *)
let pigeonhole s n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Cdcl.new_var s)) in
  for p = 0 to n do
    Cdcl.add_clause s (Array.copy var.(p))
  done;
  for h = 0 to n - 1 do
    for p = 0 to n do
      for q = p + 1 to n do
        Cdcl.add_clause s [| -var.(p).(h); -var.(q).(h) |]
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
  Dimacs.Recorder.add_clause r [| a; -b |];
  Dimacs.Recorder.add_clause r [| b |];
  let s = Dimacs.to_string ~comments:[ "hello" ] r in
  check "header" true
    (contains ~sub:"p cnf 2 2" s && contains ~sub:"c hello" s);
  check "recorder never solves" true
    (match Dimacs.Recorder.solve r with
    | Engine.Unknown (Engine.Crashed _) -> true
    | _ -> false)

(* --- add_clause normalisation against a list model ---

   The model is the clause-at-a-time semantics over lists: merge
   duplicates, drop a clause with a complementary pair or a root-true
   literal, drop root-false literals, and then an empty clause makes the
   set unsatisfiable and a unit assigns its literal at the root.  The
   solver must end in the same state — the same [inconsistent] flag and
   root assignment — and decide the clause set as brute force does. *)

let model_add (root : (int, bool) Hashtbl.t) unsat lits =
  let value l =
    Option.map (fun b -> b = (l > 0)) (Hashtbl.find_opt root (abs l))
  in
  if not !unsat then begin
    let lits = List.sort_uniq compare lits in
    if
      not
        (List.exists (fun l -> List.mem (-l) lits) lits
        || List.exists (fun l -> value l = Some true) lits)
    then
      match List.filter (fun l -> value l = None) lits with
      | [] -> unsat := true
      | [ l ] -> Hashtbl.replace root (abs l) (l > 0)
      | _ -> ()
  end

let brute_force_sat n clauses =
  let rec go v assign =
    if v > n then
      List.for_all
        (List.exists (fun l -> List.nth assign (abs l - 1) = (l > 0)))
        clauses
    else go (v + 1) (assign @ [ false ]) || go (v + 1) (assign @ [ true ])
  in
  go 1 []

let gen_clause_list n =
  QCheck.Gen.(
    let lit = map2 (fun v b -> if b then v else -v) (int_range 1 n) bool in
    let clause =
      frequency
        [
          (1, return []);
          (4, map (fun l -> [ l ]) lit);
          (4, list_size (int_range 2 3) lit);
          (* duplicates and complementary pairs on purpose *)
          (2, map2 (fun a b -> [ a; b; a; -b ]) lit lit);
          (2, map2 (fun a b -> [ a; b; b ]) lit lit);
          (2, list_size (int_range 4 7) lit);
          (* past the insertion-sort length *)
          (1, list_size (int_range 17 24) lit);
        ]
    in
    list_size (int_range 0 12) clause)

let gen_clauses =
  QCheck.Gen.(
    int_range 1 6 >>= fun n -> map (fun cs -> (n, cs)) (gen_clause_list n))

let print_clauses cs =
  String.concat "; "
    (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs)

let qcheck_add_clause_model =
  QCheck.Test.make ~count:1000 ~name:"add_clause matches the list model"
    (QCheck.make
       ~print:(fun (n, cs) ->
         Printf.sprintf "n=%d [%s]" n (print_clauses cs))
       gen_clauses)
    (fun (n, clauses) ->
      let s = Cdcl.create () in
      for _ = 1 to n do
        ignore (Cdcl.new_var s)
      done;
      let root = Hashtbl.create 8 and unsat = ref false in
      List.iter
        (fun c ->
          Cdcl.add_clause s (Array.of_list c);
          model_add root unsat c)
        clauses;
      (* the state after loading, before [solve] can learn more *)
      let same_flag = Bool.equal (Cdcl.inconsistent s) !unsat in
      let same_root =
        List.for_all
          (fun v -> Cdcl.root_value s v = Hashtbl.find_opt root v)
          (List.init n (fun i -> i + 1))
      in
      let sat = brute_force_sat n clauses in
      same_flag && same_root
      && (match Cdcl.solve s with
         | Engine.Sat () ->
           sat
           && List.for_all
                (List.exists (fun l -> Cdcl.model_value s (abs l) = (l > 0)))
                clauses
         | Engine.Unsat -> not sat
         | Engine.Unknown _ -> false))

(* Clauses and variables added after a [solve] join watch lists that
   are already laid out; every solve must still decide all the clauses
   so far, with a model that satisfies them. *)
let qcheck_incremental =
  QCheck.Test.make ~count:500 ~name:"incremental solves agree with brute force"
    (QCheck.make
       ~print:(fun (n, extra, c1, c2) ->
         Printf.sprintf "n=%d [%s] then +%d vars [%s]" n (print_clauses c1)
           extra (print_clauses c2))
       QCheck.Gen.(
         int_range 1 5 >>= fun n ->
         int_range 0 2 >>= fun extra ->
         pair (gen_clause_list n) (gen_clause_list (n + extra))
         >|= fun (c1, c2) -> (n, extra, c1, c2)))
    (fun (n, extra, c1, c2) ->
      let s = Cdcl.create () in
      let add_vars k =
        for _ = 1 to k do
          ignore (Cdcl.new_var s)
        done
      in
      let add = List.iter (fun c -> Cdcl.add_clause s (Array.of_list c)) in
      let decides n clauses =
        match Cdcl.solve s with
        | Engine.Sat () ->
          List.for_all
            (List.exists (fun l -> Cdcl.model_value s (abs l) = (l > 0)))
            clauses
        | Engine.Unsat -> not (brute_force_sat n clauses)
        | Engine.Unknown _ -> false
      in
      add_vars n;
      add c1;
      decides n c1
      &&
      (add_vars extra;
       add c2;
       decides (n + extra) (c1 @ c2)))

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
  match Engine.Compiled.interchangeable_classes compiled with
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
  let solves = counter_value "csp.sat.solves" in
  check "forced route answers" true
    (Plan.certain ~backend:Backend.Sat triangle_cq k3 = `Exact true);
  Alcotest.(check int)
    "query.plan.sat counted" (before + 1)
    (counter_value "query.plan.sat");
  check "forced route runs CDCL" true (counter_value "csp.sat.solves" > solves);
  (* under auto the symmetric route is counted, but the engine answers
     it: CDCL never runs *)
  let before = counter_value "query.plan.sat" in
  let solves = counter_value "csp.sat.solves" in
  check "auto refutes K4 into K3" true
    (Plan.certain ~backend:Backend.Auto (clique_cq 4) k3 = `Exact false);
  let k4 =
    Instance.of_list
      [
        ( "E",
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b -> if a <> b then Some [ c a; c b ] else None)
                [ 1; 2; 3; 4 ])
            [ 1; 2; 3; 4 ] );
      ]
  in
  check "auto finds K4 in K4" true
    (Plan.certain ~backend:Backend.Auto (clique_cq 4) k4 = `Exact true);
  Alcotest.(check int)
    "query.plan.sat counted under auto" (before + 2)
    (counter_value "query.plan.sat");
  Alcotest.(check int)
    "no CDCL solve under auto" solves
    (counter_value "csp.sat.solves")

(* --- golden CNFs and pinned search ---

   The encoder's clause set and order, and the CDCL's search on it, are
   pinned on three instances: the DIMACS text byte for byte (its digest
   and header for the two large ones, all of it for the small one), and
   the decisions, conflicts and propagations of one solve.  A faster
   encoder or kernel must leave all of them as they are. *)

(* the serve benchmark's miss workload "m" digraph: 20 constants, out
   degree 4, plus 10 edges into 5 nulls, drawn by the splitmix of
   perfbench/pb/workload.ml.  Relation names never reach the CNF, so its
   R is spelled E here, as in [clique_cq]. *)
let splitmix seed =
  let s = ref (seed land 0x3fffffffffffffff) in
  fun bound ->
    s := (!s + 0x1e3779b97f4a7c15) land 0x3fffffffffffffff;
    let z = ref !s in
    z := (!z lxor (!z lsr 30)) * 0x3f58476d1ce4e5b9 land 0x3fffffffffffffff;
    z := (!z lxor (!z lsr 27)) * 0x14d049bb133111eb land 0x3fffffffffffffff;
    z := !z lxor (!z lsr 31);
    !z mod bound

let miss_m_digraph () =
  let next = splitmix 0x3155 in
  let edges =
    List.concat_map
      (fun a -> List.init 4 (fun _ -> [ c (1 + a); c (1 + next 20) ]))
      (List.init 20 Fun.id)
  in
  let to_nulls =
    List.init 10 (fun k -> [ c (1 + next 20); Value.null (k mod 5) ])
  in
  Instance.of_list [ ("E", edges @ to_nulls) ]

(* bclique-4 (both edge directions per pair) anchored at a constant *)
let bclique4_at anchor =
  let q = clique_cq 4 in
  Cq.boolean
    (("E", [ Certdb_query.Fo.Val (c anchor); v "x0" ])
    :: List.map (fun (a : Cq.atom) -> (a.rel, a.args)) q.Cq.atoms)

let complete_digraph n =
  Instance.of_list
    [
      ( "E",
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if i <> j then Some [ c (i + 1); c (j + 1) ] else None)
              (List.init n Fun.id))
          (List.init n Fun.id) );
    ]

(* a ternary atom with a repeated variable, a node pinned to one target
   node, a unary and a 0-ary fact *)
let mixed_arity () =
  let source =
    Structure.make
      ~nodes:(List.init 4 (fun i -> (i, None)))
      ~tuples:
        [
          ("T", [ [| 0; 0; 1 |] ]); ("R", [ [| 1; 2 |]; [| 2; 3 |] ]);
          ("U", [ [| 3 |] ]); ("P", [ [||] ]);
        ]
  and target =
    Structure.make
      ~nodes:(List.init 4 (fun i -> (i, None)))
      ~tuples:
        [
          ("T", [ [| 0; 0; 1 |]; [| 0; 1; 1 |]; [| 2; 2; 3 |]; [| 1; 1; 1 |] ]);
          ("R", [ [| 1; 2 |]; [| 3; 0 |]; [| 1; 0 |]; [| 2; 1 |]; [| 0; 3 |] ]);
          ("U", [ [| 1 |]; [| 3 |] ]); ("P", [ [||] ]);
        ]
  in
  let restrict = Certdb_csp.Domains.singleton 2 0 in
  (source, target, restrict)

(* decisions, conflicts and propagations of [f ()] *)
let search_counts f =
  let names =
    [ "csp.sat.decisions"; "csp.sat.conflicts"; "csp.sat.propagations" ]
  in
  let before = List.map counter_value names in
  let r = f () in
  (r, List.map2 (fun n b -> counter_value n - b) names before)

let check_golden ~name ~md5 ~header text =
  let lines = String.split_on_char '\n' text in
  Alcotest.(check (list string))
    (name ^ " header") header
    (List.filter (fun l -> l <> "" && (l.[0] = 'c' || l.[0] = 'p')) lines);
  Alcotest.(check string)
    (name ^ " digest") md5
    (Digest.to_hex (Digest.string text))

let test_golden_bclique () =
  let q = bclique4_at 2 and d = miss_m_digraph () in
  check_golden ~name:"bclique-4@m/2" ~md5:"1493bc43f12156ebfffeb499e8660b41"
    ~header:
      [
        "c certdb Boolean-CQ certainty; zero_ok=true";
        "c sel_vars=101 tuple_vars=1036 clauses=3890 sym_classes=1 \
         largest_class=3";
        "p cnf 1137 3890";
      ]
    (Certain.certain_cq_dimacs q d);
  let r, counts = search_counts (fun () -> Certain.certain_cq_via_sat_b q d) in
  check "certain" true (r = `True);
  Alcotest.(check (list int))
    "decisions, conflicts, propagations" [ 35; 11; 3630 ] counts

let test_golden_clique6 () =
  let q = clique_cq 6 and d = complete_digraph 5 in
  check_golden ~name:"clique-6/K5" ~md5:"4c7d50552ac4b9d685a42532cbd5d329"
    ~header:
      [
        "c certdb Boolean-CQ certainty; zero_ok=true";
        "c sel_vars=30 tuple_vars=600 clauses=1346 sym_classes=1 \
         largest_class=6";
        "p cnf 630 1346";
      ]
    (Certain.certain_cq_dimacs q d);
  let r, counts = search_counts (fun () -> Certain.certain_cq_via_sat_b q d) in
  check "refuted" true (r = `False);
  Alcotest.(check (list int))
    "decisions, conflicts, propagations" [ 13; 14; 1844 ] counts

let mixed_arity_dimacs =
  String.concat "\n"
    [
      "c sel_vars=13 tuple_vars=8 clauses=40 sym_classes=0 largest_class=0";
      "p cnf 21 40";
      "1 2 3 4 0"; "-1 -2 0"; "-1 -3 0"; "-1 -4 0"; "-2 -3 0"; "-2 -4 0";
      "-3 -4 0"; "5 6 7 8 0"; "-5 -6 0"; "-5 -7 0"; "-5 -8 0"; "-6 -7 0";
      "-6 -8 0"; "-7 -8 0"; "9 0"; "10 11 12 13 0"; "-10 -11 0";
      "-10 -12 0"; "-10 -13 0"; "-11 -12 0"; "-11 -13 0"; "-12 -13 0";
      "-14 11 0"; "-15 13 0"; "15 14 0"; "-16 6 0"; "-16 1 0"; "-17 6 0";
      "-17 2 0"; "-18 8 0"; "-18 3 0"; "18 17 16 0"; "-19 9 0"; "-19 6 0";
      "-20 9 0"; "-20 8 0"; "20 19 0"; "-21 13 0"; "-21 9 0"; "21 0";
      "";
    ]

let test_golden_mixed () =
  let source, target, restrict = mixed_arity () in
  let text = Backend.dimacs ~restrict ~source ~target () in
  Alcotest.(check string) "mixed-arity DIMACS" mixed_arity_dimacs text;
  let r, counts =
    search_counts (fun () ->
        Backend.satisfiable ~config:(Engine.Config.make ~restrict ()) ~source
          ~target ())
  in
  check "sat" true (r = Engine.Sat ());
  Alcotest.(check (list int))
    "decisions, conflicts, propagations" [ 2; 0; 21 ] counts

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
          QCheck_alcotest.to_alcotest qcheck_add_clause_model;
          QCheck_alcotest.to_alcotest qcheck_incremental;
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
      ( "golden",
        [
          Alcotest.test_case "bclique-4@m anchored at 2" `Quick
            test_golden_bclique;
          Alcotest.test_case "6-clique into K5" `Quick test_golden_clique6;
          Alcotest.test_case "mixed arity" `Quick test_golden_mixed;
        ] );
      ( "routing",
        [ Alcotest.test_case "sat route" `Quick test_plan_sat_route ] );
    ]
