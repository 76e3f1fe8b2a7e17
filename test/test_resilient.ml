(* Csp.Resilient: the retry/escalation ladder never corrupts definitive
   answers, recovers from every Unknown reason it can (budget, crash),
   stops where it must (cancel), and the graded certain-answer layers
   built on it degrade soundly against the unlimited oracles. *)

open Certdb_csp
open Certdb_values
module Obs = Certdb_obs.Obs
module Fault = Certdb_obs.Fault

let check = Alcotest.(check bool)

let triangle =
  Structure.make
    ~nodes:[ (0, None); (1, None); (2, None) ]
    ~tuples:[ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ]) ]

let clique n =
  let nodes = List.init n (fun v -> (v, None)) in
  let edges =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if a <> b then Some [| a; b |] else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  Structure.make ~nodes ~tuples:[ ("E", edges) ]

let random_structure seed =
  let st = Random.State.make [| seed |] in
  let n = 2 + Random.State.int st 4 in
  let nodes = List.init n (fun v -> (v, None)) in
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Random.State.float st 1.0 < 0.35 then edges := [| a; b |] :: !edges
    done
  done;
  Structure.make ~nodes ~tuples:[ ("E", !edges) ]

(* --- the ladder invariant: definitive answers agree with the naive
   oracle under any (tight) budget and any escalation policy --- *)

let qcheck_ladder_sound =
  QCheck.Test.make ~count:200
    ~name:"Resilient.solve definitive answers agree with find_hom_naive"
    QCheck.(triple (int_range 0 5000) (int_range 0 5000) (int_range 1 8))
    (fun (s1, s2, nodes) ->
      let source = random_structure s1 and target = random_structure s2 in
      let naive = Solver.find_hom_naive ~source ~target () in
      let config =
        Engine.Config.make ~limits:(Engine.Limits.make ~nodes ()) ()
      in
      let r = Resilient.solve ~config ~source ~target () in
      match r.Resilient.outcome with
      | Engine.Sat h ->
        Engine.is_hom ~source ~target h && Option.is_some naive
      | Engine.Unsat -> Option.is_none naive
      | Engine.Unknown _ -> r.Resilient.rung = Resilient.Exhausted)

let qcheck_seeded_order_sound =
  QCheck.Test.make ~count:200
    ~name:"Seeded variable order agrees with find_hom_naive"
    QCheck.(triple (int_range 0 5000) (int_range 0 5000) (int_range 0 100))
    (fun (s1, s2, seed) ->
      let source = random_structure s1 and target = random_structure s2 in
      let naive = Solver.find_hom_naive ~source ~target () in
      let config =
        Engine.Config.make ~var_order:(Engine.Config.Seeded seed) ()
      in
      match Engine.solve ~config ~source ~target () with
      | Engine.Unknown _ ->
        QCheck.Test.fail_report "Unknown under an unlimited budget"
      | Engine.Sat h ->
        Engine.is_hom ~source ~target h && Option.is_some naive
      | Engine.Unsat -> Option.is_none naive)

(* --- one unit test per Unknown reason x ladder rung --- *)

(* node budget trips attempt 1; x10 escalation recovers *)
let test_recover_from_node_budget () =
  let policy =
    Resilient.Policy.make ~max_attempts:3 ~escalation:10.0 ()
  in
  let config =
    Engine.Config.make
      ~limits:(Engine.Limits.make ~nodes:1 ())
      ~propagation:Engine.Config.No_propagation ()
  in
  let r =
    Resilient.solve ~policy ~config ~source:triangle ~target:triangle ()
  in
  (match r.Resilient.outcome with
  | Engine.Sat h ->
    check "witness verifies" true
      (Engine.is_hom ~source:triangle ~target:triangle h)
  | _ -> Alcotest.fail "expected Sat after escalation");
  check "settled by a retry" true
    (match r.Resilient.rung with Resilient.Search n -> n > 1 | _ -> false)

(* backtrack budget trips attempt 1 on an Unsat instance; escalation
   recovers the definitive Unsat *)
let test_recover_from_backtrack_budget () =
  let policy =
    Resilient.Policy.make ~max_attempts:4 ~escalation:50.0
      ~propagate_first:false ()
  in
  let config =
    Engine.Config.make
      ~limits:(Engine.Limits.make ~backtracks:1 ())
      ~propagation:Engine.Config.No_propagation ()
  in
  let r =
    Resilient.solve ~policy ~config ~source:(clique 4) ~target:(clique 3) ()
  in
  check "Unsat recovered" true (r.Resilient.outcome = Engine.Unsat);
  check "by a search rung" true
    (match r.Resilient.rung with Resilient.Search _ -> true | _ -> false)

(* the deadline is not escalated, so a hopeless timeout exhausts *)
let test_deadline_exhausts () =
  let now = ref 0. in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock_ms (fun () -> Unix.gettimeofday () *. 1000.))
  @@ fun () ->
  (* every clock poll advances fake time by a minute: any deadline has
     already passed whenever the budget looks *)
  Obs.set_clock_ms (fun () ->
      now := !now +. 60_000.;
      !now);
  let policy =
    Resilient.Policy.make ~max_attempts:3 ~propagate_first:false ()
  in
  let config =
    Engine.Config.make ~limits:(Engine.Limits.make ~timeout_ms:1.0 ()) ()
  in
  let r =
    Resilient.solve ~policy ~config ~source:(clique 7) ~target:(clique 6) ()
  in
  check "outcome is Unknown Deadline" true
    (r.Resilient.outcome = Engine.Unknown Engine.Deadline);
  check "rung Exhausted" true (r.Resilient.rung = Resilient.Exhausted);
  Alcotest.(check int) "all attempts consumed" 3 r.Resilient.attempts

(* a tripped cancel token stays tripped: no retry, Exhausted at once *)
let test_cancelled_never_retries () =
  let cancel = Engine.Cancel.create () in
  Engine.Cancel.cancel cancel;
  let policy =
    Resilient.Policy.make ~max_attempts:5 ~propagate_first:false ()
  in
  let config =
    Engine.Config.make ~limits:(Engine.Limits.make ~cancel ()) ()
  in
  let r =
    Resilient.solve ~policy ~config ~source:triangle ~target:triangle ()
  in
  check "outcome is Unknown Cancelled" true
    (r.Resilient.outcome = Engine.Unknown Engine.Cancelled);
  check "rung Exhausted" true (r.Resilient.rung = Resilient.Exhausted);
  Alcotest.(check int) "exactly one attempt" 1 r.Resilient.attempts

(* a one-shot injected crash on the first search node is absorbed by the
   retry rung *)
let test_recover_from_injected_crash () =
  Fault.with_armed [ ("csp.search.node", Fault.Nth 1) ] @@ fun () ->
  let policy = Resilient.Policy.make ~propagate_first:false () in
  let r = Resilient.solve ~policy ~source:triangle ~target:triangle () in
  (match r.Resilient.outcome with
  | Engine.Sat h ->
    check "witness verifies" true
      (Engine.is_hom ~source:triangle ~target:triangle h)
  | _ -> Alcotest.fail "expected Sat on the retry");
  check "settled by attempt 2" true
    (r.Resilient.rung = Resilient.Search 2);
  Alcotest.(check int) "two attempts" 2 r.Resilient.attempts

(* a permanent crash (every hit) exhausts the ladder with Crashed *)
let test_permanent_crash_exhausts () =
  Fault.with_armed [ ("csp.search.node", Fault.Every 1) ] @@ fun () ->
  let policy =
    Resilient.Policy.make ~max_attempts:2 ~propagate_first:false ()
  in
  let r = Resilient.solve ~policy ~source:triangle ~target:triangle () in
  check "Unknown (Crashed csp.search.node)" true
    (r.Resilient.outcome = Engine.Unknown (Engine.Crashed "csp.search.node"));
  check "rung Exhausted" true (r.Resilient.rung = Resilient.Exhausted)

(* AC-3 wipeout: Unsat certified with zero search attempts *)
let test_propagation_certificate () =
  let target =
    (* labelled target with no label matching the source's nodes *)
    Structure.make ~nodes:[ (0, Some "b") ] ~tuples:[ ("E", [ [| 0; 0 |] ]) ]
  in
  let source =
    Structure.make ~nodes:[ (0, Some "a") ] ~tuples:[ ("E", [ [| 0; 0 |] ]) ]
  in
  let r = Resilient.solve ~source ~target () in
  check "Unsat" true (r.Resilient.outcome = Engine.Unsat);
  check "rung Propagation" true (r.Resilient.rung = Resilient.Propagation);
  Alcotest.(check int) "zero search attempts" 0 r.Resilient.attempts

let test_scale_limits () =
  let policy = Resilient.Policy.make ~escalation:4.0 () in
  let l = Engine.Limits.make ~nodes:10 ~backtracks:3 ~timeout_ms:50. () in
  let l1 = Resilient.scale_limits policy ~attempt:1 l in
  Alcotest.(check (option int)) "attempt 1 identity" (Some 10) l1.Engine.Limits.nodes;
  let l3 = Resilient.scale_limits policy ~attempt:3 l in
  Alcotest.(check (option int)) "nodes x16" (Some 160) l3.Engine.Limits.nodes;
  Alcotest.(check (option int)) "backtracks x16" (Some 48) l3.Engine.Limits.backtracks;
  check "deadline never scaled" true
    (l3.Engine.Limits.timeout_ms = Some 50.)

(* --- graded certain answers: relational, gdm, xml --- *)

module Cq = Certdb_query.Cq
module Certain = Certdb_query.Certain
module Instance = Certdb_relational.Instance
module Fo = Certdb_query.Fo

(* Boolean 3-cycle query: R(x,y), R(y,z), R(z,x) with empty head *)
let cycle3_q =
  Cq.make ~head:[]
    [
      ("R", [ Fo.Var "x"; Fo.Var "y" ]);
      ("R", [ Fo.Var "y"; Fo.Var "z" ]);
      ("R", [ Fo.Var "z"; Fo.Var "x" ]);
    ]

let c i = Value.int i

let test_certain_cq_resilient_sound () =
  let tight = Engine.Limits.make ~nodes:0 () in
  let policy = Resilient.Policy.no_retry in
  (* an instance with a loop: the 3-cycle query folds onto R(5,5), so
     the certain answer is true and even naive evaluation sees it; with
     a zero budget the resilient path must degrade to that sound lower
     bound *)
  let d_loop = Instance.of_list [ ("R", [ [ c 1; c 2 ]; [ c 5; c 5 ] ]) ] in
  (match Certain.certain_cq_resilient ~policy ~limits:tight cycle3_q d_loop with
  | `Lower_bound b ->
    check "lower bound is sound" true
      ((not b) || Certain.certain_cq_via_hom cycle3_q d_loop);
    check "naive evaluation finds the loop witness" true b
  | `Exact _ -> Alcotest.fail "zero node budget cannot settle exactly");
  (* 2-cycle instance: an odd cycle has no hom into it, the certain
     answer is false; the degraded answer must not claim true *)
  let d2 = Instance.of_list [ ("R", [ [ c 1; c 2 ]; [ c 2; c 1 ] ]) ] in
  (match Certain.certain_cq_resilient ~policy ~limits:tight cycle3_q d2 with
  | `Lower_bound b | `Exact b ->
    check "never claims an uncertain true" true
      ((not b) || Certain.certain_cq_via_hom cycle3_q d2));
  (* unlimited: exact, agreeing with the oracle on both instances *)
  (match Certain.certain_cq_resilient cycle3_q d_loop with
  | `Exact true -> ()
  | _ -> Alcotest.fail "unlimited on the loop instance must be `Exact true");
  match Certain.certain_cq_resilient cycle3_q d2 with
  | `Exact false -> ()
  | _ -> Alcotest.fail "unlimited on the 2-cycle must be `Exact false"

module Gdb = Certdb_gdm.Gdb
module Logic = Certdb_gdm.Logic
module Query_answering = Certdb_gdm.Query_answering

let n1 = Value.null 7001
let n2 = Value.null 7002

(* two "a"-nodes with unknown data: "some two nodes have different data"
   is not certain (ground both nulls to the same constant) *)
let two_nulls_gdb =
  Gdb.make ~nodes:[ (0, "a", [ n1 ]); (1, "a", [ n2 ]) ] ~tuples:[]

let differ_f =
  Logic.Exists
    ( [ "x"; "y" ],
      Logic.And
        ( Logic.And (Logic.Label ("a", "x"), Logic.Label ("a", "y")),
          Logic.Not (Logic.EqAttr (1, "x", 1, "y")) ) )

let test_certain_resilient_gdm () =
  let oracle = Query_answering.certain_existential two_nulls_gdb differ_f in
  check "oracle: not certain" false oracle;
  (* unlimited resilient agrees exactly *)
  (match Query_answering.certain_resilient two_nulls_gdb differ_f with
  | `Exact b -> Alcotest.(check bool) "exact agrees with oracle" oracle b
  | `Lower_bound _ -> Alcotest.fail "unlimited budget must settle exactly");
  (* zero budget: the fresh completion satisfies differ_f (two distinct
     fresh constants), so refutation fails and nothing is certified *)
  let tight = Engine.Limits.make ~nodes:0 () in
  let policy = Resilient.Policy.no_retry in
  (match
     Query_answering.certain_resilient ~policy ~limits:tight two_nulls_gdb
       differ_f
   with
  | `Lower_bound false -> ()
  | _ -> Alcotest.fail "expected `Lower_bound false");
  (* a sentence false on the fresh completion is refuted exactly even
     with a dead budget: "some node is not labelled a" *)
  let not_a = Logic.Exists ([ "x" ], Logic.Not (Logic.Label ("a", "x"))) in
  match
    Query_answering.certain_resilient ~policy ~limits:tight two_nulls_gdb
      not_a
  with
  | `Exact false -> ()
  | _ -> Alcotest.fail "fresh-completion refutation should give `Exact false"

module Tree = Certdb_xml.Tree
module Tree_hom = Certdb_xml.Tree_hom

let test_leq_resilient_xml () =
  let t = Tree.node "r" [ Tree.node "a" []; Tree.node "b" [] ] in
  let t' = Tree.node "r" [ Tree.node "a" []; Tree.node "b" [] ] in
  (* unlimited: exact and agreeing with leq *)
  (match Tree_hom.leq_resilient t t' with
  | `Exact b -> Alcotest.(check bool) "exact agrees with leq" (Tree_hom.leq t t') b
  | `Lower_bound _ -> Alcotest.fail "unlimited budget must settle exactly");
  (* zero budget: nothing certifiable for tree hom existence *)
  let tight = Engine.Limits.make ~nodes:0 () in
  match Tree_hom.leq_resilient ~policy:Resilient.Policy.no_retry ~limits:tight t t' with
  | `Lower_bound false -> ()
  | _ -> Alcotest.fail "expected `Lower_bound false under a dead budget"

(* the degrade rung survives a permanent crash: even the naive fallback's
   hom evaluation dies, and the answer is the trivially sound floor *)
let test_certain_cq_degrade_survives_permanent_crash () =
  Fault.with_armed [ ("csp.search.node", Fault.Every 1) ] @@ fun () ->
  let d = Instance.of_list [ ("R", [ [ c 5; c 5 ] ]) ] in
  match
    Certain.certain_cq_resilient ~policy:Resilient.Policy.no_retry cycle3_q d
  with
  | `Lower_bound false -> ()
  | _ -> Alcotest.fail "expected the trivially sound `Lower_bound false"

(* the unlimited shims have no limit to trip, so an injected crash is
   the only Unknown they can meet: it must escape as the fault itself,
   on the engine shims and on every hom layer encoded onto them *)
let test_unlimited_shims_reraise_fault () =
  let raises name f =
    match Fault.with_armed [ ("csp.search.node", Fault.Every 1) ] f with
    | _ -> Alcotest.failf "%s: expected Fault.Injected" name
    | exception Fault.Injected "csp.search.node" -> ()
  in
  let src = triangle and tgt = clique 3 in
  raises "find_hom" (fun () ->
      ignore (Solver.find_hom ~source:src ~target:tgt ()));
  raises "exists_hom" (fun () ->
      ignore (Solver.exists_hom ~source:src ~target:tgt ()));
  raises "iter_homs" (fun () ->
      Solver.iter_homs ~source:src ~target:tgt (fun _ -> `Continue));
  raises "count_homs" (fun () ->
      ignore (Solver.count_homs ~source:src ~target:tgt ()));
  let d = Instance.of_list [ ("R", [ [ Value.null 7201; c 1 ] ]) ] in
  let d' = Instance.of_list [ ("R", [ [ c 2; c 1 ] ]) ] in
  raises "Hom.exists" (fun () -> ignore (Certdb_relational.Hom.exists d d'));
  raises "Hom.count" (fun () -> ignore (Certdb_relational.Hom.count d d'));
  let g =
    Certdb_gdm.Gdb.make ~nodes:[ (0, "a", [ Value.null 7202 ]) ] ~tuples:[]
  in
  let g' = Certdb_gdm.Gdb.make ~nodes:[ (0, "a", [ c 1 ]) ] ~tuples:[] in
  raises "Ghom.exists" (fun () -> ignore (Certdb_gdm.Ghom.exists g g'))

module Constraints = Certdb_exchange.Constraints

(* the chase fault point: chase_b converts an injected step crash into
   Unknown (Crashed _) instead of a stack trace *)
let test_chase_fault_point () =
  let nx = Value.null 7101 and ny = Value.null 7102 and nz = Value.null 7103 in
  let cset =
    Constraints.make
      ~tgds:
        [
          Constraints.tgd
            ~body:(Instance.of_list [ ("S", [ [ nx; ny ] ]) ])
            ~head:(Instance.of_list [ ("T", [ [ nx; nz ] ]) ]);
        ]
      ()
  in
  let d = Instance.of_list [ ("S", [ [ c 1; c 2 ] ]) ] in
  Fault.with_armed [ ("exchange.chase.step", Fault.Nth 1) ] @@ fun () ->
  match Constraints.chase_b d cset with
  | Engine.Unknown (Engine.Crashed "exchange.chase.step") -> ()
  | _ -> Alcotest.fail "expected Unknown (Crashed exchange.chase.step)"

(* --- the Fault module itself --- *)

let count_fires point n =
  let fired = ref 0 in
  for _ = 1 to n do
    match Fault.hit point with
    | () -> ()
    | exception Fault.Injected _ -> incr fired
  done;
  !fired

let test_fault_triggers () =
  Fault.with_armed [ ("p", Fault.Nth 3) ] (fun () ->
      Alcotest.(check int) "Nth fires exactly once" 1 (count_fires "p" 10));
  Fault.with_armed [ ("p", Fault.Every 4) ] (fun () ->
      Alcotest.(check int) "Every 4 fires 5 times in 20" 5 (count_fires "p" 20));
  let seeded () =
    Fault.with_armed
      [ ("p", Fault.Seeded { seed = 42; per_mille = 300 }) ]
      (fun () ->
        List.init 200 (fun i ->
            match Fault.hit_k "p" (i + 1) with
            | () -> false
            | exception Fault.Injected _ -> true))
  in
  let a = seeded () and b = seeded () in
  check "seeded schedule is reproducible" true (a = b);
  let fires = List.length (List.filter Fun.id a) in
  check "seeded rate is roughly per_mille" true (fires > 20 && fires < 120);
  check "unarmed points never fire" true (count_fires "p" 100 = 0)

let test_fault_parse () =
  (match Fault.arm_from_string "csp.batch.task@2,csp.search.node~7:25" with
  | Ok () -> check "armed" true (Fault.armed ())
  | Error e -> Alcotest.fail e);
  Fault.disarm ();
  check "disarmed" false (Fault.armed ());
  (match Fault.arm_from_string "point%0" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "Every 0 must be rejected");
  match Fault.arm_from_string "no-trigger-here" with
  | Error _ -> Fault.disarm ()
  | Ok () -> Alcotest.fail "entry without a trigger must be rejected"

let () =
  Alcotest.run "resilient"
    [
      ( "invariant",
        [
          QCheck_alcotest.to_alcotest qcheck_ladder_sound;
          QCheck_alcotest.to_alcotest qcheck_seeded_order_sound;
        ] );
      ( "rungs",
        [
          Alcotest.test_case "node budget recovered" `Quick
            test_recover_from_node_budget;
          Alcotest.test_case "backtrack budget recovered" `Quick
            test_recover_from_backtrack_budget;
          Alcotest.test_case "deadline exhausts" `Quick test_deadline_exhausts;
          Alcotest.test_case "cancelled never retries" `Quick
            test_cancelled_never_retries;
          Alcotest.test_case "injected crash recovered" `Quick
            test_recover_from_injected_crash;
          Alcotest.test_case "permanent crash exhausts" `Quick
            test_permanent_crash_exhausts;
          Alcotest.test_case "propagation certificate" `Quick
            test_propagation_certificate;
          Alcotest.test_case "scale_limits" `Quick test_scale_limits;
        ] );
      ( "graded answers",
        [
          Alcotest.test_case "relational certain CQ" `Quick
            test_certain_cq_resilient_sound;
          Alcotest.test_case "gdm certain" `Quick test_certain_resilient_gdm;
          Alcotest.test_case "xml leq" `Quick test_leq_resilient_xml;
          Alcotest.test_case "degrade survives permanent crash" `Quick
            test_certain_cq_degrade_survives_permanent_crash;
          Alcotest.test_case "chase fault point" `Quick test_chase_fault_point;
          Alcotest.test_case "unlimited shims re-raise fault" `Quick
            test_unlimited_shims_reraise_fault;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "triggers" `Quick test_fault_triggers;
          Alcotest.test_case "parse grammar" `Quick test_fault_parse;
        ] );
    ]
