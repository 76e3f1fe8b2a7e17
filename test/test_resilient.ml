(* Csp.Resilient: one budgeted attempt never corrupts definitive
   answers, a larger budget never changes one, the fallback runs only
   in the time left, the run stops where it must (cancel, the one
   deadline), and the graded certain-answer layers built on it degrade
   soundly against the unlimited oracles. *)

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

let random_digraph ?(max_nodes = 5) ?(p = 0.35) seed =
  let st = Random.State.make [| seed |] in
  let n = 2 + Random.State.int st (max_nodes - 1) in
  let nodes = List.init n (fun v -> (v, None)) in
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Random.State.float st 1.0 < p then edges := [| a; b |] :: !edges
    done
  done;
  Structure.make ~nodes ~tuples:[ ("E", !edges) ]

(* --- the invariant: definitive answers agree with the naive oracle
   under any (tight) budget --- *)

(* the bitset engine under one resilient run, with a witness to verify *)
let solve ?policy ?fallback ~limits ~source ~target () =
  Resilient.run ?policy ?fallback ~limits (fun limits ->
      Engine.solve ~config:(Engine.Config.make ~limits ()) ~source ~target ())

let qcheck_ladder_sound =
  QCheck.Test.make ~count:200
    ~name:"Resilient.run definitive answers agree with find_hom_naive"
    QCheck.(triple (int_range 0 5000) (int_range 0 5000) (int_range 1 8))
    (fun (s1, s2, nodes) ->
      let source = random_digraph s1 and target = random_digraph s2 in
      let naive = Solver.find_hom_naive ~source ~target () in
      let r =
        solve ~limits:(Engine.Limits.make ~nodes ()) ~source ~target ()
      in
      match r.Resilient.outcome with
      | Engine.Sat h ->
        Engine.is_hom ~source ~target h && Option.is_some naive
      | Engine.Unsat -> Option.is_none naive
      | Engine.Unknown _ -> r.Resilient.rung = Resilient.Exhausted)

(* What one attempt rests on: a search's path never reads its budget, so
   a definitive answer under node and backtrack budgets [b] is the same
   answer under any [b' >= b], on every decider the planner runs. *)
let deciders =
  [ Decider.engine; Decider.btw; Certdb_sat.Backend.decider () ]

let qcheck_budget_monotone =
  let budget = QCheck.(pair (int_range 0 12) (int_range 0 12)) in
  QCheck.Test.make ~count:500
    ~name:"a definitive answer stands under any larger budget"
    QCheck.(
      quad (pair (int_range 0 100_000) (int_range 0 100_000)) budget
        (pair (int_range 0 40) (int_range 0 40))
        (int_range 0 2))
    (fun ((s1, s2), (n, b), (dn, db), which) ->
      let source = random_digraph ~max_nodes:8 ~p:0.5 s1
      and target = random_digraph ~max_nodes:5 ~p:0.45 s2 in
      let decider = List.nth deciders which in
      let at nodes backtracks =
        decider.Decider.satisfiable
          (Engine.Config.make
             ~limits:(Engine.Limits.make ~nodes ~backtracks ())
             ())
          source target
      in
      match at n b with
      | Engine.Unknown _ -> true
      | definitive -> (
        match (definitive, at (n + dn) (b + db)) with
        | Engine.Sat (), Engine.Sat () | Engine.Unsat, Engine.Unsat -> true
        | _ ->
          QCheck.Test.fail_reportf "%s changed its answer at (%d, %d)"
            decider.Decider.name (n + dn) (b + db)))

(* a saturated budget is the largest one: max_attempts 40 settles, with
   the same answer, every instance that max_attempts 3 settles *)
let test_saturated_budget_settles_more () =
  let run max_attempts (source, target) =
    (Resilient.run
       ~policy:(Resilient.Policy.make ~max_attempts ())
       ~limits:(Engine.Limits.make ~nodes:10 ~backtracks:10 ())
       (fun limits ->
         Decider.engine.satisfiable (Engine.Config.make ~limits ()) source
           target))
      .Resilient.outcome
  in
  List.iter
    (fun seed ->
      let pair =
        ( random_digraph ~max_nodes:9 ~p:0.5 seed,
          random_digraph ~max_nodes:6 ~p:0.3 (seed + 7919) )
      in
      match (run 3 pair, run 40 pair) with
      | Engine.Unknown _, _ -> ()
      | Engine.Sat (), Engine.Sat () | Engine.Unsat, Engine.Unsat -> ()
      | _ -> Alcotest.failf "seed %d: max_attempts 40 lost an answer" seed)
    (List.init 60 Fun.id)

(* --- one unit test per Unknown reason x rung --- *)

(* the triangle onto itself takes three decisions: a one-node budget
   trips the bare call, and the same budget x10^2 settles it in the one
   attempt *)
let test_recover_from_node_budget () =
  let limits = Engine.Limits.make ~nodes:1 () in
  check "the bare budget trips" true
    ((solve ~policy:Resilient.Policy.no_retry ~limits ~source:triangle
        ~target:triangle ())
       .Resilient.outcome = Engine.Unknown Engine.Node_budget);
  let policy =
    Resilient.Policy.make ~max_attempts:3 ~escalation:10.0 ()
  in
  let r = solve ~policy ~limits ~source:triangle ~target:triangle () in
  (match r.Resilient.outcome with
  | Engine.Sat h ->
    check "witness verifies" true
      (Engine.is_hom ~source:triangle ~target:triangle h)
  | _ -> Alcotest.fail "expected Sat under the scaled budget");
  check "settled by the search" true (r.Resilient.rung = Resilient.Search)

(* a one-backtrack budget trips on an Unsat instance (K4 has no hom into
   K3, and forward checking still meets dead ends refuting it); the
   budget x50^3 settles the definitive Unsat in one attempt *)
let test_recover_from_backtrack_budget () =
  let limits = Engine.Limits.make ~backtracks:1 () in
  check "the bare budget trips" true
    ((solve ~policy:Resilient.Policy.no_retry ~limits ~source:(clique 4)
        ~target:(clique 3) ())
       .Resilient.rung = Resilient.Exhausted);
  let policy = Resilient.Policy.make ~max_attempts:4 ~escalation:50.0 () in
  let r = solve ~policy ~limits ~source:(clique 4) ~target:(clique 3) () in
  check "Unsat settled" true (r.Resilient.outcome = Engine.Unsat);
  check "by the search" true (r.Resilient.rung = Resilient.Search)

(* A clock that only moves when a call says so: the call spends [spend]
   ms and trips its node budget.  Records the timeout each call was
   handed. *)
let with_fake_clock f =
  let now = ref 0. in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock_ms (fun () -> Unix.gettimeofday () *. 1000.))
  @@ fun () ->
  Obs.set_clock_ms (fun () -> !now);
  f now

let spending now ~spend seen (l : Engine.Limits.t) =
  seen := l.Engine.Limits.timeout_ms :: !seen;
  now := !now +. spend;
  Engine.Unknown Engine.Node_budget

let attempts () = Obs.counter_value (Obs.counter "csp.resilient.attempts")

(* the attempt gets the whole timeout, the fallback only the time left
   before the run's one deadline *)
let test_fallback_gets_time_left () =
  with_fake_clock @@ fun now ->
  let seen = ref [] and fallback_saw = ref [] in
  let before = attempts () in
  let r =
    Resilient.run
      ~fallback:("other", spending now ~spend:0. fallback_saw)
      ~limits:(Engine.Limits.make ~nodes:1 ~timeout_ms:100. ())
      (spending now ~spend:30. seen)
  in
  Alcotest.(check (list (option (float 1e-9))))
    "the attempt sees 100 ms" [ Some 100. ] !seen;
  Alcotest.(check (list (option (float 1e-9))))
    "the fallback sees the last 70 ms" [ Some 70. ] !fallback_saw;
  Alcotest.(check int) "one attempt counted" 1 (attempts () - before);
  check "outcome keeps the primary's reason" true
    (r.Resilient.outcome = Engine.Unknown Engine.Node_budget);
  check "rung Exhausted" true (r.Resilient.rung = Resilient.Exhausted)

(* once no time is left the fallback does not start, and the run
   reports the deadline *)
let test_deadline_exhausts () =
  with_fake_clock @@ fun now ->
  let seen = ref [] and fallback_saw = ref [] in
  let r =
    Resilient.run
      ~fallback:("other", spending now ~spend:0. fallback_saw)
      ~limits:(Engine.Limits.make ~timeout_ms:100. ())
      (spending now ~spend:100. seen)
  in
  check "outcome is Unknown Deadline" true
    (r.Resilient.outcome = Engine.Unknown Engine.Deadline);
  check "rung Exhausted" true (r.Resilient.rung = Resilient.Exhausted);
  Alcotest.(check int) "one attempt started" 1 (List.length !seen);
  Alcotest.(check int) "fallback never started" 0 (List.length !fallback_saw)

(* a tripped cancel token stays tripped: no fallback, Exhausted at once *)
let test_cancelled_never_retries () =
  let cancel = Engine.Cancel.create () in
  Engine.Cancel.cancel cancel;
  let fallback_ran = ref false in
  let r =
    solve
      ~fallback:
        ( "other",
          fun _ ->
            fallback_ran := true;
            Engine.Unsat )
      ~limits:(Engine.Limits.make ~cancel ()) ~source:triangle
      ~target:triangle ()
  in
  check "outcome is Unknown Cancelled" true
    (r.Resilient.outcome = Engine.Unknown Engine.Cancelled);
  check "rung Exhausted" true (r.Resilient.rung = Resilient.Exhausted);
  check "fallback never started" false !fallback_ran

(* a permanent crash (every hit) exhausts the run with Crashed *)
let test_permanent_crash_exhausts () =
  Fault.with_armed [ ("csp.search.node", Fault.Every 1) ] @@ fun () ->
  let policy = Resilient.Policy.make ~max_attempts:2 () in
  let r =
    solve ~policy ~limits:Engine.Limits.unlimited ~source:triangle
      ~target:triangle ()
  in
  check "Unknown (Crashed csp.search.node)" true
    (r.Resilient.outcome = Engine.Unknown (Engine.Crashed "csp.search.node"));
  check "rung Exhausted" true (r.Resilient.rung = Resilient.Exhausted)

let test_scale_limits () =
  let scaled ?escalation max_attempts l =
    Resilient.Policy.scale_limits
      (Resilient.Policy.make ~max_attempts ?escalation ())
      l
  in
  let l = Engine.Limits.make ~nodes:10 ~backtracks:3 ~timeout_ms:50. () in
  let nodes l = l.Engine.Limits.nodes in
  Alcotest.(check (option int)) "one attempt: identity" (Some 10)
    (nodes (scaled 1 l));
  let l3 = scaled 3 l in
  Alcotest.(check (option int)) "nodes x16" (Some 160) (nodes l3);
  Alcotest.(check (option int)) "backtracks x16" (Some 48)
    l3.Engine.Limits.backtracks;
  check "timeout not scaled" true (l3.Engine.Limits.timeout_ms = Some 50.);
  Alcotest.(check (option int)) "a zero budget scales to 1" (Some 1)
    (nodes (scaled 2 (Engine.Limits.make ~nodes:0 ())));
  Alcotest.(check (option int)) "x4^29 still fits" (Some (10 * (1 lsl 58)))
    (nodes (scaled 30 l));
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "max_attempts %d saturates" n)
        (Some max_int)
        (nodes (scaled n l)))
    [ 31; 32; 40; 600 ];
  Alcotest.(check (option int)) "an unlimited budget stays unlimited" None
    (nodes (scaled 40 Engine.Limits.unlimited));
  List.iter
    (fun e ->
      match Resilient.Policy.make ~escalation:e () with
      | _ -> Alcotest.failf "escalation %g must be rejected" e
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; 0.5 ]

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
     the certain answer is true; with a zero budget no witness is found,
     and nothing runs after the ladder, so the answer certifies
     nothing *)
  let d_loop = Instance.of_list [ ("R", [ [ c 1; c 2 ]; [ c 5; c 5 ] ]) ] in
  (match Certain.certain_cq_resilient ~policy ~limits:tight Decider.engine cycle3_q d_loop with
  | `Lower_bound b ->
    check "no witness within budget certifies nothing" false b
  | `Exact _ -> Alcotest.fail "zero node budget cannot settle exactly");
  (* 2-cycle instance: an odd cycle has no hom into it, the certain
     answer is false; the degraded answer must not claim true *)
  let d2 = Instance.of_list [ ("R", [ [ c 1; c 2 ]; [ c 2; c 1 ] ]) ] in
  (match Certain.certain_cq_resilient ~policy ~limits:tight Decider.engine cycle3_q d2 with
  | `Lower_bound b | `Exact b ->
    check "never claims an uncertain true" true
      ((not b) || Certain.certain_cq_via_hom cycle3_q d2));
  (* unlimited: exact, agreeing with the oracle on both instances *)
  (match Certain.certain_cq_resilient Decider.engine cycle3_q d_loop with
  | `Exact true -> ()
  | _ -> Alcotest.fail "unlimited on the loop instance must be `Exact true");
  match Certain.certain_cq_resilient Decider.engine cycle3_q d2 with
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

(* a permanent crash kills every attempt; the exhausted ladder answers
   the sound floor and the fault never escapes *)
let test_certain_cq_degrade_survives_permanent_crash () =
  Fault.with_armed [ ("csp.search.node", Fault.Every 1) ] @@ fun () ->
  let d = Instance.of_list [ ("R", [ [ c 5; c 5 ] ]) ] in
  match
    Certain.certain_cq_resilient ~policy:Resilient.Policy.no_retry Decider.engine
      cycle3_q d
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
          QCheck_alcotest.to_alcotest qcheck_budget_monotone;
          Alcotest.test_case "saturated budget settles more" `Quick
            test_saturated_budget_settles_more;
        ] );
      ( "rungs",
        [
          Alcotest.test_case "node budget recovered" `Quick
            test_recover_from_node_budget;
          Alcotest.test_case "backtrack budget recovered" `Quick
            test_recover_from_backtrack_budget;
          Alcotest.test_case "fallback gets the time left" `Quick
            test_fallback_gets_time_left;
          Alcotest.test_case "deadline exhausts" `Quick test_deadline_exhausts;
          Alcotest.test_case "cancelled never retries" `Quick
            test_cancelled_never_retries;
          Alcotest.test_case "permanent crash exhausts" `Quick
            test_permanent_crash_exhausts;
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
