(* Certdb_analysis: every classifier emits a certificate that can be
   re-checked, and the certificate-driven planner never changes a certain
   answer — only the algorithm that computes it. *)

open Certdb_values
open Certdb_query
module Obs = Certdb_obs.Obs
module Instance = Certdb_relational.Instance
module Safety = Certdb_analysis.Safety
module Monotone = Certdb_analysis.Monotone
module Hypergraph = Certdb_analysis.Hypergraph
module Wa = Certdb_analysis.Wa
module Plan = Certdb_analysis.Plan
module Fd = Certdb_analysis.Fd
module Independence = Certdb_analysis.Independence
module Footprint = Certdb_analysis.Footprint
module Constraints = Certdb_exchange.Constraints

let check = Alcotest.(check bool)
let c i = Value.int i
let v x = Fo.Var x

(* --- safety: range restriction with a derivation or a culprit --- *)

let test_safety_safe () =
  (* exists x. R(x) and not S(x): x is restricted by R before the
     negation subtracts *)
  let f =
    Fo.Exists
      ( [ "x" ],
        Fo.And (Fo.Atom ("R", [ v "x" ]), Fo.Not (Fo.Atom ("S", [ v "x" ]))) )
  in
  match Safety.analyze f with
  | Safety.Safe { derivation; _ } ->
    check "derivation is non-empty" true (derivation <> [])
  | Safety.Unsafe _ -> Alcotest.fail "expected Safe"

let test_safety_unsafe_quantified () =
  (* exists x, y. R(x): y ranges over nothing *)
  let f = Fo.Exists ([ "x"; "y" ], Fo.Atom ("R", [ v "x" ])) in
  match Safety.analyze f with
  | Safety.Unsafe { variable; _ } ->
    Alcotest.(check string) "culprit is y" "y" variable
  | Safety.Safe _ -> Alcotest.fail "expected Unsafe"

let test_safety_unsafe_free () =
  (* R(x) and not S(y): free y only occurs under the negation *)
  let f = Fo.And (Fo.Atom ("R", [ v "x" ]), Fo.Not (Fo.Atom ("S", [ v "y" ]))) in
  match Safety.analyze f with
  | Safety.Unsafe { variable; _ } ->
    Alcotest.(check string) "culprit is y" "y" variable
  | Safety.Safe _ -> Alcotest.fail "expected Unsafe"

let rec srnf_clean = function
  | Fo.Implies _ | Fo.Forall _ -> false
  | Fo.Not f | Fo.Exists (_, f) -> srnf_clean f
  | Fo.And (f, g) | Fo.Or (f, g) -> srnf_clean f && srnf_clean g
  | Fo.True | Fo.False | Fo.Atom _ | Fo.Eq _ -> true

let test_srnf_normalizes () =
  let f =
    Fo.Forall ([ "x" ], Fo.Implies (Fo.Atom ("R", [ v "x" ]), Fo.Atom ("S", [ v "x" ])))
  in
  check "srnf has no Implies/Forall" true (srnf_clean (Safety.srnf f));
  (* the rewritten universal is not safe-range: x under the inner negation *)
  match Safety.analyze f with
  | Safety.Unsafe { variable; _ } ->
    Alcotest.(check string) "culprit is x" "x" variable
  | Safety.Safe _ -> Alcotest.fail "expected Unsafe"

(* --- syntactic monotonicity --- *)

let test_monotone () =
  let ep =
    Fo.Exists ([ "x" ], Fo.Or (Fo.Atom ("R", [ v "x" ]), Fo.Atom ("S", [ v "x" ])))
  in
  check "existential-positive is monotone" true
    (Monotone.analyze ep = Monotone.Monotone);
  let offending construct f =
    match Monotone.analyze f with
    | Monotone.Not_syntactically_monotone { construct = got; _ } ->
      got = construct
    | Monotone.Monotone -> false
  in
  check "negation reported" true
    (offending `Negation (Fo.Not (Fo.Atom ("R", [ v "x" ]))));
  check "implication reported" true
    (offending `Implication (Fo.Implies (Fo.Atom ("R", [ v "x" ]), Fo.True)));
  check "universal reported" true
    (offending `Universal (Fo.Forall ([ "x" ], Fo.Atom ("R", [ v "x" ]))))

(* --- hypergraph: GYO trace is replayable, residual is irreducible --- *)

let path_cq =
  Cq.boolean [ ("R", [ v "x"; v "y" ]); ("S", [ v "y"; v "z" ]) ]

let triangle_cq =
  Cq.boolean
    [
      ("R", [ v "x"; v "y" ]);
      ("R", [ v "y"; v "z" ]);
      ("R", [ v "z"; v "x" ]);
    ]

module S = Set.Make (String)

let edges_of_cq q =
  List.mapi
    (fun i (a : Cq.atom) ->
      let vs =
        List.filter_map
          (function Fo.Var x -> Some x | Fo.Val _ -> None)
          a.Cq.args
      in
      (i, S.of_list vs))
    q.Cq.atoms

(* replay a GYO trace against the original hypergraph: every step must be
   justified by the current state, and the trace must end with nothing
   left *)
let replay q steps =
  let state = ref (List.filter (fun (_, vs) -> not (S.is_empty vs)) (edges_of_cq q)) in
  let ok = ref true in
  List.iter
    (fun step ->
      match step with
      | Hypergraph.Remove_vertex { vertex; edge } ->
        let holders =
          List.filter (fun (_, vs) -> S.mem vertex vs) !state
        in
        (match holders with
        | [ (i, _) ] when i = edge ->
          state :=
            List.filter_map
              (fun (i, vs) ->
                let vs = S.remove vertex vs in
                if S.is_empty vs then None else Some (i, vs))
              !state
        | _ -> ok := false)
      | Hypergraph.Absorb { edge; into } ->
        let find i = List.assoc_opt i !state in
        (match (find edge, find into) with
        | Some vs, Some ws when S.subset vs ws ->
          state := List.filter (fun (i, _) -> i <> edge) !state
        | _ -> ok := false))
    steps;
  !ok && !state = []

let test_gyo_acyclic () =
  let r = Hypergraph.analyze path_cq in
  (match r.Hypergraph.certificate with
  | Hypergraph.Acyclic { steps } ->
    check "trace replays to the empty hypergraph" true (replay path_cq steps)
  | Hypergraph.Cyclic _ -> Alcotest.fail "path CQ must be acyclic");
  Alcotest.(check int) "path width estimate" 1 r.Hypergraph.width_estimate

let test_gyo_cyclic () =
  let r = Hypergraph.analyze triangle_cq in
  (match r.Hypergraph.certificate with
  | Hypergraph.Cyclic { residual } ->
    Alcotest.(check int) "all three edges irreducible" 3 (List.length residual);
    (* irreducibility: no ear vertex, no absorbable edge *)
    let edges = List.map (fun (_, vs) -> S.of_list vs) residual in
    List.iter
      (fun vs ->
        S.iter
          (fun x ->
            let holders = List.filter (fun ws -> S.mem x ws) edges in
            check "no ear vertex remains" true (List.length holders > 1))
          vs)
      edges
  | Hypergraph.Acyclic _ -> Alcotest.fail "triangle must be cyclic");
  Alcotest.(check int) "triangle width estimate" 2 r.Hypergraph.width_estimate

(* The list-based O(E^3) reduction that [Hypergraph.analyze] ran before
   its occurrence-count GYO, kept here as the oracle: same verdict, same
   residual (the higher index still absorbs into the lower), and a step
   list that replays legally. *)
let gyo_oracle edges0 =
  let edges = ref edges0 in
  let steps = ref [] in
  let remove_vertex () =
    let occurrences v = List.filter (fun (_, vs) -> S.mem v vs) !edges in
    List.find_map
      (fun (i, vs) ->
        S.fold
          (fun v acc ->
            match acc with
            | Some _ -> acc
            | None -> (
              match occurrences v with
              | [ (j, _) ] when j = i -> Some (v, i)
              | _ -> None))
          vs None)
      !edges
  in
  let absorb () =
    List.find_map
      (fun (i, vs) ->
        List.find_map
          (fun (j, ws) ->
            if i <> j && S.subset vs ws && ((not (S.equal vs ws)) || i > j)
            then Some (i, j)
            else None)
          !edges)
      !edges
  in
  let progress = ref true in
  while !progress && !edges <> [] do
    match remove_vertex () with
    | Some (v, i) ->
      steps := Hypergraph.Remove_vertex { vertex = v; edge = i } :: !steps;
      edges :=
        List.filter_map
          (fun (j, vs) ->
            if j <> i then Some (j, vs)
            else
              let vs = S.remove v vs in
              if S.is_empty vs then None else Some (j, vs))
          !edges
    | None -> (
      match absorb () with
      | Some (i, j) ->
        steps := Hypergraph.Absorb { edge = i; into = j } :: !steps;
        edges := List.filter (fun (k, _) -> k <> i) !edges
      | None -> progress := false)
  done;
  if !edges = [] then Hypergraph.Acyclic { steps = List.rev !steps }
  else
    Hypergraph.Cyclic
      { residual = List.map (fun (i, vs) -> (i, S.elements vs)) !edges }

(* random hypergraphs over few vertices, so that ears, duplicate edges,
   strict containments and cyclic residuals all occur; an atom may hold a
   constant or no variable at all *)
let gen_hypergraph_cq =
  QCheck.Gen.(
    int_range 1 7 >>= fun nv ->
    list_size (int_range 1 9)
      (list_size (int_range 0 4)
         (frequency
            [
              (6, map (fun i -> v (Printf.sprintf "v%d" i)) (int_range 0 (nv - 1)));
              (1, return (Fo.Val (c 0)));
            ]))
    >|= fun atoms -> Cq.boolean (List.map (fun args -> ("R", args)) atoms))

let qcheck_gyo_matches_oracle =
  QCheck.Test.make ~count:2000
    ~name:"GYO agrees with the list-based reduction"
    (QCheck.make ~print:(Format.asprintf "%a" Cq.pp) gen_hypergraph_cq)
    (fun q ->
      let got = (Hypergraph.analyze q).Hypergraph.certificate in
      let want =
        gyo_oracle
          (List.filter (fun (_, vs) -> not (S.is_empty vs)) (edges_of_cq q))
      in
      match (got, want) with
      | Hypergraph.Acyclic { steps }, Hypergraph.Acyclic { steps = s' } ->
        (* the new reduction also keeps the old one's step order *)
        replay q steps && steps = s'
      | Hypergraph.Cyclic { residual }, Hypergraph.Cyclic { residual = r' } ->
        residual = r'
      | _ -> false)

(* --- weak acyclicity and the certified chase bound --- *)

let nx = Value.null 9001
let ny = Value.null 9002
let nz = Value.null 9003

let tgd body head = Constraints.tgd ~body ~head

let wa_set =
  (* R(x,y) -> S(y,z): one special edge, no cycle *)
  Constraints.make
    ~tgds:
      [
        tgd
          (Instance.of_list [ ("R", [ [ nx; ny ] ]) ])
          (Instance.of_list [ ("S", [ [ ny; nz ] ]) ]);
      ]
    ()

let diverging_set =
  (* R(x,y) -> R(y,z): the special edge R.1 -> R.1 closes a cycle *)
  Constraints.make
    ~tgds:
      [
        tgd
          (Instance.of_list [ ("R", [ [ nx; ny ] ]) ])
          (Instance.of_list [ ("R", [ [ ny; nz ] ]) ]);
      ]
    ()

let test_wa_terminates () =
  let d = Instance.of_list [ ("R", [ [ c 1; c 2 ] ]) ] in
  match Wa.analyze ~instance:d wa_set with
  | Wa.Terminates { round_bound; max_rank; ranks } ->
    check "round bound is positive" true (round_bound > 0);
    Alcotest.(check int) "max rank" 1 max_rank;
    check "every rank is bounded by max_rank" true
      (List.for_all (fun (_, r) -> r >= 0 && r <= max_rank) ranks)
  | Wa.Diverges _ -> Alcotest.fail "expected Terminates"

let test_wa_diverges () =
  match Wa.analyze diverging_set with
  | Wa.Diverges { cycle; special = src, dst } ->
    check "cycle is non-empty" true (cycle <> []);
    check "cycle passes through the special edge's source" true
      (List.mem src cycle);
    Alcotest.(check string) "special edge targets R" "R" (fst dst)
  | Wa.Terminates _ -> Alcotest.fail "expected Diverges"

let counter_value name = Obs.counter_value (Obs.counter name)

let test_chase_auto_certified () =
  let d = Instance.of_list [ ("R", [ [ c 1; c 2 ] ]) ] in
  let before = counter_value "exchange.chase.certified" in
  let chased = Constraints.chase d wa_set in
  Alcotest.(check int) "certified bound used" (before + 1)
    (counter_value "exchange.chase.certified");
  (* the certified bound reaches the same fixpoint as a generous cap, up
     to the names of the freshly invented nulls *)
  let reference = Constraints.chase ~max_rounds:1000 d wa_set in
  let module Hom = Certdb_relational.Hom in
  check "certified chase reaches the fixpoint" true
    (Instance.cardinal chased = Instance.cardinal reference
    && Hom.exists chased reference
    && Hom.exists reference chased);
  (* explicit ~max_rounds is the legacy Bounded mode: no counter *)
  let after = counter_value "exchange.chase.certified" in
  let _ = Constraints.chase ~max_rounds:10 d wa_set in
  Alcotest.(check int) "Bounded mode is uncounted" after
    (counter_value "exchange.chase.certified")

let test_chase_auto_uncertified () =
  (* not weakly acyclic, but the empty instance has nothing to chase:
     Auto falls back to the default cap and counts the fallback *)
  let before = counter_value "exchange.chase.uncertified" in
  let chased = Constraints.chase Instance.empty diverging_set in
  check "nothing derived" true (Instance.is_empty chased);
  Alcotest.(check int) "uncertified fallback counted" (before + 1)
    (counter_value "exchange.chase.uncertified")

let test_chase_certified_rejects_non_wa () =
  match Constraints.chase ~termination:`Certified Instance.empty diverging_set with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "`Certified must reject a non-weakly-acyclic set"

(* --- the planner: routes and answer preservation --- *)

let test_routes () =
  let route q = (Plan.route_cq q).Plan.route in
  check "non-Boolean goes to naive eval" true
    (route (Cq.make ~head:[ "x" ] [ ("R", [ v "x"; v "y" ]) ]) = Plan.Naive_eval);
  check "path goes to the acyclic join" true
    (route path_cq = Plan.Acyclic_join);
  check "triangle goes to the width-2 search" true
    (route triangle_cq = Plan.Bounded_width 2);
  let clique4 =
    let vars = [ "w"; "x"; "y"; "z" ] in
    Cq.boolean
      (List.concat_map
         (fun a ->
           List.filter_map
             (fun b -> if a < b then Some ("R", [ v a; v b ]) else None)
             vars)
         vars)
  in
  check "4-clique exceeds the default threshold" true
    (route clique4 = Plan.Hom_ladder);
  check "a raised threshold reclaims it" true
    (match (Plan.route_cq ~width_threshold:3 clique4).Plan.route with
    | Plan.Bounded_width 3 -> true
    | _ -> false)

(* The list-based interchangeable-class detector the planner used
   before it read the classes off the engine, kept as the oracle: the
   largest class of query variables such that swapping two of them
   maps the query's atom set to itself (0 without variables). *)
let interchangeable_oracle (q : Cq.t) =
  let atoms =
    List.sort_uniq compare
      (List.map (fun (a : Cq.atom) -> (a.rel, a.args)) q.atoms)
  in
  let vars =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, args) ->
           List.filter_map
             (function Fo.Var v -> Some v | Fo.Val _ -> None)
             args)
         atoms)
  in
  let canon swap =
    List.sort compare
      (List.map
         (fun (rel, args) ->
           ( rel,
             List.map (function Fo.Var v -> Fo.Var (swap v) | t -> t) args ))
         atoms)
  in
  let swap_ok a b =
    canon (fun v -> if v = a then b else if v = b then a else v) = atoms
  in
  let rec classes = function
    | [] -> 0
    | rep :: rest ->
      let members, others = List.partition (swap_ok rep) rest in
      max (1 + List.length members) (classes others)
  in
  classes vars

(* symmetric blocks (a directed or undirected clique, optionally with a
   unary atom on every member) beside random atoms over constants, a
   query null and the same variables, so that classes of every size
   occur and are broken by the extra atoms *)
let symmetric_cq st =
  let var i = Fo.Var (Printf.sprintf "x%d" i) in
  let k = Random.State.int st 6 in
  let directed = Random.State.bool st in
  let block =
    List.concat
      (List.init k (fun i ->
           List.filter_map
             (fun j ->
               if i <> j && (directed || i < j) then
                 Some ("R", [ var i; var j ])
               else None)
             (List.init k Fun.id)))
  in
  let unary =
    if Random.State.bool st then List.init k (fun i -> ("S", [ var i ]))
    else []
  in
  let term () =
    match Random.State.int st 8 with
    | 0 -> Fo.Val (c 1)
    | 1 -> Fo.Val (Value.null 9001)
    | _ -> var (Random.State.int st 7)
  in
  let extra =
    List.init (Random.State.int st 4) (fun _ ->
        if Random.State.int st 3 = 0 then ("S", [ term () ])
        else ("R", [ term (); term () ]))
  in
  Cq.boolean (block @ unary @ extra)

let qcheck_interchangeable_class_matches_oracle =
  QCheck.Test.make ~count:1000
    ~name:"the planner's interchangeable class matches the list oracle"
    (QCheck.make ~print:(Format.asprintf "%a" Cq.pp) symmetric_cq)
    (fun q ->
      let k = interchangeable_oracle q in
      let route backend = (Plan.route_cq ~backend q).Plan.route in
      (* under [sat] the route carries the class size *)
      let sat_ok = route Certdb_sat.Backend.Sat = Plan.Sat_backend k in
      (* under [auto] the class decides between the symmetric route and
         the plain one the csp backend takes *)
      let hg = Hypergraph.analyze q in
      let auto_expected =
        match route Certdb_sat.Backend.Csp with
        | (Plan.Components _ | Plan.Hom_ladder)
          when k >= 3 && hg.Hypergraph.atom_count >= hg.Hypergraph.var_count ->
          Plan.Sat_backend k
        | r -> r
      in
      if sat_ok && route Certdb_sat.Backend.Auto = auto_expected then true
      else
        QCheck.Test.fail_reportf "oracle class %d, sat route %s, auto route %s"
          k
          (Plan.route_to_string (route Certdb_sat.Backend.Sat))
          (Plan.route_to_string (route Certdb_sat.Backend.Auto)))

(* random Boolean CQs over a binary R, and random instances mixing
   constants with repeated nulls *)
let random_cq st =
  let vars = [| "x"; "y"; "z"; "w" |] in
  let term () =
    if Random.State.float st 1.0 < 0.8 then
      Fo.Var vars.(Random.State.int st (Array.length vars))
    else Fo.Val (c (1 + Random.State.int st 2))
  in
  let n = 1 + Random.State.int st 4 in
  Cq.boolean (List.init n (fun _ -> ("R", [ term (); term () ])))

let random_instance st =
  let value () =
    if Random.State.float st 1.0 < 0.7 then c (1 + Random.State.int st 3)
    else Value.null (8000 + Random.State.int st 2)
  in
  let n = Random.State.int st 6 in
  Instance.of_list [ ("R", List.init n (fun _ -> [ value (); value () ])) ]

let qcheck_planner_agrees_with_oracle =
  QCheck.Test.make ~count:300
    ~name:"Plan.certain (unlimited) agrees with certain_cq_via_hom"
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let q = random_cq (Random.State.make [| s1 |]) in
      let d = random_instance (Random.State.make [| s2 |]) in
      match Plan.certain q d with
      | `Exact b -> b = Certain.certain_cq_via_hom q d
      | `Lower_bound _ ->
        QCheck.Test.fail_report "unlimited planner must answer `Exact")

let qcheck_btw_agrees_with_hom =
  QCheck.Test.make ~count:300
    ~name:"certain_cq_via_btw agrees with certain_cq_via_hom"
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let q = random_cq (Random.State.make [| s1 |]) in
      let d = random_instance (Random.State.make [| s2 |]) in
      Certain.certain_cq_via_btw q d
      = if Certain.certain_cq_via_hom q d then `True else `False)

(* the bounded-width routes run on the ladder: a tripped cancel token stops them
   before any answer, so the grade is the empty lower bound even where
   the unlimited answer is true *)
let test_dp_routes_honour_cancel () =
  let d =
    Instance.of_list
      [
        ("R", [ [ c 1; c 2 ]; [ c 2; c 3 ]; [ c 3; c 1 ] ]);
        ("S", [ [ c 2; c 4 ] ]);
      ]
  in
  let cancel = Certdb_csp.Engine.Cancel.create () in
  Certdb_csp.Engine.Cancel.cancel cancel;
  let limits = Certdb_csp.Engine.Limits.make ~cancel () in
  List.iter
    (fun (name, q, route) ->
      check (name ^ " route") true ((Plan.route_cq q).Plan.route = route);
      check (name ^ " unlimited") true (Plan.certain q d = `Exact true);
      check (name ^ " cancelled") true
        (Plan.certain ~limits q d = `Lower_bound false))
    [
      ("path", path_cq, Plan.Acyclic_join);
      ("triangle", triangle_cq, Plan.Bounded_width 2);
    ]

let test_certain_answers_route () =
  let u =
    Ucq.make [ Cq.make ~head:[ "x" ] [ ("R", [ v "x"; v "y" ]) ] ]
  in
  let d =
    Instance.of_list
      [ ("R", [ [ c 1; c 2 ]; [ c 3; Value.null 8101 ] ]) ]
  in
  let before = counter_value "query.plan.naive_eval" in
  let got = Plan.certain_answers u d in
  Alcotest.(check int) "routed as naive eval" (before + 1)
    (counter_value "query.plan.naive_eval");
  check "agrees with Certain.certain_ucq" true
    (Instance.equal got (Certain.certain_ucq u d))

(* --- certainty against its definition --- *)

module Decider = Certdb_csp.Decider
module Backend = Certdb_sat.Backend
module Semantics = Certdb_relational.Semantics

(* Boolean CQs over R/2, S/1 and the propositional P/0, with constants
   from 1..4.  Atoms draw their variables from one of two disjoint pools,
   so many queries are cartesian products; two thirds start with a
   triangle, plain or symmetric, so that the planner's search routes
   (components, hom ladder, SAT) are taken at width threshold 0. *)
let definition_cq st =
  let pools = [| [| "x"; "y"; "z" |]; [| "w" |] |] in
  let atom () =
    if Random.State.int st 6 = 0 then ("P", [])
    else
      let pool = pools.(Random.State.int st 2) in
      let term () =
        if Random.State.int st 5 = 0 then Fo.Val (c (1 + Random.State.int st 4))
        else Fo.Var pool.(Random.State.int st (Array.length pool))
      in
      if Random.State.int st 3 = 0 then ("S", [ term () ])
      else ("R", [ term (); term () ])
  in
  let edge a b = ("R", [ Fo.Var a; Fo.Var b ]) in
  let triangle = [ edge "x" "y"; edge "y" "z"; edge "z" "x" ] in
  let cycle =
    match Random.State.int st 3 with
    | 0 -> []
    | 1 -> triangle
    | _ -> triangle @ [ edge "y" "x"; edge "z" "y"; edge "x" "z" ]
  in
  Cq.boolean (cycle @ List.init (1 + Random.State.int st 4) (fun _ -> atom ()))

(* at most 3 nulls and 4 constants *)
let definition_instance st =
  let value () =
    if Random.State.int st 3 = 0 then Value.null (8200 + Random.State.int st 3)
    else c (1 + Random.State.int st 4)
  in
  let facts n tuple = List.init (Random.State.int st n) (fun _ -> tuple ()) in
  Instance.of_list
    [
      ("R", facts 9 (fun () -> [ value (); value () ]));
      ("S", facts 3 (fun () -> [ value () ]));
      ("P", facts 2 (fun () -> []));
    ]

(* certain(Q, D) by definition: Q holds in every completion of D over
   its constants, the query's constants and one fresh constant per null *)
let certain_by_definition q d =
  let f = Cq.to_fo q in
  List.for_all
    (fun (_, world) -> Fo.holds world f)
    (Semantics.sample_completions ~extra:(Fo.constants f) d)

let qcheck_certain_matches_definition =
  let print (q, d) =
    Format.asprintf "%a over %a" Cq.pp q Instance.pp d
  in
  QCheck.Test.make ~count:500
    ~name:"every decider and route matches the definition of certainty"
    (QCheck.make ~print (fun st -> (definition_cq st, definition_instance st)))
    (fun (q, d) ->
      let expected = certain_by_definition q d in
      let deciders =
        [
          Decider.engine; Backend.decider (); Backend.decider ~symmetry:false ();
          Decider.reference; Decider.btw;
        ]
      in
      List.iter
        (fun (decider : Decider.t) ->
          match Certain.certain_cq_via_decider decider q d with
          | `True when expected -> ()
          | `False when not expected -> ()
          | _ -> QCheck.Test.fail_reportf "decider %s disagrees" decider.name)
        deciders;
      List.iter
        (fun (backend, width_threshold) ->
          match Plan.certain ~backend ~width_threshold q d with
          | `Exact b when b = expected -> ()
          | _ ->
            QCheck.Test.fail_reportf "Plan.certain ~backend:%s disagrees"
              (Backend.choice_to_string backend))
        (List.concat_map
           (fun b -> [ (b, 2); (b, 0) ])
           [ Backend.Csp; Backend.Sat; Backend.Auto ]);
      true)

(* --- constraint certificates: FDs over nulls, independence, footprints --- *)

let fd_r = Fd.fd ~rel:"R" ~lhs:[ 0 ] ~rhs:[ 1 ]

let test_fd_verdicts () =
  let d =
    Instance.of_list [ ("R", [ [ c 1; c 2 ]; [ c 3; Value.null 8201 ] ]) ]
  in
  (match Fd.check d fd_r with
  | Fd.Certainly_satisfies (Fd.All_pairs_safe _) -> ()
  | _ -> Alcotest.fail "expected certain with an all-pairs-safe certificate");
  let d =
    Instance.of_list [ ("R", [ [ c 1; Value.null 8202 ]; [ c 1; c 3 ] ]) ]
  in
  (match Fd.check d fd_r with
  | Fd.Possibly_satisfies
      { sat = Fd.Completion_exists _; falsified = Fd.Violating_pair _ } ->
    ()
  | _ -> Alcotest.fail "expected possible with both witnesses");
  let d = Instance.of_list [ ("R", [ [ c 1; c 2 ]; [ c 1; c 3 ] ]) ] in
  match Fd.check d fd_r with
  | Fd.Certainly_violates (Fd.Forced_clash _) -> ()
  | _ -> Alcotest.fail "expected violated with a forced clash"

let test_independence_verdicts () =
  let a = Independence.atom ~rel:"R" ~x:[ 0 ] ~y:[ 1 ] in
  let product =
    Instance.of_list
      [ ("R", [ [ c 1; c 1 ]; [ c 1; c 2 ]; [ c 2; c 1 ]; [ c 2; c 2 ] ]) ]
  in
  (match Independence.check product a with
  | Fd.Certainly_satisfies (Independence.Product_holds _) -> ()
  | _ -> Alcotest.fail "expected certain with a product certificate");
  let missing = Instance.of_list [ ("R", [ [ c 1; c 1 ]; [ c 2; c 2 ] ]) ] in
  match Independence.check missing a with
  | Fd.Certainly_violates (Independence.Missing_combination _) -> ()
  | _ -> Alcotest.fail "expected violated with a missing combination"

(* random binary-R instances with at most 3 distinct nulls: small enough
   for the exponential oracles, null-rich enough to hit all three grades *)
let random_null_instance ?(arity = 2) ?(null_pool = 3) st =
  let value () =
    if Random.State.float st 1.0 < 0.6 then c (1 + Random.State.int st 3)
    else Value.null (8300 + Random.State.int st null_pool)
  in
  let n = Random.State.int st 5 in
  Instance.of_list
    [ ("R", List.init n (fun _ -> List.init arity (fun _ -> value ()))) ]

let qcheck_fd_agrees_with_brute_force =
  QCheck.Test.make ~count:300 ~name:"Fd.check grade agrees with brute_force"
    QCheck.(int_range 0 100_000)
    (fun s ->
      let d = random_null_instance (Random.State.make [| s |]) in
      List.for_all
        (fun f -> Fd.grade (Fd.check d f) = Fd.brute_force d f)
        [ fd_r; Fd.fd ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 0 ] ])

let qcheck_independence_agrees_with_brute_force =
  QCheck.Test.make ~count:300
    ~name:"Independence.check grade agrees with brute_force"
    QCheck.(int_range 0 100_000)
    (fun s ->
      (* arity 3 leaves a column outside X∪Y, so nulls irrelevant to
         the atom are exercised too *)
      let d =
        random_null_instance ~arity:3 ~null_pool:2 (Random.State.make [| s |])
      in
      let a = Independence.atom ~rel:"R" ~x:[ 0 ] ~y:[ 1 ] in
      Fd.grade (Independence.check d a) = Independence.brute_force d a)

let test_footprint_key_and_overlap () =
  let q =
    Cq.make ~head:[ "x" ]
      [ ("R", [ v "x"; v "y" ]); ("S", [ v "x"; Fo.Val (c 1) ]) ]
  in
  let fp = Footprint.of_cq q in
  (* R.2 holds the non-head, non-join y: existence-only, outside the key *)
  Alcotest.(check string) "key" "R[1] S[1 2] # 1" (Footprint.to_key fp);
  check "tuple-level R touch overlaps" true
    (Footprint.overlaps fp (Footprint.touch_rel "R"));
  check "update to the constrained R.1 overlaps" true
    (Footprint.overlaps fp (Footprint.touch_cols "R" [ 0 ]));
  check "update to the free R.2 is disjoint" false
    (Footprint.overlaps fp (Footprint.touch_cols "R" [ 1 ]));
  check "unmentioned relation is disjoint" false
    (Footprint.overlaps fp (Footprint.touch_rel "T"));
  (* B(x,y) -> R(x,y): a touch on B can fire into R, so the closure
     pulls B in at every position *)
  let deps =
    Constraints.make
      ~tgds:
        [
          tgd
            (Instance.of_list [ ("B", [ [ nx; ny ] ]) ])
            (Instance.of_list [ ("R", [ [ nx; ny ] ]) ]);
        ]
      ()
  in
  let closed = Footprint.close_under_tgds deps fp in
  check "closure reaches the tgd body" true
    (Footprint.overlaps closed (Footprint.touch_cols "B" [ 1 ]));
  check "closure leaves unrelated relations out" false
    (Footprint.overlaps closed (Footprint.touch_rel "T"))

(* every route bumps its query.plan.* counter exactly once, and no
   other route's counter moves *)
let plan_counters =
  [
    "query.plan.naive_eval";
    "query.plan.acyclic_join";
    "query.plan.bounded_width";
    "query.plan.components";
    "query.plan.hom_ladder";
    "query.plan.fd_naive";
  ]

let check_single_bump name run =
  let before = List.map (fun n -> (n, counter_value n)) plan_counters in
  run ();
  List.iter
    (fun (n, b) ->
      let expected = if n = name then b + 1 else b in
      Alcotest.(check int) n expected (counter_value n))
    before

let test_route_counters_exactly_once () =
  let d = Instance.of_list [ ("R", [ [ c 1; c 2 ]; [ c 2; c 1 ] ]) ] in
  check_single_bump "query.plan.naive_eval" (fun () ->
      ignore
        (Plan.certain_answers
           (Ucq.make [ Cq.make ~head:[ "x" ] [ ("R", [ v "x"; v "y" ]) ] ])
           d));
  check_single_bump "query.plan.acyclic_join" (fun () ->
      ignore (Plan.certain path_cq d));
  check_single_bump "query.plan.bounded_width" (fun () ->
      ignore (Plan.certain triangle_cq d));
  check_single_bump "query.plan.hom_ladder" (fun () ->
      ignore (Plan.certain ~width_threshold:0 triangle_cq d));
  check_single_bump "query.plan.fd_naive" (fun () ->
      ignore (Plan.certain ~width_threshold:0 ~fds:[ fd_r ] triangle_cq d));
  let two_triangles =
    Cq.boolean
      [
        ("R", [ v "x"; v "y" ]);
        ("R", [ v "y"; v "z" ]);
        ("R", [ v "z"; v "x" ]);
        ("R", [ v "a"; v "b" ]);
        ("R", [ v "b"; v "e" ]);
        ("R", [ v "e"; v "a" ]);
      ]
  in
  check_single_bump "query.plan.components" (fun () ->
      ignore (Plan.certain ~width_threshold:0 two_triangles d))

let () =
  Random.self_init ();
  Alcotest.run "analysis"
    [
      ( "safety",
        [
          Alcotest.test_case "safe with derivation" `Quick test_safety_safe;
          Alcotest.test_case "unsafe quantified" `Quick
            test_safety_unsafe_quantified;
          Alcotest.test_case "unsafe free" `Quick test_safety_unsafe_free;
          Alcotest.test_case "srnf normalizes" `Quick test_srnf_normalizes;
        ] );
      ( "monotonicity",
        [ Alcotest.test_case "certificates" `Quick test_monotone ] );
      ( "hypergraph",
        [
          Alcotest.test_case "GYO trace replays" `Quick test_gyo_acyclic;
          Alcotest.test_case "cyclic residual irreducible" `Quick
            test_gyo_cyclic;
          QCheck_alcotest.to_alcotest qcheck_gyo_matches_oracle;
        ] );
      ( "weak acyclicity",
        [
          Alcotest.test_case "terminates with bound" `Quick test_wa_terminates;
          Alcotest.test_case "diverges with cycle" `Quick test_wa_diverges;
          Alcotest.test_case "chase Auto certified" `Quick
            test_chase_auto_certified;
          Alcotest.test_case "chase Auto uncertified" `Quick
            test_chase_auto_uncertified;
          Alcotest.test_case "`Certified rejects non-WA" `Quick
            test_chase_certified_rejects_non_wa;
        ] );
      ( "planner",
        [
          Alcotest.test_case "routes" `Quick test_routes;
          QCheck_alcotest.to_alcotest
            qcheck_interchangeable_class_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_planner_agrees_with_oracle;
          QCheck_alcotest.to_alcotest qcheck_btw_agrees_with_hom;
          QCheck_alcotest.to_alcotest qcheck_certain_matches_definition;
          Alcotest.test_case "DP routes honour a tripped cancel token" `Quick
            test_dp_routes_honour_cancel;
          Alcotest.test_case "certain_answers route" `Quick
            test_certain_answers_route;
          Alcotest.test_case "route counters exactly once" `Quick
            test_route_counters_exactly_once;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "fd verdicts and certificates" `Quick
            test_fd_verdicts;
          Alcotest.test_case "independence verdicts" `Quick
            test_independence_verdicts;
          QCheck_alcotest.to_alcotest qcheck_fd_agrees_with_brute_force;
          QCheck_alcotest.to_alcotest
            qcheck_independence_agrees_with_brute_force;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "key and overlap" `Quick
            test_footprint_key_and_overlap;
        ] );
    ]
