(* E21 — the certificate-driven planner: routing Boolean CQ certainty by
   hypergraph shape vs always running the Prop. 2 hom ladder vs always
   running naive evaluation.  Three query families stress the three
   routes (paths are GYO-acyclic, cycles have width 2, cliques exceed the
   width threshold), over random naive instances mixing constants with
   repeated nulls.  Every strategy's answers are checked against the
   unlimited hom oracle, so the planner can only change cost, never an
   answer; the route mix is visible in the query.plan.* counters of the
   --json record. *)

open Certdb_values
open Certdb_query
module Instance = Certdb_relational.Instance
module Plan = Certdb_analysis.Plan
module Hypergraph = Certdb_analysis.Hypergraph
module Obs = Certdb_obs.Obs

let v x = Fo.Var x
let var i = v (Printf.sprintf "x%d" i)

(* path-k: R(x1,x2), ..., R(xk,xk+1) — GYO-acyclic *)
let path_q k =
  Cq.boolean (List.init k (fun i -> ("R", [ var i; var (i + 1) ])))

(* cycle-k: width-2 but cyclic *)
let cycle_q k =
  Cq.boolean
    (List.init k (fun i -> ("R", [ var i; var ((i + 1) mod k) ])))

(* clique-k: width k-1 — past the default threshold for k >= 4 *)
let clique_q k =
  let ids = List.init k Fun.id in
  Cq.boolean
    (List.concat_map
       (fun a ->
         List.filter_map
           (fun b -> if a < b then Some ("R", [ var a; var b ]) else None)
           ids)
       ids)

let families =
  [
    ("path-6", path_q 6);
    ("cycle-5", cycle_q 5);
    ("clique-4", clique_q 4);
  ]

(* random naive instances: constants 1..4 plus two shared nulls, dense
   enough that a fair share of the certainty checks come out true *)
let instances n =
  List.init n (fun i ->
      let st = Random.State.make [| 0xe21; i |] in
      let value () =
        if Random.State.float st 1.0 < 0.75 then
          Value.int (1 + Random.State.int st 4)
        else Value.null (8200 + Random.State.int st 2)
      in
      let facts = 4 + Random.State.int st 8 in
      Instance.of_list
        [ ("R", List.init facts (fun _ -> [ value (); value () ])) ])

let strategies =
  [
    ( "planner",
      fun q d ->
        match Plan.certain q d with `Exact b | `Lower_bound b -> b );
    ("always-hom", Certain.certain_cq_via_hom);
    ("always-naive", Certain.certain_cq_via_naive);
  ]

(* The serve benchmark's slowest bounded-width keys: cycle-5 anchored at
   constant [a], R(a,x0) plus the 5-cycle, over the "m2" instance of its
   miss workload — a random digraph on 40 constants of out-degree 6 from
   a fixed splitmix stream, plus 20 edges into 8 nulls. *)
let splitmix s =
  let s = ref (s land 0x3fffffffffffffff) in
  fun bound ->
    s := (!s + 0x1e3779b97f4a7c15) land 0x3fffffffffffffff;
    let z = ref !s in
    z := (!z lxor (!z lsr 30)) * 0x3f58476d1ce4e5b9 land 0x3fffffffffffffff;
    z := (!z lxor (!z lsr 27)) * 0x14d049bb133111eb land 0x3fffffffffffffff;
    z := !z lxor (!z lsr 31);
    !z mod bound

let m2_instance () =
  let next = splitmix 0x3155 in
  let c k = Value.int (1 + k) in
  let edges =
    List.concat_map
      (fun a -> List.init 6 (fun _ -> [ c a; c (next 40) ]))
      (List.init 40 Fun.id)
  in
  let null_edges =
    List.init 20 (fun k -> [ c (next 40); Value.null (8300 + (k mod 8)) ])
  in
  Instance.of_list [ ("R", edges @ null_edges) ]

let anchored_cycle5 a =
  Cq.boolean
    (("R", [ Fo.Val (Value.int a); var 0 ])
    :: List.init 5 (fun i -> ("R", [ var i; var ((i + 1) mod 5) ])))

(* The 5-cycle over the complete bipartite digraph K(n,n): odd, so no
   homomorphism, and the plain engine must refute every placement of the
   cycle while the bounded-width search refutes each (bag, separator
   values) pair once. *)
let bipartite n =
  let c = Value.int in
  Instance.of_list
    [
      ( "R",
        List.concat_map
          (fun a ->
            List.concat_map
              (fun b -> [ [ c a; c (n + b) ]; [ c (n + b); c a ] ])
              (List.init n Fun.id))
          (List.init n Fun.id) );
    ]

(* Decider.btw, also reporting Theorem 6's decision bound on the encoded
   instance: Σ over the bags of its decomposition of 2·|B|^|bag| *)
let btw_bounded bound =
  let open Certdb_csp in
  {
    Decider.btw with
    satisfiable =
      (fun config source target ->
        let rec pow k =
          if k = 0 then 1 else Structure.size target * pow (k - 1)
        in
        bound :=
          Array.fold_left
            (fun acc bag -> acc + (2 * pow (Structure.Int_set.cardinal bag)))
            0
            (fst (Treewidth.estimate source)).Treewidth.bags;
        Decider.btw.satisfiable config source target);
  }

(* The bounded-width search against the plain bitset engine on the same
   instances: answers must agree, and its decisions (deterministic) on
   the serve benchmark's two keys and on the refutation are the gauges CI
   pins; the refutation's must stay within Theorem 6's bound *)
let btw_vs_engine () =
  Bench_util.subsection "bounded-width search against the plain engine";
  Bench_util.row "%-20s %-9s %-10s %-10s %-10s %-10s %-6s" "instance"
    "certain" "btw(ms)" "engine(ms)" "btw-dec" "memo-hits" "agree";
  let m2 = m2_instance () in
  let agreed = ref 0 and keys = ref 0 and refute = ref 0 in
  let bound = ref 0 in
  List.iter
    (fun (name, q, d, gauge) ->
      let (answer, work), hits =
        Bench_util.with_counter "csp.solver.memo_hits" (fun () ->
            Bench_util.with_counter "csp.solver.decisions" (fun () ->
                Certain.certain_cq_via_decider (btw_bounded bound) q d))
      in
      let engine = Certain.certain_cq_via_hom_b q d in
      let btw_ms =
        Bench_util.time_ms_median (fun () -> Certain.certain_cq_via_btw q d)
      in
      let engine_ms =
        Bench_util.time_ms_median (fun () -> Certain.certain_cq_via_hom_b q d)
      in
      if answer = engine then incr agreed;
      (match gauge with
      | `Keys -> keys := !keys + work
      | `Refute ->
        refute := work;
        if work > !bound then
          failwith
            (Printf.sprintf "E21: %d decisions refuting %s, past the bound %d"
               work name !bound));
      Bench_util.row "%-20s %-9b %-10.3f %-10.3f %-10d %-10d %-6s" name
        (answer = `True) btw_ms engine_ms work hits
        (if answer = engine then "yes" else "NO"))
    [
      ("cycle-5@1 / m2", anchored_cycle5 1, m2, `Keys);
      ("cycle-5@2 / m2", anchored_cycle5 2, m2, `Keys);
      ("cycle-5 / K(16,16)", cycle_q 5, bipartite 16, `Refute);
    ];
  Bench_util.row "decision bound on the refutation: %d" !bound;
  Obs.set_int (Obs.gauge "bench.btw.agreed") !agreed;
  Obs.set_int (Obs.gauge "bench.btw.decisions") !keys;
  Obs.set_int (Obs.gauge "bench.btw.refute_decisions") !refute;
  Obs.set_int (Obs.gauge "bench.btw.refute_bound") !bound;
  if !agreed <> 3 then
    failwith "E21: the bounded-width search contradicted the bitset engine"

(* The analysis the planner runs on every Boolean query it routes: one
   key of each of the serve benchmark's six miss families (bclique-4
   under auto, as served), and one and four bidirectional 10-cliques.
   Minor words allocated per [Plan.route_cq] over the set is a
   deterministic gauge CI bounds; the times are reported only. *)
let analysis_queries =
  let x = var and r a b = ("R", [ var a; var b ]) in
  let pairs k f =
    List.concat_map
      (fun a -> List.filter_map (fun b -> f a b) (List.init k Fun.id))
      (List.init k Fun.id)
  in
  let path k = List.init k (fun i -> r i (i + 1)) in
  let cycle ?(base = 0) k = List.init k (fun i -> r (base + i) (base + ((i + 1) mod k))) in
  let tclique k = pairs k (fun a b -> if a < b then Some (r a b) else None) in
  let bclique ?(base = 0) k =
    pairs k (fun a b -> if a <> b then Some (r (base + a) (base + b)) else None)
  in
  let anchored ?(head = []) atoms =
    Cq.make ~head (("R", [ Fo.Val (Value.int 1); x 0 ]) :: atoms)
  in
  let auto = Some Certdb_sat.Backend.Auto in
  let cliques copies =
    Cq.boolean (List.concat_map (fun c -> bclique ~base:(10 * c) 10) copies)
  in
  [
    ("path-4", anchored (path 4), None);
    ("cycle-5", anchored (cycle 5), None);
    ("tclique-4", anchored (tclique 4), None);
    ("tclique-4+cycle-3", anchored (tclique 4 @ cycle ~base:4 3), None);
    ("bclique-4", anchored (bclique 4), auto);
    ("answers-2loop", anchored ~head:[ "x0" ] [ r 0 1; r 1 0 ], None);
    ("bclique-10", cliques [ 0 ], None);
    ("bclique-10 x4", cliques [ 0; 1; 2; 3 ], None);
  ]

let analysis_cost () =
  Bench_util.subsection "query analysis: Hypergraph.analyze and Plan.route_cq";
  Bench_util.row "%-20s %-14s %-14s %-12s" "query" "analyze(us)" "route_cq(us)"
    "minor words";
  let best_us reps f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, ms =
        Bench_util.time_ms (fun () ->
            for _ = 1 to reps do
              ignore (Sys.opaque_identity (f ()))
            done)
      in
      best := Float.min !best (1000. *. ms /. float_of_int reps)
    done;
    !best
  in
  let route (_, q, backend) = Plan.route_cq ?backend q in
  (* one warm-up pass, so that first-use tables are not counted *)
  List.iter (fun e -> ignore (route e)) analysis_queries;
  let total = ref 0. in
  List.iter
    (fun ((name, q, _) as e) ->
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (route e));
      let words = Gc.minor_words () -. w0 in
      total := !total +. words;
      let reps = if List.length q.Cq.atoms < 50 then 400 else 20 in
      Bench_util.row "%-20s %-14.2f %-14.2f %-12.0f" name
        (best_us reps (fun () -> Hypergraph.analyze q))
        (best_us reps (fun () -> route e))
        words)
    analysis_queries;
  let per_query = !total /. float_of_int (List.length analysis_queries) in
  Bench_util.row "minor words per route_cq: %.0f" per_query;
  Obs.set_int (Obs.gauge "bench.analysis.words_per_query")
    (int_of_float (Float.round per_query))

let run () =
  Bench_util.banner
    "E21  Planner: certificate-driven routing vs fixed strategies";
  let ds = instances 40 in
  Bench_util.row "%d random instances per family" (List.length ds);
  Bench_util.row "%-10s %-9s %-13s %-9s %-10s %-10s" "family" "route"
    "strategy" "certain" "wall(ms)" "sound";
  List.iter
    (fun (fname, q) ->
      let route = Plan.route_to_string (Plan.route_cq q).Plan.route in
      let oracle = List.map (Certain.certain_cq_via_hom q) ds in
      List.iter
        (fun (sname, strategy) ->
          let answers = List.map (strategy q) ds in
          let ms =
            Bench_util.time_ms_median (fun () ->
                List.iter (fun d -> ignore (strategy q d)) ds)
          in
          let sound = List.for_all2 Bool.equal answers oracle in
          let certain = List.length (List.filter Fun.id answers) in
          Bench_util.row "%-10s %-9s %-13s %-9d %-10.2f %-10s" fname route
            sname certain ms
            (if sound then "yes" else "NO");
          if not sound then
            failwith
              (Printf.sprintf
                 "E21: strategy %S on family %S contradicted the hom oracle"
                 sname fname))
        strategies)
    families;
  Bench_util.row "\nroute mix of the planner runs (query.plan.* counters):";
  List.iter
    (fun name ->
      Bench_util.row "  %-28s %d" name
        (Obs.counter_value (Obs.counter ("query.plan." ^ name))))
    [ "naive_eval"; "acyclic_join"; "bounded_width"; "hom_ladder" ];
  btw_vs_engine ();
  analysis_cost ()

let micro () =
  let ds = instances 8 in
  let all strategy q () = List.iter (fun d -> ignore (strategy q d)) ds in
  Bench_util.micro
    [
      ( "e21/planner-path6",
        all (fun q d -> Plan.certain q d) (path_q 6) );
      ("e21/hom-path6", all Certain.certain_cq_via_hom (path_q 6));
      ( "e21/planner-clique4",
        all (fun q d -> Plan.certain q d) (clique_q 4) );
      ("e21/hom-clique4", all Certain.certain_cq_via_hom (clique_q 4));
    ]
