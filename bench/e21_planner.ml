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
  btw_vs_engine ()

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
