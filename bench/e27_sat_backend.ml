(* E27 — symmetry breaking on the planner's own certificate family.

   The profile the [Auto] route certifies as [Sat_backend k] — cyclic,
   wide, dense, with a large class of interchangeable variables — is
   where chronological backtracking pays the k! permutation tax: a
   k-clique query against the complete digraph on k-1 constants is
   pigeonhole-shaped, and a search that does not break the class's
   symmetry refutes it once per permutation.  Two searches break it: the
   engine's lex-leader constraint h(x_i) <= h(x_(i+1)) along the class
   (what [Auto] and [Csp] run), and the CNF encoder's ordering clauses
   under CDCL (what [--backend sat] runs).

   Claims, oracle-checked in-process:

   - routing: [Plan.route_cq ~backend:Auto] sends every member of the
     family to [Sat_backend k] with the whole clique as one class;
   - agreement: the csp, auto and sat answers are identical on every
     instance, refuted and witnessed alike (gauge [bench.sat.agreed]
     counts them);
   - the engine's work: gauge [bench.sym.decisions] sums its decisions
     over the refuted family (k = 5, 6, 8, 9), 2^(k-1) - 1 each — the
     increasing chains of the pigeonhole, not its k! leaves.
     Deterministic; CI pins it;
   - speed: gauge [bench.sym.speedup] is CDCL's time over the engine's
     at the largest refuted member (k = 9), each decider alone on the
     frozen instance ([Certain.certain_cq_via_sat_b] against
     [certain_cq_via_hom_b]); CI asserts >= 2x.  The table also times
     both through the planner, where the routing they share narrows
     the gap;
   - the CDCL's work: gauges [bench.sat.clauses] and [bench.sat.conflicts]
     sum the encoded clauses and the CDCL's conflicts over the refuted
     family under [--backend sat].  Both are deterministic, and CI pins
     them, so a change to the encoder or the kernel may move time but
     not the search;
   - the serve benchmark's symmetric keys: bclique-4@m anchored at 2..7,
     which [Auto] routes to [Sat_backend] and now answers with the
     engine, as [Csp] does. *)

module Obs = Certdb_obs.Obs
module Backend = Certdb_sat.Backend
module Fo = Certdb_query.Fo
module Cq = Certdb_query.Cq
module Certain = Certdb_query.Certain
module Plan = Certdb_analysis.Plan
module Instance = Certdb_relational.Instance
module Value = Certdb_values.Value

let v i = Fo.Var (Printf.sprintf "x%d" i)

(* both edge directions per pair: every variable pair is constrained, so
   all k variables form one interchangeable class *)
let clique_cq k =
  let ids = List.init k Fun.id in
  Cq.boolean
    (List.concat_map
       (fun a ->
         List.filter_map
           (fun b -> if a <> b then Some ("E", [ v a; v b ]) else None)
           ids)
       ids)

let complete_digraph n =
  let ids = List.init n Fun.id in
  Instance.of_list
    [
      ( "E",
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if i <> j then Some [ Value.int (i + 1); Value.int (j + 1) ]
                else None)
              ids)
          ids );
    ]

(* k-clique into K_{k-1}: refuted (pigeonhole); into K_k: witnessed *)
let family =
  [
    (5, 4, false);
    (6, 5, false);
    (8, 7, false);
    (9, 8, false);
    (5, 5, true);
    (6, 6, true);
  ]

(* The serve benchmark's SAT keys: bclique-4 anchored at constants 2..7
   over miss's 20-constant "m" digraph.  perfbench/pb/workload.ml draws
   the digraph; these are the same splitmix draws, so the instance is the
   one [certdb serve] answers there (up to the seed's constant offset). *)
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
      (fun a ->
        List.init 4 (fun _ -> [ Value.int (1 + a); Value.int (1 + next 20) ]))
      (List.init 20 Fun.id)
  in
  let to_nulls =
    List.init 10 (fun k -> [ Value.int (1 + next 20); Value.null (k mod 5) ])
  in
  Instance.of_list [ ("R", edges @ to_nulls) ]

let bclique4_at anchor =
  let ids = List.init 4 Fun.id in
  Cq.boolean
    (("R", [ Fo.Val (Value.int anchor); v 0 ])
    :: List.concat_map
         (fun a ->
           List.filter_map
             (fun b -> if a <> b then Some ("R", [ v a; v b ]) else None)
             ids)
         ids)

let answer backend q d =
  match Plan.certain ~backend q d with
  | `Exact b -> b
  | `Lower_bound _ -> failwith "E27: degraded under an unlimited budget"

let run () =
  Bench_util.banner "E27  symmetry breaking: the engine's lex-leader vs CDCL";
  let agreed = ref 0 in
  List.iter
    (fun (k, n, expected) ->
      let q = clique_cq k in
      (match (Plan.route_cq ~backend:Backend.Auto q).Plan.route with
      | Plan.Sat_backend cls when cls = k -> ()
      | r ->
        failwith
          (Printf.sprintf "E27: clique %d routed to %s under auto" k
             (Plan.route_to_string r)));
      let d = complete_digraph n in
      let answers = List.map (fun b -> answer b q d) Backend.[ Csp; Auto; Sat ] in
      if List.exists (fun a -> a <> expected) answers then
        failwith "E27: wrong certain answer";
      incr agreed)
    family;
  Obs.set_int (Obs.gauge "bench.sat.agreed") !agreed;
  let refuted =
    List.filter_map
      (fun (k, n, expected) -> if expected then None else Some (k, n))
      family
  in
  Bench_util.subsection "refuted family: K_k query into K_{k-1}";
  (* [auto] and [sat] are the planner's answers; [engine] and [cdcl] the
     two deciders alone on the same frozen instance, without the
     routing both columns pay *)
  Bench_util.row "%-4s %-10s %-10s %-10s %-11s %-10s %-10s" "k" "decisions"
    "auto(ms)" "sat(ms)" "engine(ms)" "cdcl(ms)" "cdcl/eng";
  let rows =
    List.map
      (fun (k, n) ->
        let q = clique_cq k and d = complete_digraph n in
        let _, decisions =
          Bench_util.with_counter "csp.solver.decisions" (fun () ->
              answer Backend.Auto q d)
        in
        let time f = Bench_util.time_ms_median ~runs:11 ~warmup:3 f in
        let t_auto = time (fun () -> ignore (answer Backend.Auto q d)) in
        let t_sat = time (fun () -> ignore (answer Backend.Sat q d)) in
        let t_engine =
          time (fun () -> ignore (Certain.certain_cq_via_hom_b q d))
        in
        let t_cdcl = time (fun () -> ignore (Certain.certain_cq_via_sat_b q d)) in
        Bench_util.row "%-4d %-10d %-10.3f %-10.3f %-11.3f %-10.3f %-10.2f" k
          decisions t_auto t_sat t_engine t_cdcl (t_cdcl /. t_engine);
        (k, decisions, t_cdcl /. t_engine))
      refuted
  in
  let decisions = List.fold_left (fun acc (_, d, _) -> acc + d) 0 rows in
  (* the headline gauge is the largest refuted member's ratio *)
  let _, _, speedup =
    List.fold_left
      (fun ((k0, _, _) as best) ((k, _, _) as r) -> if k > k0 then r else best)
      (List.hd rows) rows
  in
  Obs.set_int (Obs.gauge "bench.sym.decisions") decisions;
  Obs.set (Obs.gauge "bench.sym.speedup") speedup;
  Bench_util.row
    "agreement: %d/%d instances; engine decisions %d; CDCL/engine at the \
     largest k: %.2fx"
    !agreed (List.length family) decisions speedup;
  (* deterministic work over the refuted family under --backend sat: the
     clauses encoded and the conflicts the CDCL needs — what a faster
     kernel must leave as it is (CI pins both) *)
  let clauses = ref 0 and conflicts = ref 0 in
  List.iter
    (fun (k, n) ->
      let (_, dconf), dcls =
        Bench_util.with_counter "csp.sat.clauses" (fun () ->
            Bench_util.with_counter "csp.sat.conflicts" (fun () ->
                answer Backend.Sat (clique_cq k) (complete_digraph n)))
      in
      clauses := !clauses + dcls;
      conflicts := !conflicts + dconf)
    refuted;
  Obs.set_int (Obs.gauge "bench.sat.clauses") !clauses;
  Obs.set_int (Obs.gauge "bench.sat.conflicts") !conflicts;
  Bench_util.row "refuted family: %d clauses encoded, %d conflicts" !clauses
    !conflicts;
  Bench_util.subsection "serve benchmark's bclique-4@m keys";
  Bench_util.row "%-8s %-12s %-12s %-12s %-10s" "anchor" "csp(ms)" "auto(ms)"
    "sat(ms)" "auto/csp";
  let d = miss_m_digraph () in
  List.iter
    (fun a ->
      let q = bclique4_at a in
      (match (Plan.route_cq ~backend:Backend.Auto q).Plan.route with
      | Plan.Sat_backend _ -> ()
      | r ->
        failwith
          (Printf.sprintf "E27: bclique-4@%d routed to %s under auto" a
             (Plan.route_to_string r)));
      (match List.map (fun b -> answer b q d) Backend.[ Csp; Auto; Sat ] with
      | [ x; y; z ] when x = y && y = z -> ()
      | _ -> failwith "E27: backends disagree on bclique-4@m");
      let time backend =
        Bench_util.time_ms_median ~runs:21 ~warmup:5 (fun () ->
            ignore (answer backend q d))
      in
      let t_csp = time Backend.Csp in
      let t_auto = time Backend.Auto in
      let t_sat = time Backend.Sat in
      Bench_util.row "%-8d %-12.3f %-12.3f %-12.3f %-10.2f" a t_csp t_auto
        t_sat (t_auto /. t_csp))
    [ 2; 3; 4; 5; 6; 7 ]

let micro () =
  let q = clique_cq 6 and d = complete_digraph 5 in
  Bench_util.micro
    [
      ("e27/engine-clique6", fun () -> ignore (answer Backend.Auto q d));
      ("e27/sat-clique6", fun () -> ignore (answer Backend.Sat q d));
    ]
