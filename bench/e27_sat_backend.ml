(* E27 — the SAT backend on the planner's own certificate family.

   The profile the [Auto] route certifies for SAT — cyclic, wide, dense,
   with a large class of interchangeable variables — is exactly where
   chronological backtracking pays the k! permutation tax: a k-clique
   query against the complete digraph on k-1 constants is
   pigeonhole-shaped, and the CSP ladder refutes it leaf by leaf while
   the CDCL core's learned clauses plus the encoder's ordering clauses
   over the interchangeable class cut the blowup to a short refutation.

   Claims, oracle-checked in-process:

   - routing: [Plan.route_cq ~backend:Auto] sends every member of the
     family to [Sat_backend k] with the whole clique as one class;
   - agreement: the CSP and SAT answers are identical on every instance,
     refuted and witnessed alike (gauge [bench.sat.agreed] counts them);
   - speed: on the refuted family, [--backend auto] beats the CSP
     ladder at the largest size — gauge [bench.sat.speedup], CI asserts
     >= 2x.  The CSP column is the bitset engine, which every route now
     runs; the two are about even at k <= 6 and SAT is ahead from
     k = 7 on;
   - same work: gauges [bench.sat.clauses] and [bench.sat.conflicts] sum
     the encoded clauses and the CDCL's conflicts over the refuted
     family.  Both are deterministic, and CI pins them, so a change to
     the encoder or the kernel may move time but not the search;
   - the serve benchmark's SAT keys: bclique-4@m anchored at 2..7, where
     [Auto] routes to CDCL and the engine is several times faster (the
     threshold is set by the planner, not here). *)

module Engine = Certdb_csp.Engine
module Obs = Certdb_obs.Obs
module Backend = Certdb_sat.Backend
module Fo = Certdb_query.Fo
module Cq = Certdb_query.Cq
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

(* k-clique into K_{k-1}: refuted (pigeonhole); into K_k: witnessed.
   CDCL and the bitset engine are about even at k <= 6; SAT is ahead
   from k = 7 and the CSP cost grows factorially past it (measured on a
   2-vCPU VM: k = 7 about 1.7x, k = 8 about 4.5x, k = 9 about 17x in
   SAT's favour) *)
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
  Bench_util.banner "E27  SAT backend vs the CSP ladder on clique families";
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
      let csp = answer Backend.Csp q d in
      let sat = answer Backend.Auto q d in
      if csp <> sat then failwith "E27: backends disagree";
      if csp <> expected then failwith "E27: wrong certain answer";
      incr agreed)
    family;
  Obs.set_int (Obs.gauge "bench.sat.agreed") !agreed;
  Bench_util.subsection "refuted family: K_k query into K_{k-1}";
  Bench_util.row "%-6s %-14s %-14s %-10s" "k" "csp(ms)" "auto(ms)" "speedup";
  let speedups =
    List.filter_map
      (fun (k, n, expected) ->
        if expected then None
        else begin
          let q = clique_cq k and d = complete_digraph n in
          let t_csp =
            Bench_util.time_ms_median (fun () ->
                ignore (answer Backend.Csp q d))
          in
          let t_sat =
            Bench_util.time_ms_median (fun () ->
                ignore (answer Backend.Auto q d))
          in
          let s = t_csp /. t_sat in
          Bench_util.row "%-6d %-14.2f %-14.2f %-10.2f" k t_csp t_sat s;
          Some s
        end)
      family
  in
  (* the headline gauge is the largest family member's speedup: the
     permutation tax grows factorially, the refutation doesn't *)
  let speedup = List.fold_left Float.max 0.0 speedups in
  Obs.set (Obs.gauge "bench.sat.speedup") speedup;
  Bench_util.row "agreement: %d/%d instances; speedup gauge: %.2fx" !agreed
    (List.length family) speedup;
  (* deterministic work over the refuted family: the clauses encoded and
     the conflicts the CDCL needs — what a faster kernel must leave as
     it is (CI pins both) *)
  let clauses = ref 0 and conflicts = ref 0 in
  List.iter
    (fun (k, n, expected) ->
      if not expected then begin
        let (_, dconf), dcls =
          Bench_util.with_counter "csp.sat.clauses" (fun () ->
              Bench_util.with_counter "csp.sat.conflicts" (fun () ->
                  answer Backend.Auto (clique_cq k) (complete_digraph n)))
        in
        clauses := !clauses + dcls;
        conflicts := !conflicts + dconf
      end)
    family;
  Obs.set_int (Obs.gauge "bench.sat.clauses") !clauses;
  Obs.set_int (Obs.gauge "bench.sat.conflicts") !conflicts;
  Bench_util.row "refuted family: %d clauses encoded, %d conflicts" !clauses
    !conflicts;
  Bench_util.subsection
    "serve benchmark's bclique-4@m keys: auto (CDCL) vs csp (engine)";
  Bench_util.row "%-8s %-14s %-14s %-10s" "anchor" "csp(ms)" "auto(ms)"
    "auto/csp";
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
      if answer Backend.Csp q d <> answer Backend.Auto q d then
        failwith "E27: backends disagree on bclique-4@m";
      let time backend =
        Bench_util.time_ms_median ~runs:21 ~warmup:5 (fun () ->
            ignore (answer backend q d))
      in
      let t_csp = time Backend.Csp in
      let t_sat = time Backend.Auto in
      Bench_util.row "%-8d %-14.3f %-14.3f %-10.2f" a t_csp t_sat
        (t_sat /. t_csp))
    [ 2; 3; 4; 5; 6; 7 ]

let micro () =
  let q = clique_cq 6 and d = complete_digraph 5 in
  Bench_util.micro
    [
      ("e27/csp-clique6", fun () -> ignore (answer Backend.Csp q d));
      ("e27/sat-clique6", fun () -> ignore (answer Backend.Auto q d));
    ]
