(* E11 — Theorem 6: membership under the Codd interpretation is PTIME for
   bounded-treewidth structures.  Shape: the engine's search over a tree
   decomposition (a memo on separator assignments) scales polynomially on
   tree-shaped and width-2 inputs while the propagation-free backtracking
   baseline degrades; both agree with the MRV solver on small instances. *)

open Certdb_csp
open Certdb_gdm

let tree_gdb ~seed ~nodes ~labels ~null_prob ~domain =
  Ggen.tree ~seed ~nodes ~labels ~null_prob ~domain ()

let ladder_gdb ~seed ~rungs ~null_prob ~domain =
  Ggen.ladder ~seed ~rungs ~null_prob ~domain ()

let naive_backtrack_leq d d' =
  (* the ablation baseline: lexicographic backtracking restricted by the
     candidate relation, no decomposition *)
  Option.is_some
    (Solver.find_hom_naive
       ~restrict:(Membership.candidate_relation d d')
       ~source:(Gdb.structure d) ~target:(Gdb.structure d') ())

(* the same R-compatible hom question on the bitset engine, the
   strongest search in the repository: MRV + forward checking over the
   compiled instance, under a node budget so an exponential refutation
   cannot stall the table; [None] when the budget trips *)
let engine_budget = 2_000_000

let engine_leq d d' =
  match
    Engine.satisfiable
      ~config:
        (Engine.Config.make
           ~limits:(Engine.Limits.make ~nodes:engine_budget ())
           ~restrict:(Membership.candidate_relation d d')
           ())
      ~source:(Gdb.structure d) ~target:(Gdb.structure d') ()
  with
  | Engine.Sat () -> Some true
  | Engine.Unsat -> Some false
  | Engine.Unknown _ -> None

let engine_cell d d' =
  let answer = engine_leq d d' in
  let ms = Bench_util.time_ms_median (fun () -> ignore (engine_leq d d')) in
  let _, steps =
    Bench_util.with_counter "csp.solver.decisions" (fun () ->
        ignore (engine_leq d d'))
  in
  (answer, ms, steps)

let run () =
  Bench_util.banner
    "E11  Theorem 6: Codd membership in PTIME at bounded treewidth";
  Bench_util.subsection
    "agreement of btw, bitset engine, generic MRV solver and naive backtracking";
  let agree = ref 0 and trials = 20 in
  for seed = 0 to trials - 1 do
    let d = tree_gdb ~seed ~nodes:6 ~labels:[ "a"; "b" ] ~null_prob:0.5 ~domain:2 in
    let d' =
      Gdb.ground
        (tree_gdb ~seed:(seed + 500) ~nodes:7 ~labels:[ "a"; "b" ]
           ~null_prob:0.0 ~domain:2)
    in
    let btw = Membership.codd_leq d d' in
    let mrv = Membership.generic_leq d d' in
    let naive = naive_backtrack_leq d d' in
    if btw = mrv && mrv = naive && engine_leq d d' = Some btw then incr agree
  done;
  Bench_util.row "all four algorithms agree: %d/%d" !agree trials;

  Bench_util.subsection "scaling on tree-shaped instances (treewidth 1)";
  Bench_util.row "%-8s %-8s %-10s %-10s %-11s %-12s %-10s %-10s %-12s"
    "nodes" "width" "btw(ms)" "btw-dec" "engine(ms)" "engine-dec" "mrv(ms)"
    "mrv-steps" "naive-bt(ms)";
  List.iter
    (fun nodes ->
      let d =
        tree_gdb ~seed:42 ~nodes ~labels:[ "a"; "b" ] ~null_prob:0.4 ~domain:3
      in
      let d' =
        Gdb.ground
          (tree_gdb ~seed:43 ~nodes:(nodes + 4) ~labels:[ "a"; "b" ]
             ~null_prob:0.0 ~domain:3)
      in
      let decomposition = Treewidth.of_structure (Gdb.structure d) in
      let btw_ms =
        Bench_util.time_ms_median (fun () -> ignore (Membership.codd_leq ~decomposition d d'))
      in
      (* work counters for one run, read back through the obs registry *)
      let btw, btw_work =
        Bench_util.with_counter "csp.solver.decisions" (fun () ->
            Membership.codd_leq ~decomposition d d')
      in
      (* the generic solver is exponential on unsatisfiable instances; past
         32 nodes it no longer terminates in reasonable time — exactly the
         separation Theorem 6 is about *)
      let mrv_ms =
        if nodes <= 32 then
          Bench_util.time_ms_median (fun () -> ignore (Membership.generic_leq d d'))
        else Float.nan
      in
      let mrv_steps =
        if nodes <= 32 then
          snd
            (Bench_util.with_counter "csp.solver.decisions" (fun () ->
                 ignore (Membership.generic_leq d d')))
        else -1
      in
      let naive_ms =
        if nodes <= 32 then
          Bench_util.time_ms_median (fun () -> ignore (naive_backtrack_leq d d'))
        else Float.nan
      in
      let engine, engine_ms, engine_steps = engine_cell d d' in
      if engine <> None && engine <> Some btw then
        failwith "E11: btw contradicted the bitset engine";
      Bench_util.row "%-8d %-8d %-10.3f %-10d %-11s %-12d %-10.3f %-10d %-12.3f"
        nodes (Treewidth.width decomposition) btw_ms btw_work
        (if engine = None then "budget" else Printf.sprintf "%.3f" engine_ms)
        engine_steps mrv_ms mrv_steps naive_ms)
    [ 8; 16; 32; 64; 128 ];

  Bench_util.subsection "scaling on ladders (treewidth 2)";
  Bench_util.row "%-8s %-8s %-10s %-10s %-11s %-12s" "nodes" "width" "btw(ms)"
    "btw-dec" "engine(ms)" "engine-dec";
  List.iter
    (fun rungs ->
      let d = ladder_gdb ~seed:7 ~rungs ~null_prob:0.4 ~domain:3 in
      let d' = Gdb.ground (ladder_gdb ~seed:8 ~rungs:(rungs + 2) ~null_prob:0.0 ~domain:3) in
      let decomposition = Treewidth.of_structure (Gdb.structure d) in
      let btw_ms =
        Bench_util.time_ms_median (fun () ->
            ignore (Membership.codd_leq ~decomposition d d'))
      in
      let btw, btw_work =
        Bench_util.with_counter "csp.solver.decisions" (fun () ->
            Membership.codd_leq ~decomposition d d')
      in
      let engine, engine_ms, engine_steps = engine_cell d d' in
      if engine <> None && engine <> Some btw then
        failwith "E11: btw contradicted the bitset engine";
      Bench_util.row "%-8d %-8d %-10.3f %-10d %-11s %-12d" (2 * rungs)
        (Treewidth.width decomposition) btw_ms btw_work
        (if engine = None then "budget" else Printf.sprintf "%.3f" engine_ms)
        engine_steps)
    [ 4; 8; 16; 32 ]

let micro () =
  let d = tree_gdb ~seed:2 ~nodes:32 ~labels:[ "a"; "b" ] ~null_prob:0.4 ~domain:3 in
  let d' =
    Gdb.ground (tree_gdb ~seed:3 ~nodes:36 ~labels:[ "a"; "b" ] ~null_prob:0.0 ~domain:3)
  in
  Bench_util.micro
    [
      ("e11/codd-btw-32", fun () -> ignore (Membership.codd_leq d d'));
      ("e11/mrv-32", fun () -> ignore (Membership.generic_leq d d'));
    ]
