(* Ablations called out in DESIGN.md:
   - CSP solver: MRV + forward checking vs naive lexicographic backtracking
     (branching decisions explored);
   - bounded-width search: the engine over a tree decomposition with vs
     without the candidate relation R pruning (decisions);
   - glb core reduction: eager core after every pairwise glb vs one core at
     the end. *)

open Certdb_values
open Certdb_csp
open Certdb_graph
open Certdb_relational

let run () =
  Bench_util.banner "Ablations";

  Bench_util.subsection
    "csp solver: MRV + propagation vs naive backtracking (decisions)";
  Bench_util.row "%-22s %-12s %-12s %-10s %-10s" "instance" "mrv-steps"
    "naive-steps" "mrv(ms)" "naive(ms)";
  List.iter
    (fun (name, source, target) ->
      let (_, mrv_ms), mrv_steps =
        Bench_util.with_counter "csp.solver.decisions" (fun () ->
            Bench_util.time_ms (fun () ->
                ignore (Solver.find_hom ~source ~target ())))
      in
      let (_, naive_ms), naive_steps =
        Bench_util.with_counter "csp.solver.naive.decisions" (fun () ->
            Bench_util.time_ms (fun () ->
                ignore (Solver.find_hom_naive ~source ~target ())))
      in
      Bench_util.row "%-22s %-12d %-12d %-10.2f %-10.2f" name mrv_steps
        naive_steps mrv_ms naive_ms)
    [
      ( "C12 -> C6",
        Digraph.to_structure (Digraph.cycle 12),
        Digraph.to_structure (Digraph.cycle 6) );
      ( "C9 -> C4 (no hom)",
        Digraph.to_structure (Digraph.cycle 9),
        Digraph.to_structure (Digraph.cycle 4) );
      ( "grid3x3 -> K3",
        Digraph.to_structure (Digraph.grid 3 3),
        Digraph.to_structure (Digraph.clique 3) );
      ( "P16 -> C8",
        Digraph.to_structure (Digraph.path 16),
        Digraph.to_structure (Digraph.cycle 8) );
    ];

  Bench_util.subsection
    "bounded-width search: decisions with vs without R pruning";
  (* membership instance: tree-shaped Codd database into a grounding *)
  let mk_tree ~seed ~nodes =
    Certdb_gdm.Ggen.tree ~seed ~nodes ~labels:[ "a" ] ~null_prob:0.4
      ~domain:3 ()
  in
  let open Certdb_gdm in
  Bench_util.row "%-8s %-14s %-14s" "nodes" "with-R" "without-R";
  List.iter
    (fun nodes ->
      let d = mk_tree ~seed:5 ~nodes in
      let d' = Gdb.ground (mk_tree ~seed:6 ~nodes:(nodes + 4)) in
      let source = Gdb.structure d and target = Gdb.structure d' in
      let decisions ?restrict () =
        snd
          (Bench_util.with_counter "csp.solver.decisions" (fun () ->
               Decider.btw.satisfiable
                 (Engine.Config.make ?restrict ())
                 source target))
      in
      let with_r =
        decisions ~restrict:(Membership.candidate_relation d d') ()
      in
      let without_r = decisions () in
      Bench_util.row "%-8d %-14d %-14d" nodes with_r without_r)
    [ 8; 16; 32 ];

  Bench_util.subsection "glb families: eager vs lazy core reduction";
  let table ~offset ~tuples =
    Instance.of_list
      [ ("R",
         List.init tuples (fun i -> [ Value.int (offset + i); Value.fresh_null () ])) ]
  in
  Bench_util.row "%-4s %-14s %-14s %-12s %-12s" "k" "lazy(ms)" "eager(ms)"
    "|lazy|" "|eager|";
  List.iter
    (fun k ->
      let tables = List.init k (fun i -> table ~offset:(i * 10) ~tuples:3) in
      let lazy_result, lazy_ms =
        Bench_util.time_ms (fun () -> Core_instance.core (Glb.family tables))
      in
      let eager_result, eager_ms =
        Bench_util.time_ms (fun () ->
            match tables with
            | [] -> assert false
            | t :: ts ->
              List.fold_left
                (fun acc t' -> Core_instance.core (Glb.glb acc t'))
                t ts)
      in
      Bench_util.row "%-4d %-14.2f %-14.2f %-12d %-12d" k lazy_ms eager_ms
        (Instance.cardinal lazy_result)
        (Instance.cardinal eager_result))
    [ 2; 3; 4 ]
