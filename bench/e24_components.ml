(* E24 — the interned/bitset data layer and the component split.

   Two claims, both oracle-checked in-process:

   - single-thread: the compiled bitset engine beats the preserved
     map/set [Engine.Reference] core on the E19-style budgeted hom
     family (same outcomes, identical search tree) — gauge
     [bench.components.core_speedup], expected >= 1.5;
   - multi-component: on a source with many connected components, the
     engine's existence search, which solves the components one at a
     time, answers exactly as the reference core searching the whole
     instance — [bench.components.count] records the component count
     the engine reports on its [csp.components.count] gauge. *)

module Engine = Certdb_csp.Engine
module Structure = Certdb_csp.Structure
module Obs = Certdb_obs.Obs
open Certdb_graph

let graph ~seed ~vertices ~edge_prob =
  Digraph.to_structure (Digraph.random ~seed ~vertices ~edge_prob ())

(* E19-style family: independent budgeted hom searches on random digraph
   pairs, a mix of satisfiable and exhaustively-refuted instances. *)
let core_tasks n =
  List.init n (fun i ->
      let source = graph ~seed:i ~vertices:8 ~edge_prob:0.3 in
      let target = graph ~seed:(i + 1000) ~vertices:11 ~edge_prob:0.25 in
      (source, target))

let limits = Engine.Limits.make ~nodes:400_000 ()
let config = Engine.Config.make ~limits ()

let solve_core engine tasks =
  List.map
    (fun (source, target) ->
      Engine.decision_of_outcome
        (match engine with
        | `Bitset -> Engine.satisfiable ~config ~source ~target ()
        | `Reference -> Engine.Reference.satisfiable ~config ~source ~target ()))
    tasks

let core_family () =
  let tasks = core_tasks 20 in
  Bench_util.subsection
    (Printf.sprintf "interned/bitset core vs reference: %d budgeted searches"
       (List.length tasks));
  let bitset = solve_core `Bitset tasks in
  let reference = solve_core `Reference tasks in
  if bitset <> reference then failwith "E24: core engines disagree";
  let t_ref = Bench_util.time_ms_median (fun () -> solve_core `Reference tasks) in
  let t_bit = Bench_util.time_ms_median (fun () -> solve_core `Bitset tasks) in
  let speedup = t_ref /. t_bit in
  Obs.set (Obs.gauge "bench.components.core_speedup") speedup;
  Bench_util.row "%-12s %-12s" "engine" "wall(ms)";
  Bench_util.row "%-12s %-12.2f" "reference" t_ref;
  Bench_util.row "%-12s %-12.2f" "bitset" t_bit;
  Bench_util.row "speedup: %.2fx (oracle: outcomes identical)" speedup

(* A cartesian-product shape: one instance with many independent
   components, which the engine's existence search solves one at a time
   under one budget.  [K3] is symmetric, so hom into it is exactly
   3-coloring; components drawn at the 3-colorability threshold (average
   degree ≈ 4.6) force a deep refutation tree on the unsat ones. *)
let coloring_source seed k =
  let component i =
    graph ~seed:(seed + (31 * i)) ~vertices:40 ~edge_prob:0.075
  in
  List.fold_left
    (fun acc i ->
      let u, _, _ = Structure.disjoint_union acc (component i) in
      u)
    (component 0)
    (List.init (k - 1) (fun i -> i + 1))

let k3 = Digraph.to_structure (Digraph.clique 3)

let component_tasks n =
  List.init n (fun i -> (coloring_source (i * 13) 48, k3))

let components_family () =
  let tasks = component_tasks 1 in
  let components = Obs.gauge "csp.components.count" in
  Obs.set_int components 0;
  let engine = solve_core `Bitset tasks in
  let comp_count = int_of_float (Obs.gauge_value components) in
  Bench_util.subsection
    (Printf.sprintf
       "component split: %d multi-component instances (%d components)"
       (List.length tasks) comp_count);
  Obs.set_int (Obs.gauge "bench.components.count") comp_count;
  let reference = solve_core `Reference tasks in
  if engine <> reference then
    failwith "E24: component split disagrees with the whole-instance search";
  let t_ref = Bench_util.time_ms_median (fun () -> solve_core `Reference tasks) in
  let t_bit = Bench_util.time_ms_median (fun () -> solve_core `Bitset tasks) in
  Bench_util.row "%-22s %-12s" "engine" "wall(ms)";
  Bench_util.row "%-22s %-12.2f" "reference (whole)" t_ref;
  Bench_util.row "%-22s %-12.2f" "bitset (split)" t_bit;
  Bench_util.row "oracle: answers identical (%s)"
    (String.concat ", "
       (List.map
          (function
            | `True -> "true"
            | `False -> "false"
            | `Unknown r -> "unknown: " ^ Engine.reason_to_string r)
          engine))

let run () =
  Bench_util.banner
    "E24  interned columnar core and the component split of hom search";
  core_family ();
  components_family ()

let micro () =
  let tasks = core_tasks 6 in
  let ctasks = component_tasks 1 in
  Bench_util.micro
    [
      ("e24/core-bitset", fun () -> ignore (solve_core `Bitset tasks));
      ("e24/core-reference", fun () -> ignore (solve_core `Reference tasks));
      ("e24/components", fun () -> ignore (solve_core `Bitset ctasks));
    ]
