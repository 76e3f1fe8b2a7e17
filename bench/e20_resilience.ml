(* E20 — one budgeted attempt against the replay a retry ladder paid.
   Every instance of a family of budget-starved hom searches runs once
   through [Resilient.run] (the default policy: budget N x 4^2) on the
   bitset engine's decider; its definitive answers are checked against
   the unlimited engine.  The replay is what a 3-attempt x4 ladder
   spent: the decisions of one attempt at N, then at 4N, then at 16N,
   stopping at the first definitive answer.  A search never reads its
   budget, so both settle the same instances, and the one attempt never
   makes more decisions than the replay (CI asserts both). *)

module Engine = Certdb_csp.Engine
module Resilient = Certdb_csp.Resilient
module Structure = Certdb_csp.Structure
module Decider = Certdb_csp.Decider
module Obs = Certdb_obs.Obs

(* adversarial-ish random digraph pairs: dense-enough sources into
   sparser targets, so a fair share of instances are Unsat with a large
   refutation tree — exactly where budgets trip *)
let instances n =
  List.init n (fun i ->
      let st = Random.State.make [| 0xe20; i |] in
      let gen nodes p =
        let edges = ref [] in
        for a = 0 to nodes - 1 do
          for b = 0 to nodes - 1 do
            if a <> b && Random.State.float st 1.0 < p then
              edges := [| a; b |] :: !edges
          done
        done;
        Structure.make
          ~nodes:(List.init nodes (fun v -> (v, None)))
          ~tuples:[ ("E", !edges) ]
      in
      (gen 10 0.5, gen 7 0.25))

let budget = 10 (* N: starves a big minority *)

let decide ~nodes (source, target) =
  Decider.engine.satisfiable
    (Engine.Config.make ~limits:(Engine.Limits.make ~nodes ()) ())
    source target

let definitive = function Engine.Unknown _ -> false | _ -> true

(* the one attempt: [Resilient.run] under the default policy *)
let one_attempt pair =
  (Resilient.run ~limits:(Engine.Limits.make ~nodes:budget ()) (fun limits ->
       Decider.engine.satisfiable (Engine.Config.make ~limits ()) (fst pair)
         (snd pair)))
    .Resilient.outcome

(* the ladder's replay: attempts at N, 4N, 16N up to the first
   definitive answer *)
let replay pair =
  let rec go = function
    | [] -> Engine.Unknown Engine.Node_budget
    | nodes :: rest ->
      let o = decide ~nodes pair in
      if definitive o then o else go rest
  in
  go [ budget; 4 * budget; 16 * budget ]

let with_decisions f =
  Bench_util.with_counter "csp.solver.decisions" f

let run () =
  Bench_util.banner
    "E20  Resilient: one attempt at 16N against the ladder's replay";
  let pairs = instances 60 in
  let oracle =
    List.map
      (fun (source, target) ->
        match Engine.satisfiable ~source ~target () with
        | Engine.Sat () -> `Sat
        | Engine.Unsat -> `Unsat
        | Engine.Unknown _ -> failwith "E20: unlimited oracle returned Unknown")
      pairs
  in
  Bench_util.row "%d instances, node budget N = %d" (List.length pairs) budget;
  Bench_util.row "%-20s %-9s %-10s %-10s %-10s %-10s" "run" "settled"
    "unknown" "decisions" "wall(ms)" "sound";
  let measure name f =
    let outcomes, decisions =
      with_decisions (fun () -> List.map f pairs)
    in
    let ms = Bench_util.time_ms_median (fun () -> List.map f pairs) in
    let settled = List.length (List.filter definitive outcomes) in
    let sound =
      List.for_all2
        (fun o want ->
          match o with
          | Engine.Sat () -> want = `Sat
          | Engine.Unsat -> want = `Unsat
          | Engine.Unknown _ -> true)
        outcomes oracle
    in
    Bench_util.row "%-20s %-9d %-10d %-10d %-10.2f %-10s" name settled
      (List.length pairs - settled)
      decisions ms
      (if sound then "yes" else "NO");
    if not sound then
      failwith (Printf.sprintf "E20: %S contradicted the unlimited oracle" name);
    (settled, decisions)
  in
  let settled, decisions = measure "one attempt (16N)" one_attempt in
  let replay_settled, replay_decisions =
    measure "replay (N, 4N, 16N)" replay
  in
  List.iter
    (fun (name, v) -> Obs.set_int (Obs.gauge ("bench.resilient." ^ name)) v)
    [
      ("settled", settled);
      ("decisions", decisions);
      ("replay_settled", replay_settled);
      ("replay_decisions", replay_decisions);
    ]

let micro () =
  let pairs = instances 12 in
  Bench_util.micro
    [
      ("e20/one-attempt", fun () -> ignore (List.map one_attempt pairs));
      ("e20/replay", fun () -> ignore (List.map replay pairs));
    ]
