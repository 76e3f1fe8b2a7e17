(* E20 — the Resilient retry/escalation ladder: how many of a family of
   budget-starved hom searches each policy settles, at what cost.  Every
   instance runs the bitset engine's decider under the same tight
   attempt-1 node budget through [Resilient.run]; the policies differ in
   attempts and escalation.  Definitive answers are checked against the
   unlimited engine, so a policy can only trade "unknown" for work —
   never for a wrong answer (the Resilient invariant). *)

module Engine = Certdb_csp.Engine
module Resilient = Certdb_csp.Resilient
module Structure = Certdb_csp.Structure
module Decider = Certdb_csp.Decider
module Obs = Certdb_obs.Obs

(* adversarial-ish random digraph pairs: dense-enough sources into
   sparser targets, so a fair share of instances are Unsat with a large
   refutation tree — exactly where budgets trip and escalation matters *)
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

let budget = 10 (* per-attempt node budget: starves a big minority *)

let policies =
  [
    ("no-retry", Resilient.Policy.no_retry);
    ("escalate x4", Resilient.Policy.make ~max_attempts:3 ~escalation:4.0 ());
  ]

let run_policy policy pairs =
  List.map
    (fun (source, target) ->
      Resilient.run ~policy ~limits:(Engine.Limits.make ~nodes:budget ())
        (fun limits ->
          Decider.engine.satisfiable
            (Engine.Config.make ~limits ())
            source target))
    pairs

let run () =
  Bench_util.banner
    "E20  Resilient: retry/escalation policies on budget-starved searches";
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
  Bench_util.row "%d instances, per-attempt node budget %d" (List.length pairs)
    budget;
  Bench_util.row "%-20s %-9s %-10s %-10s %-10s %-10s" "policy" "settled"
    "unknown" "attempts" "wall(ms)" "sound";
  List.iter
    (fun (name, policy) ->
      let results = run_policy policy pairs in
      let ms = Bench_util.time_ms_median (fun () -> run_policy policy pairs) in
      let settled = ref 0 and unknown = ref 0 and attempts = ref 0 in
      let sound = ref true in
      List.iter2
        (fun r want ->
          attempts := !attempts + r.Resilient.attempts;
          match r.Resilient.outcome with
          | Engine.Sat () ->
            incr settled;
            if want <> `Sat then sound := false
          | Engine.Unsat ->
            incr settled;
            if want <> `Unsat then sound := false
          | Engine.Unknown _ -> incr unknown)
        results oracle;
      Obs.set
        (Obs.gauge (Printf.sprintf "bench.resilient.settled.%s" name))
        (float_of_int !settled);
      Bench_util.row "%-20s %-9d %-10d %-10d %-10.2f %-10s" name !settled
        !unknown !attempts ms
        (if !sound then "yes" else "NO");
      if not !sound then
        failwith
          (Printf.sprintf "E20: policy %S contradicted the unlimited oracle"
             name))
    policies

let micro () =
  let pairs = instances 12 in
  Bench_util.micro
    [
      ( "e20/no-retry",
        fun () -> ignore (run_policy Resilient.Policy.no_retry pairs) );
      ( "e20/escalate-x4",
        fun () -> ignore (run_policy Resilient.Policy.default pairs) );
    ]
