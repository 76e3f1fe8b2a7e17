(* Experiment harness: one section per experiment in DESIGN.md's
   per-experiment index (the paper is a theory paper — each "table" is the
   executable content of a numbered result), plus Bechamel micro-benchmarks
   and the ablations.

   Usage:
     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- e4 e11       # selected experiments
     dune exec bench/main.exe -- micro        # micro-benchmarks only
     dune exec bench/main.exe -- all micro    # everything
     dune exec bench/main.exe -- all --json bench_out.json
                                              # + one JSON record per
                                              #   experiment (wall ms,
                                              #   obs counters/timers) *)

let experiments =
  [
    ("e1", "naive evaluation = certain answers for UCQs", E01_naive_ucq.run);
    ("e2", "Prop. 1: the naive-evaluation boundary", E02_naive_boundary.run);
    ("e3", "Prop. 5: relational glbs and size growth", E03_glb_product.run);
    ("e4", "Theorem 3: no glb for the cycle family", E04_no_glb_cycles.run);
    ("e5", "Prop. 4: orderings on Codd vs naive", E05_codd_orderings.run);
    ("e6", "Prop. 8: CWA = hoare + Hall", E06_cwa_hall.run);
    ("e7", "XML glbs; Props. 6 and 10", E07_xml_glb.run);
    ("e8", "Theorem 4: the generalized glb", E08_gdm_glb.run);
    ("e9", "Theorem 5: universal solutions = lubs", E09_exchange_lub.run);
    ("e10", "Prop. 11: consistency", E10_consistency.run);
    ("e11", "Theorem 6: Codd membership at bounded treewidth", E11_codd_membership.run);
    ("e12", "Theorem 7: FO(S,~) query answering", E12_query_answering.run);
    ("e13", "Theorem 1/Lemma 1/Cor. 1 instantiated", E13_maxdesc.run);
    ("e14", "tree patterns and XML-to-XML queries", E14_patterns.run);
    ("e15", "c-tables: strong representation system", E15_ctables.run);
    ("e16", "XML exchange: loss of canonicity", E16_xml_exchange.run);
    ("e17", "Prop. 3/9: ordering = homomorphism", E17_prop3.run);
    ("e18", "1990s lifts: nested relations vs XML", E18_nineties.run);
    ("e19", "Engine.Batch: domain-parallel hom-search throughput", E19_engine_batch.run);
    ("e20", "Resilient: one attempt against the replay of a retry ladder",
     E20_resilience.run);
    ("e21", "Planner: certificate-driven routing vs fixed strategies", E21_planner.run);
    ("e22", "Service: semantic cache on a Zipf-skewed replay", E22_service.run);
    ("e23", "Tracing: request-span overhead on the e22 replay", E23_tracing.run);
    ("e24", "interned/bitset core and component-parallel hom search",
     E24_components.run);
    ("e25", "Robust serve: e22 replay under wire faults + overload burst",
     E25_robust_serve.run);
    ("e26", "Constraint certificates: graded checks vs completion enumeration",
     E26_constraint_certs.run);
    ("e27", "SAT backend: CDCL + symmetry breaking vs the CSP ladder",
     E27_sat_backend.run);
  ]

let micros =
  [
    E01_naive_ucq.micro; E03_glb_product.micro; E04_no_glb_cycles.micro;
    E05_codd_orderings.micro; E06_cwa_hall.micro; E07_xml_glb.micro;
    E08_gdm_glb.micro; E09_exchange_lub.micro; E10_consistency.micro;
    E11_codd_membership.micro; E12_query_answering.micro;
    E14_patterns.micro; E15_ctables.micro; E19_engine_batch.micro;
    E20_resilience.micro; E21_planner.micro; E22_service.micro;
    E23_tracing.micro; E24_components.micro; E26_constraint_certs.micro;
    E27_sat_backend.micro;
  ]

let run_micros () =
  Bench_util.banner "Bechamel micro-benchmarks";
  List.iter (fun m -> m ()) micros

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --json FILE: emit one machine-readable record per experiment *)
  let rec extract_json acc = function
    | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--json" :: [] ->
      prerr_endline "bench: --json needs a file argument";
      exit 2
    | x :: rest -> extract_json (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_path, args = extract_json [] args in
  let records = ref [] in
  let recorded name title run =
    Certdb_obs.Obs.reset ();
    let (), wall_ms = Bench_util.time_ms run in
    if json_path <> None then
      records :=
        Bench_util.bench_record ~name ~title ~wall_ms
          (Certdb_obs.Obs.snapshot ())
        :: !records
  in
  let want name = args = [] || List.mem name args || List.mem "all" args in
  List.iter
    (fun (name, title, run) -> if want name then recorded name title run)
    experiments;
  if List.mem "micro" args then run_micros ();
  if List.mem "ablations" args || args = [] || List.mem "all" args then
    recorded "ablations" "solver / bounded-width / glb ablations" Ablations.run;
  (match json_path with
  | None -> ()
  | Some path ->
    Bench_util.write_bench_json ~path (List.rev !records);
    Printf.printf "wrote %d bench records to %s\n%!" (List.length !records)
      path);
  Bench_util.banner "done"
