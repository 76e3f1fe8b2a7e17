open Certdb_gdm
open Certdb_relational
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let chase_steps = Obs.counter "exchange.chase.steps"
let chase_facts = Obs.counter "exchange.chase.facts"
let chases = Obs.counter "exchange.chase.runs"

let canonical_solution mapping source =
  Obs.incr chases;
  Trace.with_span "exchange.chase" @@ fun () ->
  List.fold_left
    (fun acc piece ->
      Obs.incr chase_steps;
      let u, _, _ = Gdb.disjoint_union acc piece in
      u)
    Gdb.empty
    (Mapping.m_of_d mapping source)

let core_solution_relational mapping source =
  let canonical = canonical_solution mapping source in
  Core_instance.core (Encode.to_instance canonical)

let chase_relational mapping source =
  let gdm_source = Encode.of_instance source in
  let result = Encode.to_instance (canonical_solution mapping gdm_source) in
  Obs.add chase_facts (Instance.cardinal result);
  result
