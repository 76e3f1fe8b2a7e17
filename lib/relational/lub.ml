open Certdb_values
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let pairs = Obs.counter "rel.lub.pairs"

let pair d d' =
  Obs.incr pairs;
  Trace.with_span "rel.lub.pair" @@ fun () ->
  let avoid = Value.Set.union (Instance.nulls d) (Instance.nulls d') in
  let renamed, _ = Instance.rename_apart ~avoid d' in
  Instance.union d renamed

let family = List.fold_left pair Instance.empty
let canonical xs = Core_instance.core (family xs)
