open Certdb_values
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let pairs = Obs.counter "rel.glb.pairs"
let merged_facts = Obs.counter "rel.glb.merged_facts"

let pair d d' =
  Obs.incr pairs;
  Trace.with_span "rel.glb.pair" @@ fun () ->
  let reg = Merge.create () in
  let result =
    List.fold_left
      (fun acc (f : Instance.fact) ->
        List.fold_left
          (fun acc (g : Instance.fact) ->
            if
              String.equal f.rel g.rel
              && Array.length f.args = Array.length g.args
            then
              Instance.add acc
                { f with args = Merge.arrays reg f.args g.args }
            else acc)
          acc (Instance.facts d'))
      Instance.empty (Instance.facts d)
  in
  Obs.add merged_facts (Instance.cardinal result);
  (result, Merge.left_valuation reg, Merge.right_valuation reg)

let glb d d' =
  let r, _, _ = pair d d' in
  r

let family = function
  | [] -> invalid_arg "Glb.family: empty family"
  | x :: xs -> List.fold_left glb x xs

let certain_information xs = Core_instance.core (family xs)
