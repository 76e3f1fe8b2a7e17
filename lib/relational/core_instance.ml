open Certdb_values
module Engine = Certdb_csp.Engine

(* [d] is not a core iff some endomorphism misses a fact [f], i.e. iff
   [d → d − {f}] for some [f]; its image is then a strictly smaller
   instance hom-equivalent to [d].  One pass over the facts suffices: a
   fact that [d] cannot drop cannot be dropped by an image of [d] either
   (compose the two homs).  A fact without nulls is fixed by every
   endomorphism, so only facts with nulls are tried.  Each test runs
   under [limits]; the first one that trips stops the computation. *)
let core_b ?limits d =
  let rec shrink d = function
    | [] -> Engine.Sat d
    | (f : Instance.fact) :: rest when not (Instance.mem d f) -> shrink d rest
    | f :: rest -> (
      let without =
        Instance.filter (fun g -> Instance.compare_fact f g <> 0) d
      in
      match Hom.find_b ?limits d without with
      | Engine.Sat h -> shrink (Instance.apply h d) rest
      | Engine.Unsat -> shrink d rest
      | Engine.Unknown r -> Engine.Unknown r)
  in
  shrink d
    (List.filter
       (fun (f : Instance.fact) -> Array.exists Value.is_null f.args)
       (Instance.facts d))

let core d = Option.get (Certdb_csp.Solver.definitive (core_b d))
let is_core d = Instance.cardinal (core d) = Instance.cardinal d
