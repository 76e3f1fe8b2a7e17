open Certdb_csp
open Certdb_gdm
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let searches = Obs.counter "xml.tree_hom.searches"

(* Compose a caller restriction with the root-pinning one; both are
   first-class Domains.t values, so composition is Domains.inter. *)
let effective_restrict ~require_root ~restrict _d' =
  let root_restrict =
    if require_root then Some (Domains.singleton 0 0) else None
  in
  match (root_restrict, restrict) with
  | None, None -> None
  | Some r, None | None, Some r -> Some r
  | Some r1, Some r2 -> Some (Domains.inter r1 r2)

let find ?(require_root = false) ?restrict t t' =
  Obs.incr searches;
  Trace.with_span "xml.tree_hom.find" @@ fun () ->
  let d = Tree.to_gdb t and d' = Tree.to_gdb t' in
  let restrict = effective_restrict ~require_root ~restrict d' in
  Ghom.find ?restrict d d'

let find_b ?(require_root = false) ?restrict ?limits t t' =
  Obs.incr searches;
  Trace.with_span "xml.tree_hom.find" @@ fun () ->
  let d = Tree.to_gdb t and d' = Tree.to_gdb t' in
  let restrict = effective_restrict ~require_root ~restrict d' in
  Ghom.find_b ?restrict ?limits d d'

let exists ?require_root ?restrict t t' =
  Option.is_some (find ?require_root ?restrict t t')

let exists_b ?require_root ?restrict ?limits t t' =
  Engine.decision_of_outcome (find_b ?require_root ?restrict ?limits t t')

let leq t t' = exists t t'
let leq_b ?limits t t' = exists_b ?limits t t'
let equiv t t' = leq t t' && leq t' t
let strictly_less t t' = leq t t' && not (leq t' t)
let incomparable t t' = (not (leq t t')) && not (leq t' t)
let models t t' = leq t' t
let mem t' t = Tree.is_complete t' && leq t t'

let mem_b ?limits t' t =
  if not (Tree.is_complete t') then `False else leq_b ?limits t t'

(* {2 Graceful degradation} *)

module Resilient = Certdb_csp.Resilient

let resilient_exact = Obs.counter "xml.resilient.exact"
let resilient_degraded = Obs.counter "xml.resilient.degraded"

let leq_resilient ?policy ?(limits = Engine.Limits.unlimited) t t' =
  Resilient.run ?policy ~limits (fun limits -> find_b ~limits t t')
  |> Resilient.graded ~exact:resilient_exact ~degraded:resilient_degraded
       ~exhausted:(fun () ->
         (* for tree hom existence the only positive certificate is a
            witness, and the only negative one is exhaustion; once the
            search trips there is nothing sound left to certify *)
         `Lower_bound false)

let mem_resilient ?policy ?limits t' t =
  if not (Tree.is_complete t') then begin
    Obs.incr resilient_exact;
    `Exact false
  end
  else leq_resilient ?policy ?limits t t'
