open Certdb_values
module Engine = Certdb_csp.Engine
module Domains = Certdb_csp.Domains

(* [d] is not a core iff some endomorphism misses a null of [d].  An
   endomorphism injective on the finite active domain permutes it, hence
   permutes the facts (constants are always fixed); a non-injective one
   misses some value, and that value is a null.  Conversely an image
   without the null [v] lacks every fact holding [v].

   So the core asks, for each null [v] in turn, for an endomorphism
   whose image avoids [v].  The target stays [d]: [d → d] is encoded and
   compiled once per retraction round, and each test only narrows the
   initial candidates ([v] leaves the row of every null that may move).
   On [Sat h] the instance retracts to [h(d)], which is encoded afresh.
   One pass suffices: if no endomorphism of [d] avoids [v], none of
   [h(d) ⊆ d] does either (compose it with the retraction).  Nulls in
   [fixed] are pinned to themselves like constants, so they are never
   tested and never move.  Each test runs under [limits]; the first one
   that trips stops the computation. *)
let core_b ?limits ?(fixed = Value.Set.empty) ?tests d =
  let rec round d todo =
    (* node [i] is [values.(i)] on both sides of [d → d] *)
    let e = Hom.encode_endo ~fixed d in
    let values = e.Hom.tgt_values in
    let index = Hashtbl.create (Array.length values) in
    Array.iteri (fun i v -> Hashtbl.replace index v i) values;
    let movable =
      Array.mapi (fun i _ -> Domains.find e.Hom.restrict i = None) values
    in
    let cp =
      Engine.compile ~restrict:e.Hom.restrict ~source:e.Hom.source
        ~target:e.Hom.target ()
    in
    let rec test = function
      | [] -> Engine.Sat d
      | v :: rest -> (
        match Hashtbl.find_opt index v with
        | None -> test rest (* retracted away by an earlier round *)
        | Some j -> (
          Option.iter Certdb_obs.Obs.incr tests;
          let init =
            Array.mapi
              (fun i row ->
                if movable.(i) then begin
                  let row = Domains.Bitset.copy row in
                  Domains.Bitset.remove row j;
                  row
                end
                else row)
              cp.Engine.Compiled.init
          in
          match
            Engine.solve_compiled ?limits (Engine.Compiled.with_init cp init)
          with
          | Engine.Sat h -> round (Instance.apply (Hom.valuation e h) d) rest
          | Engine.Unsat -> test rest
          | Engine.Unknown r -> Engine.Unknown r))
    in
    test todo
  in
  round d (Value.Set.elements (Value.Set.diff (Instance.nulls d) fixed))

let core d = Option.get (Certdb_csp.Solver.definitive (core_b d))
let is_core d = Instance.cardinal (core d) = Instance.cardinal d
