open Certdb_values
module Engine = Certdb_csp.Engine
module Structure = Certdb_csp.Structure
module Domains = Certdb_csp.Domains

type endo = {
  compiled : Engine.Compiled.t;
  origin : int array;
  classes : int array array;
}

(* [c] is not a core iff some endomorphism of [c] is not injective.  An
   injective one permutes the finite node set, hence the tuples; a
   non-injective one is not surjective either, so its image misses a
   node (never a pinned one), and [c] retracts to that image.

   So each round enumerates the endomorphisms of [c] and stops at the
   first that is not injective.  The enumeration runs in the lex-leader
   order of [c]'s interchangeable classes: for a permutation [σ] within
   the classes, [h∘σ] is an endomorphism with the image of [h], so the
   search loses no image.  A bidirectional k-clique, a core whose k!
   automorphisms all permute one class, is settled by the identity in
   about 2^k decisions.

   The image [h(c) ⊆ c] is hom-equivalent to [c], so it has the same
   core: it is encoded afresh, nodes renumbered [0..m-1], and searched
   again.  Every round draws from one budget. *)

(* [c] retracted by [h] (node to node): its image, nodes renumbered
   [0..m-1], and each image node's input node *)
let image (c : Structure.columnar) h origin =
  let n = Array.length h in
  let id = Array.make n (-1) in
  Array.iter (fun w -> id.(w) <- 0) h;
  let m = ref 0 in
  for w = 0 to n - 1 do
    if id.(w) >= 0 then begin
      id.(w) <- !m;
      incr m
    end
  done;
  let origin' = Array.make !m 0 in
  Array.iteri (fun w i -> if i >= 0 then origin'.(i) <- origin.(w)) id;
  let tuples =
    Array.fold_left
      (fun acc (cr : Structure.crel) ->
        let ar = cr.Structure.arity in
        List.init cr.Structure.count (fun t ->
            ( cr.Structure.rel,
              Array.init ar (fun p -> id.(h.(cr.Structure.flat.((t * ar) + p))))
            ))
        @ acc)
      [] c.Structure.crels
  in
  (Structure.columnar_of ~nodes:!m tuples, origin')

let not_injective h =
  let seen = Array.make (Array.length h) false in
  Array.exists
    (fun w ->
      seen.(w)
      || begin
        seen.(w) <- true;
        false
      end)
    h

let core_nodes ?(limits = Engine.Limits.unlimited) ?tests ~pinned c =
  Engine.Budget.run limits @@ fun budget ->
  let rec round c origin =
    let restrict =
      Domains.of_list
        (List.filter_map
           (fun i ->
             if pinned.(origin.(i)) then
               Some (i, Structure.Int_set.singleton i)
             else None)
           (List.init (Array.length origin) Fun.id))
    in
    let compiled =
      Engine.Compiled.of_columnar ~restrict ~source:c ~target:c ()
    in
    let classes = Engine.Compiled.interchangeable_classes compiled in
    let core () = Some { compiled; origin; classes } in
    if Array.for_all (fun i -> pinned.(i)) origin then core ()
    else begin
      Option.iter Certdb_obs.Obs.incr tests;
      match
        Engine.first_compiled ~budget ~classes compiled ~accept:not_injective
      with
      | None -> core ()
      | Some h ->
        let c', origin' = image c h origin in
        round c' origin'
    end
  in
  round c (Array.init (Array.length c.Structure.node_ids) Fun.id)

let core_b ?limits ?(fixed = Value.Set.empty) ?tests d =
  let e = Hom.encode_endo ~fixed d in
  let values = e.Hom.tgt_values in
  let pinned =
    Array.mapi (fun i _ -> Domains.find e.Hom.restrict i <> None) values
  in
  Engine.map_outcome
    (fun c ->
      Instance.of_facts
        (Array.fold_left
           (fun acc (cr : Structure.crel) ->
             let ar = cr.Structure.arity in
             List.init cr.Structure.count (fun t ->
                 Instance.fact cr.Structure.rel
                   (List.init ar (fun p ->
                        values.(c.origin.(cr.Structure.flat.((t * ar) + p))))))
             @ acc)
           [] c.compiled.Engine.Compiled.csrc.Structure.crels))
    (core_nodes ?limits ?tests ~pinned (Structure.columnar e.Hom.source))

let core d = Option.get (Certdb_csp.Solver.definitive (core_b d))
let is_core d = Instance.cardinal (core d) = Instance.cardinal d
