open Certdb_values
module Int_map = Certdb_csp.Structure.Int_map
module Engine = Certdb_csp.Engine
module Resilient = Certdb_csp.Resilient
module Obs = Certdb_obs.Obs

let naive_holds db f = Logic.holds db f

(* All set partitions of a list, as representative-choosing maps
   (element -> block representative). *)
let partitions xs =
  let rec go blocks = function
    | [] -> [ blocks ]
    | x :: rest ->
      let with_existing =
        List.concat_map
          (fun b ->
            let others = List.filter (fun b' -> b' != b) blocks in
            go ((x :: b) :: others) rest)
          blocks
      in
      let with_new = go ([ x ] :: blocks) rest in
      with_existing @ with_new
  in
  go [] xs

(* Grounding valuations of the nulls into adom constants plus k+1 fresh
   constants (cf. Semantics.sample_valuations for relations). *)
let groundings db =
  let nulls = Value.Set.elements (Gdb.nulls db) in
  let k = List.length nulls in
  let fresh = List.init (k + 1) (fun _ -> Value.fresh_const ()) in
  let candidates = Value.Set.elements (Gdb.constants db) @ fresh in
  let rec assign acc = function
    | [] -> [ acc ]
    | n :: rest ->
      List.concat_map
        (fun c -> assign (Valuation.bind acc n c) rest)
        candidates
  in
  assign Valuation.empty nulls

(* Node merges legal on a complete database: nodes may be identified when
   they share label and data.  We enumerate all partitions within each
   (label, data) class. *)
let merge_images grounded =
  let classes = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let key = (Gdb.label grounded v, Gdb.data grounded v) in
      Hashtbl.replace classes key
        (v :: (Option.value ~default:[] (Hashtbl.find_opt classes key))))
    (Gdb.nodes grounded);
  let class_partitions =
    Hashtbl.fold (fun _ vs acc -> partitions vs :: acc) classes []
  in
  (* cartesian product of per-class partition choices *)
  let rec combine = function
    | [] -> [ [] ]
    | choices :: rest ->
      List.concat_map
        (fun blocks -> List.map (fun tail -> blocks @ tail) (combine rest))
        choices
  in
  List.map
    (fun blocks ->
      let repr = Hashtbl.create 16 in
      List.iter
        (fun block ->
          match block with
          | [] -> ()
          | r :: _ -> List.iter (fun v -> Hashtbl.replace repr v r) block)
        blocks;
      Gdb.map_nodes grounded (fun v -> Hashtbl.find repr v))
    (combine class_partitions)

let complete_images db =
  List.concat_map (fun g -> merge_images (Gdb.apply g db)) (groundings db)

let certain_existential db f =
  List.for_all (fun image -> Logic.holds image f) (complete_images db)

(* Budgeted variant: the exponential part is the number of images, so each
   image evaluation is accounted as one engine node. *)
let certain_existential_b ?(limits = Engine.Limits.unlimited) db f =
  Engine.decision_of_outcome
    (Engine.Budget.run limits (fun budget ->
         let ok =
           List.for_all
             (fun image ->
               Engine.Budget.tick_node budget;
               Logic.holds image f)
             (complete_images db)
         in
         if ok then Some () else None))

let certain_by_enumeration = certain_existential

module String_map = Map.Make (String)

let certain_data_answers ~out db f =
  if not (Logic.is_existential_positive f) then
    invalid_arg "Query_answering.certain_data_answers: not existential positive";
  let nodes = Gdb.nodes db in
  let free =
    List.sort_uniq String.compare (List.map fst out)
  in
  let rec assignments env = function
    | [] -> if Logic.eval db env f then [ env ] else []
    | x :: rest ->
      List.concat_map
        (fun v -> assignments (String_map.add x v env) rest)
        nodes
  in
  assignments String_map.empty free
  |> List.filter_map (fun env ->
         let tuple =
           List.map
             (fun (x, i) ->
               let node = String_map.find x env in
               let data = Gdb.data db node in
               if i < 1 || i > Array.length data then None
               else Some data.(i - 1))
             out
         in
         if List.for_all Option.is_some tuple then
           let tuple = List.map Option.get tuple in
           if List.for_all Value.is_const tuple then Some tuple else None
         else None)
  |> List.sort_uniq compare

let default_unsupported _ _ =
  invalid_arg
    "Query_answering.certain: sentence outside the decidable fragments \
     (supply ~on_unsupported)"

let certain ?(on_unsupported = default_unsupported) db f =
  if Logic.is_existential_positive f then naive_holds db f
  else if Logic.is_existential f then certain_existential db f
  else on_unsupported db f

let certain_b ?limits ?(on_unsupported = default_unsupported) db f =
  if Logic.is_existential_positive f then
    if naive_holds db f then `True else `False
  else if Logic.is_existential f then certain_existential_b ?limits db f
  else if on_unsupported db f then `True
  else `False

(* {2 Graceful degradation} *)

let resilient_exact = Obs.counter "gdm.resilient.exact"
let resilient_degraded = Obs.counter "gdm.resilient.degraded"

(* The completion grounding every null to a distinct fresh constant (the
   trivial member of [complete_images]): cheap to build, and any sentence
   false on it is certainly not certain. *)
let fresh_completion db =
  let g =
    Value.Set.fold
      (fun n acc -> Valuation.bind acc n (Value.fresh_const ()))
      (Gdb.nulls db) Valuation.empty
  in
  Gdb.apply g db

let certain_resilient ?policy ?(limits = Engine.Limits.unlimited)
    ?(on_unsupported = default_unsupported) db f =
  if Logic.is_existential_positive f then begin
    (* Theorem 7(a): naïve evaluation is exact here, no search at all *)
    Obs.incr resilient_exact;
    `Exact (naive_holds db f)
  end
  else if Logic.is_existential f then
    Resilient.run ?policy ~limits (fun limits ->
        match certain_existential_b ~limits db f with
        | `True -> Engine.Sat ()
        | `False -> Engine.Unsat
        | `Unknown reason -> Engine.Unknown reason)
    |> Resilient.graded ~exact:resilient_exact ~degraded:resilient_degraded
         ~exhausted:(fun () ->
           (* with negation in [f], evaluating one completion certifies
              only refutation: false on a single image settles
              non-certainty, true on it says nothing about the others *)
           if not (Logic.holds (fresh_completion db) f) then `Exact false
           else `Lower_bound false)
  else begin
    Obs.incr resilient_exact;
    `Exact (on_unsupported db f)
  end
