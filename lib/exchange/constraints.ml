open Certdb_values
open Certdb_relational
module Engine = Certdb_csp.Engine

type tgd = {
  tgd_body : Instance.t;
  tgd_head : Instance.t;
}

type egd = {
  egd_body : Instance.t;
  left : Value.t;
  right : Value.t;
}

type t = {
  tgds : tgd list;
  egds : egd list;
}

let tgd ~body ~head = { tgd_body = body; tgd_head = head }

let egd ~body ~left ~right =
  if not (Value.is_null left) then
    invalid_arg "Constraints.egd: left side must be a null of the body";
  { egd_body = body; left; right }

let make ?(tgds = []) ?(egds = []) () = { tgds; egds }

let frontier_restriction body head h =
  let fr = Value.Set.inter (Instance.nulls body) (Instance.nulls head) in
  List.fold_left
    (fun acc (n, v) -> if Value.Set.mem n fr then Valuation.bind acc n v else acc)
    Valuation.empty (Valuation.bindings h)

(* Violations of one rule in the instance prepared as [t]: every body
   match and every head-extension test searches onto the same target,
   so a [satisfies] call or a chase round builds it once for all its
   rules. *)
let tgd_violations t (r : tgd) =
  let violations = ref [] in
  Hom.iter_onto t r.tgd_body (fun h ->
      let head' = Instance.apply (frontier_restriction r.tgd_body r.tgd_head h) r.tgd_head in
      if not (Hom.exists_onto t head') then violations := head' :: !violations;
      `Continue);
  List.rev !violations

let egd_violations t (r : egd) =
  let violations = ref [] in
  Hom.iter_onto t r.egd_body (fun h ->
      let l = Valuation.apply h r.left and rr = Valuation.apply h r.right in
      if not (Value.equal l rr) then violations := (l, rr) :: !violations;
      `Continue);
  List.rev !violations

let satisfies d c =
  let t = Hom.target d in
  List.for_all (fun r -> tgd_violations t r = []) c.tgds
  && List.for_all (fun r -> egd_violations t r = []) c.egds

let satisfies_b ?(limits = Engine.Limits.unlimited) d c =
  Engine.decision_of_outcome
    (Engine.Budget.run limits (fun budget ->
         let t = Hom.target d in
         let check violations rs =
           List.for_all
             (fun r ->
               Engine.Budget.tick_node budget;
               violations t r = [])
             rs
         in
         if check tgd_violations c.tgds && check egd_violations c.egds then
           Some ()
         else None))

exception Chase_failure of string

(* --- weak acyclicity of the tgd set (Fagin et al., data exchange) ---

   Positions are (relation, column).  For every tgd and every frontier
   null x occurring at body position p: a regular edge from p to every
   head position of x, and a special edge from p to every head position
   holding an existentially invented (head-only) null.  The set is weakly
   acyclic iff no cycle goes through a special edge; then every chase
   sequence terminates, and the rank function (max special edges on a
   path into a position) bounds how many strata of fresh nulls can ever
   be created. *)

type position = string * int

module Pos_set = Set.Make (struct
  type t = position

  let compare = compare
end)

type wa_edge = {
  edge_src : position;
  edge_dst : position;
  special : bool;
}

type wa_certificate =
  | Wa_terminates of {
      positions : position list;
      ranks : (position * int) list;
      max_rank : int;
    }
  | Wa_diverges of {
      cycle : position list;
      special : position * position;
    }

let positions_of_null inst n =
  List.fold_left
    (fun acc (f : Instance.fact) ->
      let acc = ref acc in
      Array.iteri
        (fun i v -> if Value.equal v n then acc := Pos_set.add (f.rel, i) !acc)
        f.args;
      !acc)
    Pos_set.empty (Instance.facts inst)

let all_positions inst acc =
  List.fold_left
    (fun acc (f : Instance.fact) ->
      let acc = ref acc in
      Array.iteri (fun i _ -> acc := Pos_set.add (f.rel, i) !acc) f.args;
      !acc)
    acc (Instance.facts inst)

let wa_edges c =
  List.concat_map
    (fun r ->
      let body_nulls = Instance.nulls r.tgd_body
      and head_nulls = Instance.nulls r.tgd_head in
      let frontier = Value.Set.inter body_nulls head_nulls in
      let existential = Value.Set.diff head_nulls body_nulls in
      let existential_positions =
        Value.Set.fold
          (fun n acc -> Pos_set.union (positions_of_null r.tgd_head n) acc)
          existential Pos_set.empty
      in
      Value.Set.fold
        (fun x acc ->
          let body_ps = Pos_set.elements (positions_of_null r.tgd_body x) in
          let head_ps = Pos_set.elements (positions_of_null r.tgd_head x) in
          List.concat_map
            (fun p ->
              List.map
                (fun q -> { edge_src = p; edge_dst = q; special = false })
                head_ps
              @ List.map
                  (fun q -> { edge_src = p; edge_dst = q; special = true })
                  (Pos_set.elements existential_positions))
            body_ps
          @ acc)
        frontier [])
    c.tgds

(* path from [src] to [dst] over the edge list, as the visited positions
   (inclusive); None when unreachable.  BFS with parent links. *)
let find_path edges src dst =
  let parent = Hashtbl.create 16 in
  let queue = Queue.create () in
  Queue.add src queue;
  Hashtbl.replace parent src src;
  let found = ref (src = dst) in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun e ->
        if e.edge_src = u && not (Hashtbl.mem parent e.edge_dst) then begin
          Hashtbl.replace parent e.edge_dst u;
          if e.edge_dst = dst then found := true
          else Queue.add e.edge_dst queue
        end)
      edges
  done;
  if not !found then None
  else begin
    let rec walk acc p =
      if p = src then src :: acc else walk (p :: acc) (Hashtbl.find parent p)
    in
    Some (walk [] dst)
  end

let weak_acyclicity c =
  let edges = wa_edges c in
  let positions =
    List.fold_left
      (fun acc r -> all_positions r.tgd_body (all_positions r.tgd_head acc))
      Pos_set.empty c.tgds
  in
  let diverging =
    List.find_map
      (fun e ->
        if not e.special then None
        else
          (* a special edge u -> v on a cycle iff v reaches u *)
          Option.map
            (fun path -> (e, path))
            (find_path edges e.edge_dst e.edge_src))
      edges
  in
  match diverging with
  | Some (e, path) ->
    (* cycle: src --special--> dst --path--> src *)
    Wa_diverges { cycle = e.edge_src :: path; special = (e.edge_src, e.edge_dst) }
  | None ->
    (* ranks by fixpoint: monotone, bounded by the number of special
       edges (a higher value would reuse a special edge on a cycle) *)
    let rank = Hashtbl.create 16 in
    let get p = Option.value ~default:0 (Hashtbl.find_opt rank p) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun e ->
          let candidate = get e.edge_src + if e.special then 1 else 0 in
          if candidate > get e.edge_dst then begin
            Hashtbl.replace rank e.edge_dst candidate;
            changed := true
          end)
        edges
    done;
    let ranks =
      List.map (fun p -> (p, get p)) (Pos_set.elements positions)
    in
    let max_rank = List.fold_left (fun m (_, r) -> max m r) 0 ranks in
    Wa_terminates { positions = Pos_set.elements positions; ranks; max_rank }

(* Saturating arithmetic for the derived round bound: the bound is a
   termination certificate, not a tight estimate, so overflow clamps to a
   cap instead of wrapping. *)
let sat_cap = 1_000_000_000
let sat_add a b = if a >= sat_cap - b then sat_cap else a + b
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a >= sat_cap / b then sat_cap else a * b

let sat_pow a k =
  let rec go acc k = if k <= 0 then acc else go (sat_mul acc a) (k - 1) in
  go 1 k

let derived_round_bound c ~max_rank d =
  (* Values stratified by rank: rank 0 is the active domain plus every
     constant of the constraints; each higher stratum is created by tgd
     firings over the previous one (at most #tgds * head-nulls per body
     match, with at most V^body-nulls matches).  Rounds: one fact per tgd
     step (bounded by #relations * V^arity) plus one null merged per egd
     step (bounded by V). *)
  let tgd_count = List.length c.tgds in
  let max_head_nulls =
    List.fold_left
      (fun m r ->
        max m
          (Value.Set.cardinal
             (Value.Set.diff (Instance.nulls r.tgd_head)
                (Instance.nulls r.tgd_body))))
      0 c.tgds
  in
  let max_body_nulls =
    List.fold_left
      (fun m r -> max m (Value.Set.cardinal (Instance.nulls r.tgd_body)))
      0 c.tgds
  in
  let constraint_constants =
    List.fold_left
      (fun acc r ->
        Value.Set.union acc
          (Value.Set.union
             (Instance.constants r.tgd_body)
             (Instance.constants r.tgd_head)))
      (List.fold_left
         (fun acc r -> Value.Set.union acc (Instance.constants r.egd_body))
         Value.Set.empty c.egds)
      c.tgds
  in
  let v0 =
    1
    + Value.Set.cardinal
        (Value.Set.union (Instance.active_domain d) constraint_constants)
  in
  let grow v =
    sat_add v
      (sat_mul tgd_count
         (sat_mul (max 1 max_head_nulls) (sat_pow v (max 1 max_body_nulls))))
  in
  let rec strata v i = if i >= max_rank then v else strata (grow v) (i + 1) in
  let values = if tgd_count = 0 then v0 else strata v0 max_rank in
  let rels = Hashtbl.create 8 in
  let max_arity = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun inst ->
          List.iter
            (fun (f : Instance.fact) ->
              Hashtbl.replace rels f.rel ();
              max_arity := max !max_arity (Array.length f.args))
            (Instance.facts inst))
        [ r.tgd_body; r.tgd_head ])
    c.tgds;
  List.iter
    (fun rel ->
      Hashtbl.replace rels rel ();
      List.iter
        (fun t -> max_arity := max !max_arity (Array.length t))
        (Instance.tuples d rel))
    (Instance.relations d);
  let facts = sat_mul (Hashtbl.length rels) (sat_pow values !max_arity) in
  sat_add 1 (sat_add facts values)

let certified_round_bound c d =
  match weak_acyclicity c with
  | Wa_diverges _ -> None
  | Wa_terminates { max_rank; _ } -> Some (derived_round_bound c ~max_rank d)

let unify_step d (l, r) =
  match Value.is_null l, Value.is_null r with
  | false, false ->
    raise
      (Chase_failure
         (Format.asprintf "egd equates distinct constants %a and %a" Value.pp
            l Value.pp r))
  | true, _ ->
    (* prefer the (possibly constant) right-hand side as representative *)
    Instance.apply (Valuation.bind Valuation.empty l r) d
  | false, true -> Instance.apply (Valuation.bind Valuation.empty r l) d

let chase_budgeted ~budget ~max_rounds d c =
  let rec round d n =
    Certdb_obs.Fault.hit "exchange.chase.step";
    Engine.Budget.tick_node budget;
    (* egds first: they only shrink the instance *)
    let t = Hom.target d in
    let step =
      match List.concat_map (egd_violations t) c.egds with
      | (l, r) :: _ -> Some (fun () -> unify_step d (l, r))
      | [] -> (
        match List.concat_map (tgd_violations t) c.tgds with
        | [] -> None
        | head' :: _ ->
          Some
            (fun () ->
              let fresh, _ =
                Instance.rename_apart ~avoid:(Instance.nulls d) head'
              in
              Instance.union d fresh))
    in
    match step with
    | None -> d
    | Some apply ->
      if n >= max_rounds then
        invalid_arg
          "Constraints.chase: round limit exceeded (non-terminating?)";
      round (apply ()) (n + 1)
  in
  round d 0

type termination =
  [ `Auto  (** certified bound when weakly acyclic, legacy cap otherwise *)
  | `Certified  (** derived bound; reject non-weakly-acyclic sets *)
  | `Bounded of int  (** explicit round cap, old behaviour *) ]

let chase_certified_counter = Certdb_obs.Obs.counter "exchange.chase.certified"

let chase_uncertified_counter =
  Certdb_obs.Obs.counter "exchange.chase.uncertified"

let default_round_cap = 100

let resolve_rounds ?termination ?max_rounds d c =
  let termination =
    match (termination, max_rounds) with
    | Some t, _ -> t
    | None, Some n -> `Bounded n
    | None, None -> `Auto
  in
  match termination with
  | `Bounded n -> n
  | `Certified -> (
    match certified_round_bound c d with
    | Some b ->
      Certdb_obs.Obs.incr chase_certified_counter;
      b
    | None ->
      invalid_arg
        "Constraints.chase: ~termination:`Certified but the tgd set is not \
         weakly acyclic")
  | `Auto -> (
    match certified_round_bound c d with
    | Some b ->
      Certdb_obs.Obs.incr chase_certified_counter;
      b
    | None ->
      Certdb_obs.Obs.incr chase_uncertified_counter;
      Option.value max_rounds ~default:default_round_cap)

let chase ?termination ?max_rounds d c =
  let max_rounds = resolve_rounds ?termination ?max_rounds d c in
  chase_budgeted ~budget:Engine.Budget.unlimited ~max_rounds d c

let chase_b ?(limits = Engine.Limits.unlimited) ?termination ?max_rounds d c =
  let max_rounds = resolve_rounds ?termination ?max_rounds d c in
  Engine.Budget.run limits (fun budget ->
      match chase_budgeted ~budget ~max_rounds d c with
      | d -> Some d
      | exception Chase_failure _ -> None)

let universal_solution_with_constraints mapping ~source ~target_constraints =
  let canonical = Universal.chase_relational mapping source in
  match chase canonical target_constraints with
  | solution -> Some solution
  | exception Chase_failure _ -> None
