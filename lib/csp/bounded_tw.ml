module Int_set = Structure.Int_set
module Int_map = Structure.Int_map
module Bitset = Domains.Bitset
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let bag_assignments = Obs.counter "csp.btw.bag_assignments"
let solves = Obs.counter "csp.btw.solves"
let bags_gauge = Obs.gauge "csp.btw.bags"

(* Post-order traversal of the decomposition forest. *)
let post_order decomposition =
  let children = Treewidth.children decomposition in
  let order = ref [] in
  let rec visit i =
    List.iter visit children.(i);
    order := i :: !order
  in
  List.iter visit (Treewidth.roots decomposition);
  List.rev !order

(* A constraint of one bag: its target relation, and per position the
   depth at which the bag assigns that position's variable. *)
type local = { tr : Structure.crel; depth : int array }

(* How one bag is searched.  Every constraint of the bag over two or
   more variables is a generator at each depth that assigns one of its
   variables after its first: the depth's candidates are the values the
   constraint's target tuples allow given the earlier variables, so a
   constraint holds as soon as its last variable is assigned.  The
   constraints over a single variable (unary, or [R(x,x)]) are checked
   at its depth. *)
type bag_plan = {
  vars : int array; (* dense source variables, in assignment order *)
  gens : local array array; (* per depth: generators *)
  checks : local array array; (* per depth: single-variable constraints *)
  child_keys : (int * int array) list array;
      (* per depth: (child bag, depths of the child's key variables in the
         child's key order) for the children whose key completes there *)
  key : int array; (* depths of the parent-key variables, ascending *)
}

type tables = {
  cp : Engine.Compiled.t;
  decomposition : Treewidth.t;
  plans : bag_plan array;
  (* per bag: parent key (dense values, in [key] order) → one consistent
     assignment of the bag (parallel to [vars]) *)
  table : (int array, int array) Hashtbl.t array;
}

exception Key_done

let dense_bags (cp : Engine.Compiled.t) decomposition =
  Array.map
    (fun b ->
      Array.of_list
        (List.map
           (fun raw ->
             match
               Hashtbl.find_opt cp.Engine.Compiled.csrc.Structure.dense_of raw
             with
             | Some v -> v
             | None -> invalid_arg "Bounded_tw: bag node not in the source")
           (Int_set.elements b)))
    decomposition.Treewidth.bags

(* The constraints whose variables all lie in each bag.  Checking a
   constraint in every bag that contains it is sound (a global solution
   satisfies it everywhere) and prunes earlier; a valid decomposition
   puts each constraint in at least one bag. *)
let bag_constraints (cp : Engine.Compiled.t) bags =
  let mark = Array.make (max 1 cp.Engine.Compiled.nvars) (-1) in
  let covered = Hashtbl.create 64 in
  let per_bag =
    Array.mapi
      (fun i vars ->
        Array.iter (fun v -> mark.(v) <- i) vars;
        Array.fold_left
          (fun acc v ->
            List.fold_left
              (fun acc (c : Engine.Compiled.ccstr) ->
                let cv = c.Engine.Compiled.cvars in
                (* list each constraint once: from its least variable *)
                if
                  Array.for_all (fun u -> u >= v) cv
                  && Array.for_all (fun u -> mark.(u) = i) cv
                then begin
                  Hashtbl.replace covered cv ();
                  c :: acc
                end
                else acc)
              acc cp.Engine.Compiled.by_var.(v))
          [] vars)
      bags
  in
  Array.iter
    (fun (c : Engine.Compiled.ccstr) ->
      if not (Hashtbl.mem covered c.Engine.Compiled.cvars) then
        invalid_arg "Bounded_tw: decomposition does not cover a fact")
    cp.Engine.Compiled.cstrs;
  per_bag

(* Assignment order of one bag: greedily the variable sharing the most
   constraints with those already placed, so that every variable after
   the first that has a neighbour in the bag is generated from the
   target's index rather than from its whole candidate row; ties go to
   the smaller candidate row, then to parent-key variables, then to the
   lower id.  Connectivity comes before the parent key: a key variable
   with no constraint to the earlier ones would be drawn from its whole
   row (cycle-5 over the serve benchmark's m2 instance: 2 381 candidate
   values tried in this order, 6 258 with the key first). *)
let order_bag ~key_set ~row_size vars cstrs =
  let n = Array.length vars in
  let placed = Hashtbl.create n in
  let links v =
    List.fold_left
      (fun k (c : Engine.Compiled.ccstr) ->
        let cv = c.Engine.Compiled.cvars in
        if
          Array.mem v cv
          && Array.exists (fun u -> u <> v && Hashtbl.mem placed u) cv
        then k + 1
        else k)
      0 cstrs
  in
  let score v = (-links v, row_size v, (if key_set v then 0 else 1), v) in
  let out = Array.make n (-1) in
  let pool = ref (Array.to_list vars) in
  for d = 0 to n - 1 do
    let best =
      List.fold_left
        (fun b v -> if compare (score v) (score b) < 0 then v else b)
        (List.hd !pool) !pool
    in
    out.(d) <- best;
    Hashtbl.replace placed best ();
    pool := List.filter (fun v -> v <> best) !pool
  done;
  out

(* The per-depth work of one bag, given its assignment order, the depths
   of its parent-key variables and, per child, the child's key variables
   in the child's key order.  Every constraint has a target relation
   (checked by the caller). *)
let plan_bag ~key ~children_keys vars cstrs =
  let n = Array.length vars in
  let depth_of v =
    let rec go d = if vars.(d) = v then d else go (d + 1) in
    go 0
  in
  let gens = Array.make n [] and checks = Array.make n [] in
  List.iter
    (fun (c : Engine.Compiled.ccstr) ->
      let depth = Array.map depth_of c.Engine.Compiled.cvars in
      let l = { tr = Option.get c.Engine.Compiled.tgt; depth } in
      let first = Array.fold_left min n depth in
      match List.sort_uniq compare (Array.to_list depth) with
      | [ _ ] -> checks.(first) <- l :: checks.(first)
      | ds ->
        List.iter (fun d -> if d > first then gens.(d) <- l :: gens.(d)) ds)
    cstrs;
  let child_keys = Array.make n [] in
  List.iter
    (fun (j, key_vars) ->
      (* a child sharing no variable constrains nothing beyond its
         table being non-empty, which the DP already requires *)
      if Array.length key_vars > 0 then begin
        let depths = Array.map depth_of key_vars in
        let last = Array.fold_left max 0 depths in
        child_keys.(last) <- (j, depths) :: child_keys.(last)
      end)
    children_keys;
  let to_array l = Array.of_list (List.rev l) in
  {
    vars;
    gens = Array.map to_array gens;
    checks = Array.map to_array checks;
    child_keys;
    key;
  }

(* Does [l], all of whose positions hold the variable just assigned,
   hold in the target? *)
let holds assign l =
  let arity = l.tr.Structure.arity and flat = l.tr.Structure.flat in
  let b = assign.(l.depth.(0)) in
  Array.exists
    (fun idx ->
      let base = idx * arity in
      let rec all q = q >= arity || (flat.(base + q) = b && all (q + 1)) in
      all 1)
    l.tr.Structure.by_pos.(0).(b)

(* Set in [dst] (cleared by the caller) the values the variable at depth
   [d] takes in those target tuples of [l] that agree with the
   assignment on every earlier position; a variable repeated in [l] must
   take one value throughout.  The tuples are drawn from the index entry
   of the assigned position with the fewest. *)
let generate assign d l dst =
  let tr = l.tr in
  let arity = tr.Structure.arity and flat = tr.Structure.flat in
  let best = ref (-1) and best_len = ref max_int in
  for p = 0 to arity - 1 do
    let e = l.depth.(p) in
    if e < d then begin
      let len = Array.length tr.Structure.by_pos.(p).(assign.(e)) in
      if len < !best_len then begin
        best := p;
        best_len := len
      end
    end
  done;
  let idxs = tr.Structure.by_pos.(!best).(assign.(l.depth.(!best))) in
  for k = 0 to Array.length idxs - 1 do
    let base = idxs.(k) * arity in
    let b = ref (-1) and ok = ref true and q = ref 0 in
    while !ok && !q < arity do
      let e = l.depth.(!q) and tv = flat.(base + !q) in
      if e < d then (if tv <> assign.(e) then ok := false)
      else if e = d then
        if !b < 0 then b := tv else if tv <> !b then ok := false;
      incr q
    done;
    if !ok then Bitset.set dst !b
  done

(* A child's table as a filter on the variable that completes its key in
   the parent: for the values of the key's other variables, the values
   that variable takes in the recorded keys. *)
let child_filter (cp : Engine.Compiled.t) child_table depths =
  let k = Array.length depths in
  let slot = ref 0 in
  Array.iteri (fun t e -> if e > depths.(!slot) then slot := t) depths;
  let slot = !slot in
  let others a = Array.init (k - 1) (fun t -> a.(if t < slot then t else t + 1)) in
  let index = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key _ ->
      let rest = others key in
      let bs =
        match Hashtbl.find_opt index rest with
        | Some bs -> bs
        | None ->
          let bs = Bitset.create cp.Engine.Compiled.cap in
          Hashtbl.add index rest bs;
          bs
      in
      Bitset.set bs key.(slot))
    child_table;
  (index, others depths, Array.make (k - 1) 0)

(* Fill bag [i]'s table: for every parent key that extends to an
   assignment of the bag consistent with its constraints and with a
   recorded key of every child, one such assignment.  Each depth's
   candidates are the variable's row (labels and [R] applied), narrowed
   by its generators and by the tables of the children whose key it
   completes, so a failing partial assignment is never extended.  Once
   the key is complete, a key already recorded is skipped, and
   recording a key stops the search below it.  Every candidate value
   tried is one budget tick. *)
let fill_bag ~budget (cp : Engine.Compiled.t) table i (p : bag_plan) =
  let n = Array.length p.vars in
  let words = cp.Engine.Compiled.words in
  let assign = Array.make n 0 in
  let cands = Array.init n (fun _ -> Array.make words 0) in
  let scratch = Array.make words 0 in
  let key_buf = Array.make (Array.length p.key) 0 in
  let key_depth = Array.fold_left max (-1) p.key in
  let fill_key () = Array.iteri (fun t e -> key_buf.(t) <- assign.(e)) p.key in
  let filters =
    Array.map
      (List.map (fun (j, depths) -> child_filter cp table.(j) depths))
      p.child_keys
  in
  let candidates d =
    let dst = cands.(d) and row = cp.Engine.Compiled.init.(p.vars.(d)) in
    if Array.length p.gens.(d) = 0 then Bitset.blit ~src:row ~dst
    else begin
      Array.iteri
        (fun g l ->
          let into = if g = 0 then dst else scratch in
          Bitset.clear into;
          generate assign d l into;
          if g > 0 then ignore (Bitset.inter_into ~dst scratch))
        p.gens.(d);
      ignore (Bitset.inter_into ~dst row)
    end;
    List.iter
      (fun (index, others, buf) ->
        Array.iteri (fun t e -> buf.(t) <- assign.(e)) others;
        match Hashtbl.find_opt index buf with
        | Some bs -> ignore (Bitset.inter_into ~dst bs)
        | None -> Bitset.clear dst)
      filters.(d);
    dst
  in
  let rec search d =
    if d = n then begin
      fill_key ();
      Hashtbl.replace table.(i) (Array.copy key_buf) (Array.copy assign);
      raise Key_done
    end
    else
      Bitset.iter
        (fun b ->
          Engine.Budget.tick_node budget;
          Obs.incr bag_assignments;
          assign.(d) <- b;
          if Array.for_all (holds assign) p.checks.(d) then
            if d = key_depth then begin
              fill_key ();
              if not (Hashtbl.mem table.(i) key_buf) then
                try search (d + 1) with Key_done -> ()
            end
            else search (d + 1))
        (candidates d)
  in
  try search 0 with Key_done -> ()

let solve ~budget ?decomposition ?(restrict = Domains.unconstrained) ~source
    ~target () =
  Trace.with_span "csp.btw.solve" @@ fun () ->
  let decomposition =
    match decomposition with
    | Some d -> d
    | None -> Treewidth.of_structure source
  in
  let cp = Engine.compile ~restrict ~source ~target () in
  let nbags = Array.length decomposition.Treewidth.bags in
  Obs.incr solves;
  Obs.set_int bags_gauge nbags;
  let bags = dense_bags cp decomposition in
  let cstrs = bag_constraints cp bags in
  (* a 0-ary fact missing from the target, or a fact whose relation the
     target lacks, has no image at all *)
  if
    not
      (cp.Engine.Compiled.zero_ok
      && Array.for_all
           (fun (c : Engine.Compiled.ccstr) -> c.Engine.Compiled.tgt <> None)
           cp.Engine.Compiled.cstrs)
  then None
  else
    let children = Treewidth.children decomposition in
    let in_parent i v =
      let p = decomposition.Treewidth.parent.(i) in
      p >= 0 && Array.mem v bags.(p)
    in
    let row_size v = Bitset.count cp.Engine.Compiled.init.(v) in
    let orders =
      Array.mapi
        (fun i vars ->
          order_bag ~key_set:(in_parent i) ~row_size vars cstrs.(i))
        bags
    in
    (* a bag's key is its parent-key variables in the bag's own order *)
    let keys =
      Array.mapi
        (fun i order ->
          Array.of_list
            (List.filter
               (fun d -> in_parent i order.(d))
               (List.init (Array.length order) Fun.id)))
        orders
    in
    let plans =
      Array.mapi
        (fun i order ->
          plan_bag ~key:keys.(i)
            ~children_keys:
              (List.map
                 (fun j -> (j, Array.map (fun d -> orders.(j).(d)) keys.(j)))
                 children.(i))
            order cstrs.(i))
        orders
    in
    let table = Array.init nbags (fun _ -> Hashtbl.create 64) in
    if
      List.for_all
        (fun i ->
          fill_bag ~budget cp table i plans.(i);
          Hashtbl.length table.(i) > 0)
        (post_order decomposition)
    then Some { cp; decomposition; plans; table }
    else None

let r_hom ?decomposition ?restrict ~source ~target () =
  Option.is_some
    (solve ~budget:Engine.Budget.unlimited ?decomposition ?restrict ~source
       ~target ())

let r_hom_witness ?decomposition ?restrict ~source ~target () =
  match
    solve ~budget:Engine.Budget.unlimited ?decomposition ?restrict ~source
      ~target ()
  with
  | None -> None
  | Some t ->
    let cp = t.cp in
    let img = Array.make (max 1 cp.Engine.Compiled.nvars) (-1) in
    let children = Treewidth.children t.decomposition in
    let rec extract i key =
      let p = t.plans.(i) in
      Array.iteri
        (fun d b -> img.(p.vars.(d)) <- b)
        (Hashtbl.find t.table.(i) key);
      List.iter
        (fun j ->
          let pj = t.plans.(j) in
          extract j (Array.map (fun d -> img.(pj.vars.(d))) pj.key))
        children.(i)
    in
    List.iter (fun r -> extract r [||]) (Treewidth.roots t.decomposition);
    let ids = cp.Engine.Compiled.csrc.Structure.node_ids
    and tids = cp.Engine.Compiled.ctgt.Structure.node_ids in
    let hom = ref Int_map.empty in
    Array.iteri
      (fun v b -> if b >= 0 then hom := Int_map.add ids.(v) tids.(b) !hom)
      img;
    Some !hom

let hom ?decomposition ~source ~target () =
  r_hom ?decomposition ~source ~target ()

let satisfiable ?decomposition ?(config = Engine.Config.default) ~source
    ~target () =
  (* the DP makes no branching decisions: only the clock and the cancel
     token bound it *)
  let limits =
    {
      config.Engine.Config.limits with
      Engine.Limits.nodes = None;
      backtracks = None;
    }
  in
  Engine.Budget.run limits (fun budget ->
      solve ~budget ?decomposition ?restrict:config.Engine.Config.restrict
        ~source ~target ()
      |> Option.map ignore)
