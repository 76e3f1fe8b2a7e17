module Int_set = Structure.Int_set
module Int_map = Structure.Int_map
module Bitset = Domains.Bitset

type t = { bags : Int_set.t array; parent : int array }

let width d =
  Array.fold_left (fun w b -> max w (Int_set.cardinal b - 1)) (-1) d.bags

let children d =
  let cs = Array.make (Array.length d.parent) [] in
  Array.iteri (fun i p -> if p >= 0 then cs.(p) <- i :: cs.(p)) d.parent;
  cs

let roots d =
  let rs = ref [] in
  Array.iteri (fun i p -> if p < 0 then rs := i :: !rs) d.parent;
  List.rev !rs

let is_valid s d =
  let adj = Structure.gaifman s in
  let all_nodes = Structure.nodes s in
  let node_covered v = Array.exists (fun b -> Int_set.mem v b) d.bags in
  let edge_covered v w =
    Array.exists (fun b -> Int_set.mem v b && Int_set.mem w b) d.bags
  in
  let connected v =
    (* bags containing v must form a connected subforest: count the bags
       containing v whose parent does not contain v; must be ≤ 1. *)
    let count = ref 0 in
    Array.iteri
      (fun i b ->
        if Int_set.mem v b then
          let p = d.parent.(i) in
          if p < 0 || not (Int_set.mem v d.bags.(p)) then incr count)
      d.bags;
    !count <= 1
  in
  List.for_all node_covered all_nodes
  && Int_map.for_all
       (fun v ns -> Int_set.for_all (fun w -> edge_covered v w) ns)
       adj
  && List.for_all connected all_nodes

(* {1 Elimination on dense adjacency rows}

   The heuristics and the fill-in construction run over dense node
   indices, ascending in the raw ids, with one adjacency row per node:
   [words] machine words of one flat array.  The degree of [v] is the
   popcount of its row.  Its fill-in — the pairs of its neighbors that
   are not adjacent — is Σ_{u ∈ N(v)} |N(v) \ N(u) \ {u}| / 2: adjacency
   is symmetric, so each missing pair is counted from both ends.
   Eliminating [v] turns N(v) into a clique and removes [v]; its bag is
   {v} ∪ N(v) at that moment. *)

type graph = { n : int; words : int; rows : int array }

let bpw = Bitset.bits_per_word
let popcount = Bitset.popcount_word

let graph n =
  let words = max 1 (Bitset.words_for n) in
  { n; words; rows = Array.make (max 1 (n * words)) 0 }

let copy g = { g with rows = Array.copy g.rows }

let add_bit rows base u =
  let i = base + (u / bpw) in
  rows.(i) <- rows.(i) lor (1 lsl (u mod bpw))

let remove_bit rows base u =
  let i = base + (u / bpw) in
  rows.(i) <- rows.(i) land lnot (1 lsl (u mod bpw))

(* [f] on each set bit of the [words] words at [base], ascending; the
   index of a word's lowest bit is the popcount of the bits below it *)
let iter_bits f rows base words =
  for k = 0 to words - 1 do
    let w = ref rows.(base + k) in
    while !w <> 0 do
      f ((k * bpw) + popcount ((!w land - !w) - 1));
      w := !w land (!w - 1)
    done
  done

(* joins the nodes [ids.(off)] .. [ids.(off + len - 1)] pairwise *)
let connect g ids off len =
  for i = off to off + len - 1 do
    let a = ids.(i) in
    for j = off to off + len - 1 do
      let b = ids.(j) in
      if a <> b then add_bit g.rows (a * g.words) b
    done
  done

(* the Gaifman graph of [s] over its dense node ids, with room for
   [extra] isolated nodes numbered after them; and [s]'s columnar view *)
let of_columnar ?(extra = 0) s =
  let c = Structure.columnar s in
  let g = graph (Array.length c.Structure.node_ids + extra) in
  Array.iter
    (fun (cr : Structure.crel) ->
      for t = 0 to cr.Structure.count - 1 do
        connect g cr.Structure.flat (t * cr.Structure.arity) cr.Structure.arity
      done)
    c.Structure.crels;
  (g, c)

let degree g v =
  let base = v * g.words and d = ref 0 in
  for k = 0 to g.words - 1 do
    d := !d + popcount g.rows.(base + k)
  done;
  !d

let fill g v =
  let w = g.words and rows = g.rows in
  let bv = v * w and twice = ref 0 in
  for k = 0 to w - 1 do
    let word = ref rows.(bv + k) in
    while !word <> 0 do
      let bu = w * ((k * bpw) + popcount ((!word land - !word) - 1)) in
      for k' = 0 to w - 1 do
        twice := !twice + popcount (rows.(bv + k') land lnot rows.(bu + k'))
      done;
      decr twice;
      word := !word land (!word - 1)
    done
  done;
  !twice / 2

(* copies {v} ∪ N(v) into bag row [i] of [bags], then eliminates [v] *)
let eliminate g bags i v =
  let w = g.words and rows = g.rows in
  let bv = v * w in
  Array.blit rows bv bags (i * w) w;
  add_bit bags (i * w) v;
  for k = 0 to w - 1 do
    let word = ref rows.(bv + k) in
    while !word <> 0 do
      let u = (k * bpw) + popcount ((!word land - !word) - 1) in
      let bu = u * w in
      for k' = 0 to w - 1 do
        rows.(bu + k') <- rows.(bu + k') lor rows.(bv + k')
      done;
      remove_bit rows bu u;
      remove_bit rows bu v;
      word := !word land (!word - 1)
    done
  done;
  Array.fill rows bv w 0

type run = { order : int array; bag_rows : int array; run_width : int }

(* eliminates [order] in turn; the graph is consumed *)
let along g order =
  let len = Array.length order in
  let bag_rows = Array.make (max 1 (len * g.words)) 0 in
  let width = ref (-1) in
  Array.iteri
    (fun i v ->
      width := max !width (degree g v);
      eliminate g bag_rows i v)
    order;
  { order; bag_rows; run_width = !width }

(* eliminates every node, each time one of least cost — the lowest
   index, so the lowest raw id, among equals.  Only the nodes whose cost
   the elimination of [v] can change are re-costed: N(v) for the degree,
   and for the fill-in also their neighbors, which are the nodes whose
   neighborhood meets N(v). *)
let by_heuristic heuristic g =
  let n = g.n and w = g.words in
  let cost = match heuristic with `Min_degree -> degree g | `Min_fill -> fill g in
  let costs = Array.init n cost in
  let alive = Array.make n true in
  let order = Array.make n 0 in
  let bag_rows = Array.make (max 1 (n * w)) 0 in
  let width = ref (-1) in
  let dirty = Array.make w 0 in
  for i = 0 to n - 1 do
    let v = ref (-1) in
    for u = 0 to n - 1 do
      if alive.(u) && (!v < 0 || costs.(u) < costs.(!v)) then v := u
    done;
    let v = !v in
    order.(i) <- v;
    alive.(v) <- false;
    width := max !width (degree g v);
    eliminate g bag_rows i v;
    (* N(v) is the bag, whose [v] is no longer alive *)
    Array.blit bag_rows (i * w) dirty 0 w;
    (match heuristic with
    | `Min_degree -> ()
    | `Min_fill ->
      iter_bits
        (fun u ->
          for k = 0 to w - 1 do
            dirty.(k) <- dirty.(k) lor g.rows.((u * w) + k)
          done)
        bag_rows (i * w) w);
    iter_bits (fun u -> if alive.(u) then costs.(u) <- cost u) dirty 0 w
  done;
  { order; bag_rows; run_width = !width }

(* the decomposition of a run over [raw] (dense -> raw id), on rows of
   [words] words: bag [i] is the [i]-th eliminated node with its
   neighbors then, and its parent is the earliest-eliminated of its later
   nodes (a node listed twice counts at its last position) *)
let decomposition ~raw ~words r =
  let len = Array.length r.order in
  if len = 0 then { bags = [||]; parent = [||] }
  else begin
    let pos = Array.make (Array.length raw) (-1) in
    Array.iteri (fun i v -> pos.(v) <- i) r.order;
    let bags = Array.make len Int_set.empty in
    let parent = Array.make len (-1) in
    for i = 0 to len - 1 do
      let bag = ref Int_set.empty and first = ref max_int in
      iter_bits
        (fun u ->
          bag := Int_set.add raw.(u) !bag;
          let p = pos.(u) in
          if p < 0 then
            invalid_arg
              "Treewidth.of_elimination_order: a bag holds a node outside \
               the order";
          if p > i && p < !first then first := p)
        r.bag_rows (i * words) words;
      bags.(i) <- !bag;
      if !first < max_int then parent.(i) <- !first
    done;
    { bags; parent }
  end

let of_elimination_order s order =
  let c = Structure.columnar s in
  let n = Array.length c.Structure.node_ids in
  (* ids the structure lacks are isolated nodes, numbered after its own *)
  let extra = Hashtbl.create 1 in
  List.iter
    (fun v ->
      if not (Hashtbl.mem c.Structure.dense_of v || Hashtbl.mem extra v) then
        Hashtbl.replace extra v (n + Hashtbl.length extra))
    order;
  let g, _ = of_columnar ~extra:(Hashtbl.length extra) s in
  let raw = Array.make g.n 0 in
  Array.blit c.Structure.node_ids 0 raw 0 n;
  Hashtbl.iter (fun v i -> raw.(i) <- v) extra;
  let dense v =
    match Hashtbl.find_opt c.Structure.dense_of v with
    | Some i -> i
    | None -> Hashtbl.find extra v
  in
  let order = Array.of_list (List.map dense order) in
  decomposition ~raw ~words:g.words (along g order)

let of_structure ?(heuristic = `Min_degree) s =
  let g, c = of_columnar s in
  decomposition ~raw:c.Structure.node_ids ~words:g.words (by_heuristic heuristic g)

(* the narrower of the two heuristics' runs, min-degree on a tie; [g] is
   consumed *)
let narrower g =
  let md = by_heuristic `Min_degree (copy g) in
  let mf = by_heuristic `Min_fill g in
  if mf.run_width < md.run_width then mf else md

let estimate s =
  let g, c = of_columnar s in
  let best = narrower g in
  (decomposition ~raw:c.Structure.node_ids ~words:g.words best, best.run_width)

let estimate_width n edges =
  let g = graph n in
  Array.iter (fun ids -> connect g ids 0 (Array.length ids)) edges;
  (narrower g).run_width

(* Branch-and-bound over elimination orders: the width of an order is the
   maximum neighborhood size at elimination time; prune branches whose
   running width already reaches the best found. *)
let exact s =
  let nodes = Structure.nodes s in
  if List.length nodes > 12 then
    invalid_arg "Treewidth.exact: too many nodes (max 12)";
  let adj0 = Structure.gaifman s in
  let best_width = ref max_int in
  let best_order = ref nodes in
  let rec search adj remaining order width_so_far =
    if width_so_far >= !best_width then ()
    else if Int_set.is_empty remaining then begin
      best_width := width_so_far;
      best_order := List.rev order
    end
    else
      Int_set.iter
        (fun v ->
          let ns =
            match Int_map.find_opt v adj with
            | Some ns -> ns
            | None -> Int_set.empty
          in
          let degree = Int_set.cardinal ns in
          let width' = max width_so_far degree in
          if width' < !best_width then begin
            (* eliminate v: connect its neighbors pairwise *)
            let adj' =
              Int_set.fold
                (fun u acc ->
                  let nu =
                    match Int_map.find_opt u acc with
                    | Some nu -> nu
                    | None -> Int_set.empty
                  in
                  let nu = Int_set.remove v (Int_set.union nu (Int_set.remove u ns)) in
                  Int_map.add u nu acc)
                ns (Int_map.remove v adj)
            in
            search adj' (Int_set.remove v remaining) (v :: order) width'
          end)
        remaining
  in
  search adj0 (Int_set.of_list nodes) [] 0;
  of_elimination_order s !best_order

let pp ppf d =
  Array.iteri
    (fun i b ->
      Format.fprintf ppf "bag %d (parent %d): {%a}@," i d.parent.(i)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Format.pp_print_int)
        (Int_set.elements b))
    d.bags
