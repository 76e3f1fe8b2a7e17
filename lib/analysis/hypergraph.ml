open Certdb_query
module Obs = Certdb_obs.Obs
module Treewidth = Certdb_csp.Treewidth

let checks = Obs.counter "csp.analysis.hypergraph"

type gyo_step =
  | Remove_vertex of {
      vertex : string;
      edge : int;
    }
  | Absorb of {
      edge : int;
      into : int;
    }

type certificate =
  | Acyclic of { steps : gyo_step list }
  | Cyclic of { residual : (int * string list) list }

type t = {
  atom_count : int;
  var_count : int;
  certificate : certificate;
  width_estimate : int;
  components : int;
}

(* GYO reduction: repeatedly delete an ear vertex (occurring in exactly
   one hyperedge) or a hyperedge contained in another; the hypergraph is
   α-acyclic iff the reduction consumes every hyperedge.  Equal edges are
   broken by absorbing the higher index into the lower.

   Edge [k] is atom [index.(k)], with the variable ids [verts.(k)],
   ascending; ids follow the names' order, so ascending ids list the
   names sorted.  The reduction is driven by per-vertex occurrence
   counts.  A vertex leaves the hypergraph only as an ear, so an edge's
   live vertices are its original ones with a nonzero count.  Ears are removed first: a
   removal changes no other count, so the ears present at one moment are
   removed together, in (edge, vertex) order.  An absorption runs only
   when no ear is left, on the lowest-indexed absorbable edge, into the
   lowest-indexed edge that contains it.  An edge becomes absorbable only
   by losing a vertex, so the candidates are the edges that lost one
   since they were last found unabsorbable (initially all); an
   absorption lowers the counts of the absorbed edge's vertices, which
   may make new ears.  Each subset test scans the edges through the
   tested edge's rarest vertex. *)
let gyo names index verts =
  let m = Array.length verts and n = Array.length names in
  let occ = Array.make n 0 in
  Array.iter (Array.iter (fun v -> occ.(v) <- occ.(v) + 1)) verts;
  (* [inc.(v)]: the edges holding [v], ascending *)
  let inc = Array.map (fun c -> Array.make c 0) occ in
  let fill = Array.make n 0 in
  Array.iteri
    (fun k vs ->
      Array.iter
        (fun v ->
          inc.(v).(fill.(v)) <- k;
          fill.(v) <- fill.(v) + 1)
        vs)
    verts;
  let alive = Array.make m true in
  let size = Array.map Array.length verts in
  let ears = ref [] in
  for v = n - 1 downto 0 do
    if occ.(v) = 1 then ears := v :: !ears
  done;
  (* candidate edges, and a lower bound on the lowest one *)
  let candidate = Array.make m true and lowest = ref 0 in
  let steps = ref [] in
  let mark = Array.make n (-1) in
  (* the lowest-indexed live edge containing [k]'s live vertices, other
     than [k] and either strictly larger or lower-indexed; -1 if none *)
  let absorber k =
    let vs = verts.(k) in
    let rarest = ref (-1) and width = ref 0 in
    for i = 0 to Array.length vs - 1 do
      let v = vs.(i) in
      if occ.(v) > 0 then begin
        if !rarest < 0 || occ.(v) < occ.(!rarest) then rarest := v;
        mark.(v) <- k;
        incr width
      end
    done;
    let through = inc.(!rarest) in
    let found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < Array.length through do
      let j = through.(!i) in
      if j <> k && alive.(j) then begin
        let ws = verts.(j) and common = ref 0 in
        for p = 0 to Array.length ws - 1 do
          let v = ws.(p) in
          if occ.(v) > 0 && mark.(v) = k then incr common
        done;
        if !common = !width && (size.(j) > !width || k > j) then found := j
      end;
      incr i
    done;
    !found
  in
  let rec next_absorption () =
    while !lowest < m && not candidate.(!lowest) do
      incr lowest
    done;
    if !lowest = m then None
    else begin
      let k = !lowest in
      candidate.(k) <- false;
      if not alive.(k) then next_absorption ()
      else
        let j = absorber k in
        if j >= 0 then Some (k, j) else next_absorption ()
    end
  in
  let live_iter f k = Array.iter (fun v -> if occ.(v) > 0 then f v) verts.(k) in
  let rec reduce () =
    match !ears with
    | _ :: _ as batch ->
      ears := [];
      List.map
        (fun v -> (Array.find_opt (fun k -> alive.(k)) inc.(v) |> Option.get, v))
        batch
      |> List.sort compare
      |> List.iter (fun (k, v) ->
             steps :=
               Remove_vertex { vertex = names.(v); edge = index.(k) }
               :: !steps;
             occ.(v) <- 0;
             size.(k) <- size.(k) - 1;
             (* a fully consumed hyperedge leaves the reduction *)
             if size.(k) = 0 then alive.(k) <- false
             else begin
               candidate.(k) <- true;
               if k < !lowest then lowest := k
             end);
      reduce ()
    | [] -> (
      match next_absorption () with
      | Some (k, j) ->
        steps := Absorb { edge = index.(k); into = index.(j) } :: !steps;
        alive.(k) <- false;
        live_iter
          (fun v ->
            occ.(v) <- occ.(v) - 1;
            if occ.(v) = 1 then ears := v :: !ears)
          k;
        reduce ()
      | None -> ())
  in
  reduce ();
  let residual = ref [] in
  for k = m - 1 downto 0 do
    if alive.(k) then begin
      let live = ref [] in
      live_iter (fun v -> live := names.(v) :: !live) k;
      residual := (index.(k), List.rev !live) :: !residual
    end
  done;
  if !residual = [] then Acyclic { steps = List.rev !steps }
  else Cyclic { residual = !residual }

(* Connected components of the atoms-share-a-variable graph, by
   union-find over the variables: every variable lies in some edge.
   Variable-free atoms connect nothing, so they are already dropped. *)
let component_count n edges =
  let parent = Array.init n Fun.id in
  let rec find v =
    if parent.(v) = v then v
    else begin
      let r = find parent.(v) in
      parent.(v) <- r;
      r
    end
  in
  Array.iter
    (fun vs ->
      let a = find vs.(0) in
      Array.iter
        (fun v ->
          let b = find v in
          if b <> a then parent.(b) <- a)
        vs)
    edges;
  let roots = ref 0 in
  Array.iteri (fun v p -> if p = v then incr roots) parent;
  !roots

(* [vs] sorted, without repeats: hyperedges are short and [Array.sort]
   allocates, so up to 16 vertices the sort is by insertion *)
let distinct (vs : int array) =
  let len = Array.length vs in
  if len > 16 then Array.sort Int.compare vs
  else
    for i = 1 to len - 1 do
      let v = vs.(i) and j = ref (i - 1) in
      while !j >= 0 && vs.(!j) > v do
        vs.(!j + 1) <- vs.(!j);
        decr j
      done;
      vs.(!j + 1) <- v
    done;
  let k = ref 0 in
  for i = 0 to len - 1 do
    if i = 0 || vs.(i) <> vs.(i - 1) then begin
      vs.(!k) <- vs.(i);
      incr k
    end
  done;
  if !k = len then vs else Array.sub vs 0 !k

module Names = Hashtbl.Make (String)

let analyze (q : Cq.t) =
  Obs.incr checks;
  (* one interning: ids in first-seen order, then renumbered in the
     names' order *)
  let ids = Names.create 16 in
  let intern x =
    match Names.find_opt ids x with
    | Some i -> i
    | None ->
      let i = Names.length ids in
      Names.add ids x i;
      i
  in
  let atoms =
    Array.of_list
      (List.map
         (fun (a : Cq.atom) ->
           let vs = Array.make (List.length a.args) 0 and k = ref 0 in
           List.iter
             (function
               | Fo.Var x ->
                 vs.(!k) <- intern x;
                 incr k
               | Fo.Val _ -> ())
             a.args;
           if !k = Array.length vs then vs else Array.sub vs 0 !k)
         q.atoms)
  in
  let n = Names.length ids in
  let seen = Array.make n "" in
  Names.iter (fun x i -> seen.(i) <- x) ids;
  let by_name = Array.init n Fun.id in
  Array.sort (fun i j -> String.compare seen.(i) seen.(j)) by_name;
  let names = Array.map (fun i -> seen.(i)) by_name in
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_name;
  (* variable-free atoms are trivial hyperedges; they never obstruct
     acyclicity, so drop them up front *)
  let index =
    Array.of_list
      (List.filter
         (fun i -> Array.length atoms.(i) > 0)
         (List.init (Array.length atoms) Fun.id))
  in
  let verts =
    Array.map
      (fun i ->
        let vs = atoms.(i) in
        for p = 0 to Array.length vs - 1 do
          vs.(p) <- rank.(vs.(p))
        done;
        distinct vs)
      index
  in
  {
    atom_count = Array.length atoms;
    var_count = n;
    certificate = gyo names index verts;
    width_estimate =
      (if n = 0 then 0 else max 0 (Treewidth.estimate_width n verts));
    components = component_count n verts;
  }
