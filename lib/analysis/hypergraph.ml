open Certdb_query
module Obs = Certdb_obs.Obs
module Structure = Certdb_csp.Structure
module Treewidth = Certdb_csp.Treewidth

let checks = Obs.counter "csp.analysis.hypergraph"

module S = Set.Make (String)
module Int_set = Set.Make (Int)

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

let atom_vars (a : Cq.atom) =
  S.of_list
    (List.filter_map
       (function Fo.Var x -> Some x | Fo.Val _ -> None)
       a.args)

(* GYO reduction: repeatedly delete an ear vertex (occurring in exactly
   one hyperedge) or a hyperedge contained in another; the hypergraph is
   α-acyclic iff the reduction consumes every hyperedge.  Equal edges are
   broken by absorbing the higher index into the lower.

   The reduction is driven by per-vertex occurrence counts.  A vertex
   leaves the hypergraph only as an ear, so an edge's live vertices are
   its original ones with a nonzero count.  Ears are removed first: a
   removal changes no other count, so the ears present at one moment are
   removed together, in (edge, vertex) order.  An absorption runs only
   when no ear is left, on the lowest-indexed absorbable edge, into the
   lowest-indexed edge that contains it.  An edge becomes absorbable only
   by losing a vertex, so the candidates are the edges that lost one
   since they were last found unabsorbable (initially all); an
   absorption lowers the counts of the absorbed edge's vertices, which
   may make new ears.  Each subset test scans the edges through the
   tested edge's rarest vertex. *)
let gyo edges0 =
  let edges = Array.of_list edges0 in
  let m = Array.length edges in
  let ids = Hashtbl.create 16 in
  let names = ref [] in
  let verts =
    Array.map
      (fun (_, vs) ->
        Array.of_list
          (List.map
             (fun x ->
               match Hashtbl.find_opt ids x with
               | Some v -> v
               | None ->
                 let v = Hashtbl.length ids in
                 Hashtbl.replace ids x v;
                 names := x :: !names;
                 v)
             (S.elements vs)))
      edges
  in
  let names = Array.of_list (List.rev !names) in
  let n = Array.length names in
  let occ = Array.make n 0 in
  let inc = Array.make n [] in
  for k = m - 1 downto 0 do
    Array.iter
      (fun v ->
        occ.(v) <- occ.(v) + 1;
        inc.(v) <- k :: inc.(v))
      verts.(k)
  done;
  let alive = Array.make m true in
  let size = Array.map Array.length verts in
  let live k = List.filter (fun v -> occ.(v) > 0) (Array.to_list verts.(k)) in
  let ears = ref (List.filter (fun v -> occ.(v) = 1) (List.init n Fun.id)) in
  let candidates = ref (Int_set.of_list (List.init m Fun.id)) in
  let steps = ref [] in
  let mark = Array.make n (-1) in
  (* the lowest-indexed live edge containing [k]'s live vertices, other
     than [k] and either strictly larger or lower-indexed *)
  let absorber k =
    let vs = live k in
    let rarest =
      List.fold_left (fun a v -> if occ.(v) < occ.(a) then v else a)
        (List.hd vs) vs
    in
    List.iter (fun v -> mark.(v) <- k) vs;
    let width = List.length vs in
    List.find_opt
      (fun j ->
        j <> k && alive.(j)
        && begin
          let common = ref 0 in
          Array.iter
            (fun v -> if occ.(v) > 0 && mark.(v) = k then incr common)
            verts.(j);
          !common = width && (size.(j) > width || k > j)
        end)
      inc.(rarest)
  in
  let rec next_absorption () =
    match Int_set.min_elt_opt !candidates with
    | None -> None
    | Some k -> (
      candidates := Int_set.remove k !candidates;
      if not alive.(k) then next_absorption ()
      else
        match absorber k with
        | Some j -> Some (k, j)
        | None -> next_absorption ())
  in
  let rec reduce () =
    match !ears with
    | _ :: _ as batch ->
      ears := [];
      List.map
        (fun v -> (List.find (fun k -> alive.(k)) inc.(v), v))
        batch
      |> List.sort (fun (k, v) (k', v') ->
             match Int.compare k k' with
             | 0 -> String.compare names.(v) names.(v')
             | c -> c)
      |> List.iter (fun (k, v) ->
             steps :=
               Remove_vertex { vertex = names.(v); edge = fst edges.(k) }
               :: !steps;
             occ.(v) <- 0;
             size.(k) <- size.(k) - 1;
             (* a fully consumed hyperedge leaves the reduction *)
             if size.(k) = 0 then alive.(k) <- false
             else candidates := Int_set.add k !candidates);
      reduce ()
    | [] -> (
      match next_absorption () with
      | Some (k, j) ->
        steps := Absorb { edge = fst edges.(k); into = fst edges.(j) } :: !steps;
        alive.(k) <- false;
        List.iter
          (fun v ->
            occ.(v) <- occ.(v) - 1;
            if occ.(v) = 1 then ears := v :: !ears)
          (live k);
        reduce ()
      | None -> ())
  in
  reduce ();
  let residual =
    List.filter_map
      (fun k ->
        if alive.(k) then
          Some (fst edges.(k), List.map (fun v -> names.(v)) (live k))
        else None)
      (List.init m Fun.id)
  in
  if residual = [] then Acyclic { steps = List.rev !steps }
  else Cyclic { residual }

let width_estimate vars atoms =
  if S.is_empty vars then 0
  else begin
    let ids = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace ids v i) (S.elements vars);
    (* tuple nodes register implicitly; every variable occurs in an atom *)
    let structure =
      Structure.make ~nodes:[]
        ~tuples:
          (List.filter_map
             (fun a ->
               match S.elements (atom_vars a) with
               | [] -> None
               | vs ->
                 Some
                   ( a.Cq.rel,
                     [
                       Array.of_list
                         (List.map (fun v -> Hashtbl.find ids v) vs);
                     ] ))
             atoms)
    in
    max 0 (snd (Treewidth.estimate structure))
  end

(* Connected components of the atoms-share-a-variable graph: merge the
   variable sets of overlapping hyperedges until a fixpoint.  Variable-free
   atoms connect nothing, so they are already dropped from [edges]. *)
let component_count edges =
  let groups = ref [] in
  List.iter
    (fun (_, vs) ->
      let touching, rest =
        List.partition (fun g -> not (S.is_empty (S.inter g vs))) !groups
      in
      groups := List.fold_left S.union vs touching :: rest)
    edges;
  (* late edges can bridge groups formed earlier: iterate to fixpoint *)
  let rec settle gs =
    let merged =
      List.fold_left
        (fun acc g ->
          let touching, rest =
            List.partition (fun g' -> not (S.is_empty (S.inter g g'))) acc
          in
          List.fold_left S.union g touching :: rest)
        [] gs
    in
    if List.length merged = List.length gs then merged else settle merged
  in
  List.length (settle !groups)

let analyze (q : Cq.t) =
  Obs.incr checks;
  let edges =
    List.mapi (fun i a -> (i, atom_vars a)) q.atoms
    (* variable-free atoms are trivial hyperedges; they never obstruct
       acyclicity, so drop them up front *)
    |> List.filter (fun (_, vs) -> not (S.is_empty vs))
  in
  let vars =
    List.fold_left (fun acc (_, vs) -> S.union acc vs) S.empty edges
  in
  {
    atom_count = List.length q.atoms;
    var_count = S.cardinal vars;
    certificate = gyo edges;
    width_estimate = width_estimate vars q.atoms;
    components = component_count edges;
  }
