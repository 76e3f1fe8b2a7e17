module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)
module String_map = Map.Make (String)

type tuple = int array

module Tuple_set = Set.Make (struct
  type t = tuple

  let compare (a : tuple) (b : tuple) = Stdlib.compare a b
end)

(* {1 The columnar compiled view}

   Every hom search bottoms out in scans over the tuples of one relation,
   filtered by the value at one position.  The columnar view interns
   relation names and labels ({!Interner}), renumbers nodes densely, and
   stores each relation's tuples flat with a per-position inverted index,
   so the engine's support checks become array reads instead of
   [Tuple_set] traversals. *)

type crel = {
  rel : string;
  rel_id : int; (* Interner.rel_id rel *)
  arity : int;
  count : int;
  flat : int array; (* count * arity dense node ids, row-major *)
  by_pos : int array array array;
      (* by_pos.(p).(w) = ascending indices of tuples with dense node [w]
         at position [p] *)
}

type columnar = {
  node_ids : int array; (* dense -> raw node id, ascending *)
  dense_of : (int, int) Hashtbl.t; (* raw -> dense *)
  node_labels : int array; (* dense -> interned label id; -1 = unlabeled *)
  crels : crel array;
}

type t = {
  nodes : Int_set.t;
  label : string Int_map.t;
  rels : Tuple_set.t String_map.t;
  mutable cview : columnar option;
      (* memoized compiled view; the record is otherwise persistent, so
         the cache is write-once per value (a benign race: two domains
         may both compile, the results are equal and one pointer write
         wins) *)
}

let empty =
  { nodes = Int_set.empty; label = Int_map.empty; rels = String_map.empty;
    cview = None }

let add_node ?label s v =
  let labels =
    match label with None -> s.label | Some l -> Int_map.add v l s.label
  in
  { s with nodes = Int_set.add v s.nodes; label = labels; cview = None }

(* Nodes of the tuple not yet in the structure are registered on the fly
   (unlabeled) — the pre-declare-nodes boilerplate this used to force on
   every caller bought nothing, since an unregistered node can only ever
   be an unlabeled one. *)
let add_tuple s rel tup =
  let nodes =
    Array.fold_left (fun ns v -> Int_set.add v ns) s.nodes tup
  in
  let existing =
    match String_map.find_opt rel s.rels with
    | Some ts -> ts
    | None -> Tuple_set.empty
  in
  { s with nodes;
    rels = String_map.add rel (Tuple_set.add tup existing) s.rels;
    cview = None }

let add_edge s rel x y = add_tuple s rel [| x; y |]

let make ~nodes ~tuples =
  let s =
    List.fold_left (fun s (v, l) -> add_node ?label:l s v) empty nodes
  in
  List.fold_left
    (fun s (rel, ts) -> List.fold_left (fun s t -> add_tuple s rel t) s ts)
    s tuples

let nodes s = Int_set.elements s.nodes
let size s = Int_set.cardinal s.nodes
let label_of s v = Int_map.find_opt v s.label
let mem_node s v = Int_set.mem v s.nodes

let mem_tuple s rel tup =
  match String_map.find_opt rel s.rels with
  | Some ts -> Tuple_set.mem tup ts
  | None -> false

let tuples_of s rel =
  match String_map.find_opt rel s.rels with
  | Some ts -> Tuple_set.elements ts
  | None -> []

let rel_names s = List.map fst (String_map.bindings s.rels)

let all_tuples s =
  String_map.fold
    (fun rel ts acc ->
      Tuple_set.fold (fun t acc -> (rel, t) :: acc) ts acc)
    s.rels []

let tuple_count s =
  String_map.fold (fun _ ts n -> n + Tuple_set.cardinal ts) s.rels 0

let fold_tuples f s init =
  String_map.fold
    (fun rel ts acc -> Tuple_set.fold (fun t acc -> f rel t acc) ts acc)
    s.rels init

let compile s =
  let node_ids = Array.of_list (Int_set.elements s.nodes) in
  let n = Array.length node_ids in
  let dense_of = Hashtbl.create (max 16 n) in
  Array.iteri (fun d raw -> Hashtbl.replace dense_of raw d) node_ids;
  let node_labels =
    Array.map
      (fun raw ->
        match Int_map.find_opt raw s.label with
        | None -> -1
        | Some l -> Interner.label_id l)
      node_ids
  in
  let crels =
    String_map.fold
      (fun rel ts acc ->
        let rel_id = Interner.rel_id rel in
        (* group by arity, preserving Tuple_set order within each group *)
        let by_arity = Hashtbl.create 4 in
        let arities = ref [] in
        Tuple_set.iter
          (fun t ->
            let a = Array.length t in
            match Hashtbl.find_opt by_arity a with
            | Some l -> Hashtbl.replace by_arity a (t :: l)
            | None ->
              arities := a :: !arities;
              Hashtbl.replace by_arity a [ t ])
          ts;
        List.fold_left
          (fun acc arity ->
            let tuples = Array.of_list (List.rev (Hashtbl.find by_arity arity)) in
            let count = Array.length tuples in
            let flat = Array.make (max 1 (count * arity)) 0 in
            Array.iteri
              (fun i t ->
                Array.iteri
                  (fun p raw ->
                    flat.((i * arity) + p) <- Hashtbl.find dense_of raw)
                  t)
              tuples;
            let by_pos =
              Array.init arity (fun p ->
                  let buckets = Array.make (max 1 n) [] in
                  (* reverse iteration leaves each bucket ascending *)
                  for i = count - 1 downto 0 do
                    let w = flat.((i * arity) + p) in
                    buckets.(w) <- i :: buckets.(w)
                  done;
                  Array.map Array.of_list buckets)
            in
            { rel; rel_id; arity; count; flat; by_pos } :: acc)
          acc (List.sort compare !arities))
      s.rels []
  in
  { node_ids; dense_of; node_labels; crels = Array.of_list (List.rev crels) }

let columnar s =
  match s.cview with
  | Some c -> c
  | None ->
    let c = compile s in
    s.cview <- Some c;
    c

let same_label s1 v1 s2 v2 =
  match label_of s1 v1, label_of s2 v2 with
  | None, None -> true
  | Some l1, Some l2 -> String.equal l1 l2
  | _ -> false

(* Pairs (v1, v2) with matching labels are encoded as v1 * k + v2 where k
   exceeds every node id of s2. *)
let product s1 s2 =
  let k = (match Int_set.max_elt_opt s2.nodes with Some m -> m | None -> 0) + 1 in
  let encode v1 v2 = (v1 * k) + v2 in
  let decode v = (v / k, v mod k) in
  let base =
    Int_set.fold
      (fun v1 acc ->
        Int_set.fold
          (fun v2 acc ->
            if same_label s1 v1 s2 v2 then
              add_node ?label:(label_of s1 v1) acc (encode v1 v2)
            else acc)
          s2.nodes acc)
      s1.nodes empty
  in
  let result =
    String_map.fold
      (fun rel ts1 acc ->
        match String_map.find_opt rel s2.rels with
        | None -> acc
        | Some ts2 ->
          Tuple_set.fold
            (fun t1 acc ->
              Tuple_set.fold
                (fun t2 acc ->
                  if Array.length t1 <> Array.length t2 then acc
                  else
                    let tup = Array.map2 encode t1 t2 in
                    if Array.for_all (fun v -> Int_set.mem v base.nodes) tup
                    then add_tuple acc rel tup
                    else acc)
                ts2 acc)
            ts1 acc)
      s1.rels base
  in
  (result, decode)

let disjoint_union s1 s2 =
  let k = (match Int_set.max_elt_opt s1.nodes with Some m -> m | None -> -1) + 1 in
  let inj1 v = v in
  let inj2 v = v + k in
  let base =
    Int_set.fold
      (fun v acc -> add_node ?label:(label_of s2 v) acc (inj2 v))
      s2.nodes
      (Int_set.fold
         (fun v acc -> add_node ?label:(label_of s1 v) acc v)
         s1.nodes empty)
  in
  let with1 =
    fold_tuples (fun rel t acc -> add_tuple acc rel t) s1 base
  in
  let with2 =
    fold_tuples
      (fun rel t acc -> add_tuple acc rel (Array.map inj2 t))
      s2 with1
  in
  (with2, inj1, inj2)

let restrict s keep =
  let nodes = Int_set.inter s.nodes keep in
  let label = Int_map.filter (fun v _ -> Int_set.mem v nodes) s.label in
  let rels =
    String_map.filter_map
      (fun _ ts ->
        let ts' =
          Tuple_set.filter
            (fun t -> Array.for_all (fun v -> Int_set.mem v nodes) t)
            ts
        in
        if Tuple_set.is_empty ts' then None else Some ts')
      s.rels
  in
  { nodes; label; rels; cview = None }

let map_nodes s f =
  let base =
    Int_set.fold
      (fun v acc -> add_node ?label:(label_of s v) acc (f v))
      s.nodes empty
  in
  fold_tuples (fun rel t acc -> add_tuple acc rel (Array.map f t)) s base

let gaifman s =
  let init =
    Int_set.fold (fun v m -> Int_map.add v Int_set.empty m) s.nodes
      Int_map.empty
  in
  fold_tuples
    (fun _ t adj ->
      Array.fold_left
        (fun adj v ->
          Array.fold_left
            (fun adj w ->
              if v = w then adj
              else
                Int_map.update v
                  (function
                    | Some ns -> Some (Int_set.add w ns)
                    | None -> Some (Int_set.singleton w))
                  adj)
            adj t)
        adj t)
    s init

let is_substructure s1 s2 =
  Int_set.for_all
    (fun v -> Int_set.mem v s2.nodes && same_label s1 v s2 v)
    s1.nodes
  && String_map.for_all
       (fun rel ts ->
         Tuple_set.for_all (fun t -> mem_tuple s2 rel t) ts)
       s1.rels

let compare s1 s2 =
  let c = Int_set.compare s1.nodes s2.nodes in
  if c <> 0 then c
  else
    let c = Int_map.compare String.compare s1.label s2.label in
    if c <> 0 then c
    else String_map.compare Tuple_set.compare s1.rels s2.rels

let equal s1 s2 = compare s1 s2 = 0

let pp ppf s =
  let pp_node ppf v =
    match label_of s v with
    | Some l -> Format.fprintf ppf "%d:%s" v l
    | None -> Format.fprintf ppf "%d" v
  in
  let pp_tuple ppf (rel, t) =
    Format.fprintf ppf "%s(%a)" rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (Array.to_list t)
  in
  Format.fprintf ppf "@[<v>nodes: %a@,facts: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       pp_node)
    (nodes s)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       pp_tuple)
    (all_tuples s)
