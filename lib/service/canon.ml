open Certdb_values
module Cq = Certdb_query.Cq
module Instance = Certdb_relational.Instance
module Core_instance = Certdb_relational.Core_instance
module Engine = Certdb_csp.Engine
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace
module String_map = Map.Make (String)

let default_budget = 50_000
let core_tests = Obs.counter "service.canon.core_tests"
let label_nodes = Obs.counter "service.canon.label_nodes"

(* ---- renderings -------------------------------------------------------

   Query keys and database fingerprints render atoms alike, and every
   piece is self-delimiting, so a rendering reads back one way only: a
   string carries its length, a constant its type ([Int 5] is [ci5],
   [Str "5"] is [cs1:5]), and every argument ends in a comma. *)

(* [string_of_int] goes through the C printf; the numbers here are small *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n) else add_nat buf n

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_const buf = function
  | Value.Int i ->
    Buffer.add_string buf "ci";
    add_int buf i
  | Value.Str s ->
    Buffer.add_string buf "cs";
    add_string buf s

(* [add_arg buf p] renders argument [p] *)
let render_atom rel arity add_arg =
  let buf = Buffer.create 32 in
  add_string buf rel;
  Buffer.add_char buf '(';
  for p = 0 to arity - 1 do
    add_arg buf p;
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf ')';
  Buffer.contents buf

(* ---- canonical CQ keys ----------------------------------------------

   The query is frozen to its tableau, with the head variables' nulls
   pinned, and reduced to its core: hom-equivalent queries have
   isomorphic cores, so a canonical labeling of the core's body
   variables keys the whole ∼-class.  Head variables are named by their
   first head position (they may not be renamed apart), constants by
   their value.

   The labeling is colour refinement with individualisation on ties
   (McKay–Piperno).  Every body variable starts with one colour.  A
   refinement round recolours each variable by its colour and a hash of
   the multiset of the atoms it occurs in, each atom seen through its
   relation and, per argument, the constant, the head position, the
   variable itself, or the other variable's colour.  Colours are ranks
   of these pairs, so they do not depend on variable names or atom
   order; a hash collision can only leave a cell coarser, which costs
   branching, never a wrong key.  If refinement stops with a cell of two
   or more variables, the first smallest such cell is split by each of
   its variables in turn.  A discrete colouring names each variable by
   its colour, and the least leaf by its sorted atom certificate is
   rendered as the key: the rendering spells out the whole core, so
   equal keys mean isomorphic cores.  Each node of that tree costs one
   unit of the budget, so a rigid core costs one. *)

exception Budget_exceeded

(* An atom of the core: its relation's rank among the core's relation
   names, and per argument either a body variable ([vars.(p) >= 0]) or
   an invariant code ([codes.(p)]: a constant's rank among the core's
   constants, tag 0, or a head position, tag 1).  The tags leave 2 for
   the variable being refined and 3 for a body variable's colour. *)
type atom = {
  rel : string;
  rel_id : int;
  vars : int array;
  codes : int array;
  args : Value.t array;
}

let mix h x =
  let h = (h lxor x) * 0x1e3779b97f4a7c15 in
  h lxor (h lsr 29)

(* the code of argument [p] of [a], seen from variable [x] ([-1]: from
   none) under colouring [col] *)
let code col x a p =
  let y = a.vars.(p) in
  if y < 0 then a.codes.(p) else if y = x then 2 else (col.(y) lsl 2) lor 3

(* recolour by the rank of (colour, atom-multiset hash) until the number
   of colours stops growing from [ncol], the input's; a round only
   splits cells, so an equal count (or a discrete colouring) means a
   stable one.  The result's colours are 0..k-1 and keep the input's
   order *)
let refine atoms occ col ncol =
  let n = Array.length col in
  let order = Array.init n Fun.id in
  let h = Array.make n 0 in
  let rec round col ncol =
    for x = 0 to n - 1 do
      h.(x) <-
        List.fold_left
          (fun acc i ->
            let a = atoms.(i) in
            let k = ref (mix a.rel_id (Array.length a.vars)) in
            for p = 0 to Array.length a.vars - 1 do
              k := mix !k (code col x a p)
            done;
            acc + mix !k 0)
          0 occ.(x)
    done;
    let cmp x y =
      let c = Int.compare col.(x) col.(y) in
      if c <> 0 then c else Int.compare h.(x) h.(y)
    in
    Array.sort cmp order;
    let col' = Array.make n 0 in
    for k = 1 to n - 1 do
      let x = order.(k) and prev = order.(k - 1) in
      col'.(x) <- (if cmp prev x = 0 then col'.(prev) else col'.(prev) + 1)
    done;
    let ncol' = if n = 0 then 0 else col'.(order.(n - 1)) + 1 in
    if ncol' = ncol || ncol' = n then col' else round col' ncol'
  in
  round col ncol

(* a leaf's certificate: its atoms as code rows, sorted *)
let compare_rows r1 r2 =
  let c = Int.compare (Array.length r1) (Array.length r2) in
  if c <> 0 then c
  else
    let rec go i =
      if i = Array.length r1 then 0
      else
        let c = Int.compare r1.(i) r2.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let certificate atoms col =
  let rows =
    Array.map
      (fun a ->
        Array.init
          (1 + Array.length a.vars)
          (fun p -> if p = 0 then a.rel_id else code col (-1) a (p - 1)))
      atoms
  in
  Array.sort compare_rows rows;
  rows

let compare_certificates c1 c2 =
  let rec go i =
    if i = Array.length c1 then 0
    else
      let c = compare_rows c1.(i) c2.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* ranks of the distinct elements of [xs] *)
let ranks compare xs =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i x -> Hashtbl.replace tbl x i) (List.sort_uniq compare xs);
  Hashtbl.find tbl

(* the core's atoms, its body variables numbered 0..nb-1, and the atoms
   each body variable occurs in (once each) *)
let atoms_of ~head_pos core =
  let facts = Instance.facts core in
  let body = Hashtbl.create 16 in
  Value.Set.iter
    (fun v ->
      if not (Value.Map.mem v head_pos) then
        Hashtbl.replace body v (Hashtbl.length body))
    (Instance.nulls core);
  let rel_rank =
    ranks String.compare (List.map (fun (f : Instance.fact) -> f.rel) facts)
  in
  let const_rank =
    ranks Value.compare
      (List.concat_map
         (fun (f : Instance.fact) ->
           List.filter Value.is_const (Array.to_list f.args))
         facts)
  in
  let atom (f : Instance.fact) =
    let vars =
      Array.map
        (fun v -> Option.value (Hashtbl.find_opt body v) ~default:(-1))
        f.args
    in
    let codes =
      Array.map
        (fun v ->
          match Value.Map.find_opt v head_pos with
          | Some p -> (p lsl 2) lor 1
          | None -> if Value.is_const v then const_rank v lsl 2 else 0)
        f.args
    in
    { rel = f.rel; rel_id = rel_rank f.rel; vars; codes; args = f.args }
  in
  let atoms = Array.of_list (List.map atom facts) in
  let occ = Array.make (Hashtbl.length body) [] in
  Array.iteri
    (fun i a ->
      Array.iter
        (fun y ->
          if y >= 0 && not (List.mem i occ.(y)) then occ.(y) <- i :: occ.(y))
        a.vars)
    atoms;
  (atoms, occ)

(* the least leaf's colouring, or [None] past [budget] nodes *)
let least_leaf ~budget atoms occ =
  let nb = Array.length occ in
  let nodes = ref 0 in
  let best = ref None in
  let rec go col ncol =
    incr nodes;
    if !nodes > budget then raise Budget_exceeded;
    let col = refine atoms occ col ncol in
    let size = Array.make (max 1 nb) 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) col;
    let cell = ref (-1) in
    Array.iteri
      (fun c s -> if s > 1 && (!cell < 0 || s < size.(!cell)) then cell := c)
      size;
    if !cell < 0 then begin
      let c = certificate atoms col in
      match !best with
      | Some (b, _) when compare_certificates b c <= 0 -> ()
      | _ -> best := Some (c, col)
    end
    else
      let ncol =
        Array.fold_left (fun k s -> if s > 0 then k + 1 else k) 0 size
      in
      Array.iteri
        (fun w c ->
          if c = !cell then
            go
              (Array.mapi (fun x c -> (2 * c) + if x = w then 0 else 1) col)
              (ncol + 1))
        col
  in
  let result =
    match go (Array.make nb 0) (min nb 1) with
    | () -> Option.map snd !best
    | exception Budget_exceeded -> None
  in
  Obs.add label_nodes (min !nodes budget);
  result

let label ~budget ~head_pos core =
  let atoms, occ = atoms_of ~head_pos core in
  let add_arg col a buf p =
    let y = a.vars.(p) in
    if y >= 0 then begin
      Buffer.add_char buf 'v';
      add_int buf col.(y)
    end
    else
      match a.args.(p) with
      | Value.Const c -> add_const buf c
      | Value.Null _ ->
        Buffer.add_char buf 'h';
        add_int buf (a.codes.(p) lsr 2)
  in
  Option.map
    (fun col ->
      Array.to_list atoms
      |> List.map (fun a ->
             render_atom a.rel (Array.length a.args) (add_arg col a))
      |> List.sort String.compare |> String.concat ";")
    (least_leaf ~budget atoms occ)

let cq_key ?(budget = default_budget) q =
  Trace.with_span "canon.key" @@ fun () ->
  let d, assignment = Cq.freeze q in
  let head = List.map (fun x -> String_map.find x assignment) q.Cq.head in
  (* each head null is named by its first head position *)
  let head_pos =
    List.fold_left
      (fun (i, m) v ->
        (i + 1, if Value.Map.mem v m then m else Value.Map.add v i m))
      (0, Value.Map.empty) head
    |> snd
  in
  (* each core test gets the whole budget *)
  match
    Trace.with_span "canon.core" (fun () ->
        Core_instance.core_b
          ~limits:(Engine.Limits.make ~nodes:budget ())
          ~fixed:(Value.Set.of_list head)
          ~tests:core_tests
          d)
  with
  | Engine.Sat core ->
    Option.map
      (fun body ->
        let buf = Buffer.create (String.length body + 16) in
        Buffer.add_string buf "cq:[";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            add_int buf (Value.Map.find v head_pos))
          head;
        Buffer.add_string buf "]|";
        Buffer.add_string buf body;
        Buffer.contents buf)
      (Trace.with_span "canon.label" (fun () -> label ~budget ~head_pos core))
  | Engine.Unsat | Engine.Unknown _ -> None

(* ---- database fingerprints ------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let db_fingerprint d =
  (* renumber nulls by increasing id: the parser's global null supply is
     monotone in source order, so reloading the same text renumbers
     identically *)
  let renumber =
    let _, m =
      Value.Set.fold
        (fun v (i, m) -> (i + 1, Value.Map.add v i m))
        (Instance.nulls d) (0, Value.Map.empty)
    in
    m
  in
  let add_value buf = function
    | Value.Const c -> add_const buf c
    | Value.Null _ as v ->
      Buffer.add_char buf 'n';
      add_int buf (Value.Map.find v renumber)
  in
  let rendered =
    List.map
      (fun (f : Instance.fact) ->
        render_atom f.rel (Array.length f.args) (fun buf p ->
            add_value buf f.args.(p)))
      (Instance.facts d)
    |> List.sort String.compare
  in
  Printf.sprintf "%016Lx" (fnv1a64 (String.concat ";" rendered))
