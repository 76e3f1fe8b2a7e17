open Certdb_values
module Cq = Certdb_query.Cq
module Fo = Certdb_query.Fo
module Structure = Certdb_csp.Structure
module Instance = Certdb_relational.Instance
module Core_instance = Certdb_relational.Core_instance
module Engine = Certdb_csp.Engine
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

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
let add_atom buf rel arity add_arg =
  add_string buf rel;
  Buffer.add_char buf '(';
  for p = 0 to arity - 1 do
    add_arg buf p;
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf ')'

let render_atom rel arity add_arg =
  let buf = Buffer.create 32 in
  add_atom buf rel arity add_arg;
  Buffer.contents buf

(* ---- canonical CQ keys ----------------------------------------------

   The query is frozen to its tableau, one structure with a node per
   distinct term, with the constants and the head variables pinned, and
   reduced to its core: hom-equivalent queries have isomorphic cores, so
   a canonical labeling of the core's body variables keys the whole
   ∼-class.  Head variables are named by their first head position (they
   may not be renamed apart), constants by their value.

   The labeling is colour refinement with individualisation on ties
   (McKay–Piperno), on the compiled core's own relations and node ids.
   Every body variable starts with one colour.  A refinement round
   recolours each variable by its colour and a hash of the multiset of
   the atoms it occurs in, each atom seen through its relation and, per
   argument, the constant, the head position, the variable itself, or
   the other variable's colour.  Colours are ranks of these pairs, so
   they do not depend on node ids or atom order; a hash collision can
   only leave a cell coarser, which costs branching, never a wrong key.
   If refinement stops with a cell of two or more variables, the first
   smallest such cell is split by each of its variables in turn, but by
   one member only of each interchangeable class of the core (the
   classes its last core search ordered): swapping two members of a
   class is an automorphism of the core, and while neither is
   individualised it fixes the colouring, so it maps one's subtree onto
   the other's, leaf for leaf, with equal certificates.  A discrete
   colouring names each variable by its colour, and the least leaf by
   its sorted atom certificate is rendered as the key: the rendering
   spells out the whole core, so equal keys mean isomorphic cores.  Each
   node of that tree costs one unit of the budget, so a rigid core costs
   one, and a bidirectional k-clique k. *)

exception Budget_exceeded

(* The core as the labeling reads it.  Atom [a] is relation [rel.(a)],
   of rank [rel_id.(a)] among the core's relation names, with arguments
   [args.(off.(a)) ..] (nodes).  A node is a body variable
   ([var.(w) >= 0]) or carries an invariant code ([code.(w)]: a
   constant's rank among the core's constants, tag 0, or a head
   position, tag 1).  The tags leave 2 for the variable being refined
   and 3 for a body variable's colour. *)
type core = {
  rel : string array;
  rel_id : int array;
  arity : int array;
  off : int array;
  args : int array;
  var : int array;
  code : int array;
  occ : int array array; (* per body variable: its atoms, once each *)
  cls : int array; (* per body variable: its class, or -1 *)
}

let mix h x =
  let h = (h lxor x) * 0x1e3779b97f4a7c15 in
  h lxor (h lsr 29)

(* the code of node [w], seen from variable [x] ([-1]: from none) under
   colouring [col] *)
let code k col x w =
  let y = k.var.(w) in
  if y < 0 then k.code.(w) else if y = x then 2 else (col.(y) lsl 2) lor 3

(* [term w] is node [w]'s term; [head_pos x] the first head position of
   variable [x], or -1 *)
let core_of ~term ~head_pos (e : Core_instance.endo) =
  let c = e.Core_instance.compiled.Engine.Compiled.csrc in
  let n = Array.length e.Core_instance.origin in
  let var = Array.make n (-1) and code = Array.make n 0 in
  let nb = ref 0 and consts = ref [] in
  for w = 0 to n - 1 do
    match term w with
    | Fo.Val (Value.Const _ as v) -> consts := (v, w) :: !consts
    | Fo.Var x when head_pos x >= 0 -> code.(w) <- (head_pos x lsl 2) lor 1
    | Fo.Var _ | Fo.Val (Value.Null _) ->
      var.(w) <- !nb;
      incr nb
  done;
  List.iteri
    (fun r (_, w) -> code.(w) <- r lsl 2)
    (List.sort (fun (u, _) (v, _) -> Value.compare u v) !consts);
  let crels = c.Structure.crels in
  let names =
    List.sort_uniq String.compare
      (Array.to_list
         (Array.map (fun (cr : Structure.crel) -> cr.Structure.rel) crels))
  in
  let rank name =
    let rec go i = function
      | x :: rest -> if String.equal x name then i else go (i + 1) rest
      | [] -> assert false
    in
    go 0 names
  in
  let na =
    Array.fold_left
      (fun k (cr : Structure.crel) -> k + cr.Structure.count)
      0 crels
  in
  let rel = Array.make na "" and rel_id = Array.make na 0 in
  let arity = Array.make na 0 and off = Array.make na 0 in
  let args =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (cr : Structure.crel) ->
              Array.sub cr.Structure.flat 0
                (cr.Structure.count * cr.Structure.arity))
            crels))
  in
  let a = ref 0 and o = ref 0 in
  Array.iter
    (fun (cr : Structure.crel) ->
      let r = rank cr.Structure.rel in
      for _ = 1 to cr.Structure.count do
        rel.(!a) <- cr.Structure.rel;
        rel_id.(!a) <- r;
        arity.(!a) <- cr.Structure.arity;
        off.(!a) <- !o;
        o := !o + cr.Structure.arity;
        incr a
      done)
    crels;
  let occ = Array.make !nb [] in
  for a = na - 1 downto 0 do
    for p = 0 to arity.(a) - 1 do
      let y = var.(args.(off.(a) + p)) in
      if y >= 0 then
        match occ.(y) with
        | a' :: _ when a' = a -> ()
        | l -> occ.(y) <- a :: l
    done
  done;
  let cls = Array.make !nb (-1) in
  Array.iteri
    (fun i members ->
      Array.iter (fun w -> if var.(w) >= 0 then cls.(var.(w)) <- i) members)
    e.Core_instance.classes;
  let occ = Array.map Array.of_list occ in
  { rel; rel_id; arity; off; args; var; code; occ; cls }

(* sorts [a] by the strict order [before]: by insertion while [a] is
   short, which is near-linear on an array that is nearly sorted
   already, by [Array.sort] beyond *)
let sort_by before a =
  let n = Array.length a in
  if n <= 64 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && before x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else
    Array.sort
      (fun x y -> if before x y then -1 else if before y x then 1 else 0)
      a

(* recolour by the rank of (colour, atom-multiset hash) until the number
   of colours stops growing from [ncol], the input's; a round only
   splits cells, so an equal count (or a discrete colouring) means a
   stable one.  The result's colours are 0..k-1 and keep the input's
   order *)
let refine k col ncol =
  let n = Array.length col in
  let order = Array.init n Fun.id in
  let h = Array.make n 0 in
  let rec round col ncol =
    for x = 0 to n - 1 do
      let occ = k.occ.(x) and acc = ref 0 in
      for i = 0 to Array.length occ - 1 do
        let a = occ.(i) in
        let o = k.off.(a) and ar = k.arity.(a) in
        let hk = ref (mix k.rel_id.(a) ar) in
        for p = o to o + ar - 1 do
          hk := mix !hk (code k col x k.args.(p))
        done;
        acc := !acc + mix !hk 0
      done;
      h.(x) <- !acc
    done;
    let before x y =
      col.(x) < col.(y) || (col.(x) = col.(y) && h.(x) < h.(y))
    in
    (* [order] is sorted by the previous colours already *)
    sort_by before order;
    let col' = Array.make n 0 in
    for i = 1 to n - 1 do
      let x = order.(i) and prev = order.(i - 1) in
      col'.(x) <- (if before prev x then col'.(prev) + 1 else col'.(prev))
    done;
    let ncol' = if n = 0 then 0 else col'.(order.(n - 1)) + 1 in
    if ncol' = ncol || ncol' = n then col' else round col' ncol'
  in
  round col ncol

(* A leaf's certificate: its atoms as code rows [rel; codes..], sorted
   by length, then entry by entry, and laid end to end, each behind its
   length.  Every leaf holds the core's atoms, so two certificates
   compare row by row as plain int arrays. *)
let certificate k col =
  let na = Array.length k.rel_id in
  (* row [a] is [rows.(k.off.(a) + a ..)], [1 + arity] entries long *)
  let rows = Array.make (Array.length k.args + na) 0 in
  for a = 0 to na - 1 do
    let r = k.off.(a) + a in
    rows.(r) <- k.rel_id.(a);
    for p = 1 to k.arity.(a) do
      rows.(r + p) <- code k col (-1) k.args.(k.off.(a) + p - 1)
    done
  done;
  let before a b =
    let la = k.arity.(a) and lb = k.arity.(b) in
    la < lb
    || la = lb
       &&
       let ra = k.off.(a) + a and rb = k.off.(b) + b in
       let i = ref 0 in
       while !i < la && rows.(ra + !i) = rows.(rb + !i) do
         incr i
       done;
       rows.(ra + !i) < rows.(rb + !i)
  in
  let atoms = Array.init na Fun.id in
  sort_by before atoms;
  let cert = Array.make (Array.length rows + na) 0 in
  let o = ref 0 in
  Array.iter
    (fun a ->
      let len = 1 + k.arity.(a) in
      cert.(!o) <- len;
      Array.blit rows (k.off.(a) + a) cert (!o + 1) len;
      o := !o + 1 + len)
    atoms;
  cert

let compare_certificates (c1 : int array) c2 = compare c1 c2

(* the least leaf's colouring, or [None] past [budget] nodes *)
let least_leaf ~budget k =
  let nb = Array.length k.occ in
  let nodes = ref 0 in
  let best = ref None in
  let rec go col ncol =
    incr nodes;
    if !nodes > budget then raise Budget_exceeded;
    let col = refine k col ncol in
    let size = Array.make (max 1 nb) 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) col;
    let cell = ref (-1) in
    Array.iteri
      (fun c s -> if s > 1 && (!cell < 0 || s < size.(!cell)) then cell := c)
      size;
    if !cell < 0 then begin
      let c = certificate k col in
      match !best with
      | Some (b, _) when compare_certificates b c <= 0 -> ()
      | _ -> best := Some (c, col)
    end
    else
      let ncol =
        Array.fold_left (fun k s -> if s > 0 then k + 1 else k) 0 size
      in
      (* one member per interchangeable class *)
      let split = ref [] in
      Array.iteri
        (fun w c ->
          if c = !cell then
            let i = k.cls.(w) in
            if i < 0 || not (List.mem i !split) then begin
              if i >= 0 then split := i :: !split;
              go
                (Array.mapi (fun x c -> (2 * c) + if x = w then 0 else 1) col)
                (ncol + 1)
            end)
        col
  in
  let result =
    match go (Array.make nb 0) (min nb 1) with
    | () -> Option.map snd !best
    | exception Budget_exceeded -> None
  in
  Obs.add label_nodes (min !nodes budget);
  result

(* [String.compare] on the substrings [o1, o1 + l1) and [o2, o2 + l2)
   of [s] *)
let compare_sub s o1 l1 o2 l2 =
  let rec go i =
    if i = l1 || i = l2 then Int.compare l1 l2
    else
      let c = Char.compare s.[o1 + i] s.[o2 + i] in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* appends the key's body to [out]: the core's atoms rendered under the
   least leaf's colouring, sorted and joined by [;]; [false] past
   [budget] *)
let label out ~budget ~term ~head_pos e =
  let k = core_of ~term ~head_pos e in
  let add_arg col buf w =
    let y = k.var.(w) in
    if y >= 0 then begin
      Buffer.add_char buf 'v';
      add_int buf col.(y)
    end
    else
      match term w with
      | Fo.Val (Value.Const c) -> add_const buf c
      | Fo.Var _ | Fo.Val (Value.Null _) ->
        Buffer.add_char buf 'h';
        add_int buf (k.code.(w) lsr 2)
  in
  match least_leaf ~budget k with
  | None -> false
  | Some col ->
    (* every atom rendered into one string, then sorted as substrings *)
    let na = Array.length k.rel in
    let buf = Buffer.create (16 * (na + 1)) in
    let start = Array.make (na + 1) 0 in
    for a = 0 to na - 1 do
      start.(a) <- Buffer.length buf;
      add_atom buf k.rel.(a) k.arity.(a) (fun buf p ->
          add_arg col buf k.args.(k.off.(a) + p))
    done;
    start.(na) <- Buffer.length buf;
    let s = Buffer.contents buf in
    let len a = start.(a + 1) - start.(a) in
    let atoms = Array.init na Fun.id in
    sort_by
      (fun a b -> compare_sub s start.(a) (len a) start.(b) (len b) < 0)
      atoms;
    Array.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char out ';';
        Buffer.add_substring out s start.(a) (len a))
      atoms;
    true

let cq_key ?(budget = default_budget) q =
  Trace.with_span "canon.key" @@ fun () ->
  let c, terms = Cq.tableau_columnar q in
  (* each head variable is named by its first head position *)
  let head_pos x =
    let rec go i = function
      | y :: rest -> if String.equal x y then i else go (i + 1) rest
      | [] -> -1
    in
    go 0 q.Cq.head
  in
  let pinned =
    Array.map
      (function
        | Fo.Val (Value.Const _) -> true
        | Fo.Val (Value.Null _) -> false
        | Fo.Var x -> head_pos x >= 0)
      terms
  in
  (* one budget for the whole core computation, one for the labeling *)
  match
    Trace.with_span "canon.core" (fun () ->
        Core_instance.core_nodes
          ~limits:(Engine.Limits.make ~nodes:budget ())
          ~tests:core_tests ~pinned c)
  with
  | Engine.Sat e ->
    let term w = terms.(e.Core_instance.origin.(w)) in
    let buf = Buffer.create 128 in
    Buffer.add_string buf "cq:[";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add_int buf (head_pos x))
      q.Cq.head;
    Buffer.add_string buf "]|";
    if
      Trace.with_span "canon.label" (fun () ->
          label buf ~budget ~term ~head_pos e)
    then Some (Buffer.contents buf)
    else None
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
