open Certdb_values
open Certdb_relational
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let ops = Obs.counter "query.algebra.ops"
let out_tuples = Obs.counter "query.algebra.tuples"

type condition =
  | Col_eq_col of int * int
  | Col_eq_const of int * Value.t

type t =
  | Rel of string
  | Select of condition * t
  | Project of int list * t
  | Product of t * t
  | Join of (int * int) list * t * t
  | Union of t * t
  | Rename of int list * t

let rec arity schema = function
  | Rel r -> (
    match Schema.arity schema r with
    | Some k -> k
    | None -> invalid_arg (Printf.sprintf "Algebra: unknown relation %s" r))
  | Select (cond, q) ->
    let k = arity schema q in
    (match cond with
    | Col_eq_col (i, j) ->
      if i < 0 || j < 0 || i >= k || j >= k then
        invalid_arg "Algebra: selection column out of range"
    | Col_eq_const (i, _) ->
      if i < 0 || i >= k then
        invalid_arg "Algebra: selection column out of range");
    k
  | Project (cols, q) ->
    let k = arity schema q in
    List.iter
      (fun c ->
        if c < 0 || c >= k then
          invalid_arg "Algebra: projection column out of range")
      cols;
    List.length cols
  | Product (q1, q2) -> arity schema q1 + arity schema q2
  | Join (pairs, q1, q2) ->
    let k1 = arity schema q1 and k2 = arity schema q2 in
    List.iter
      (fun (i, j) ->
        if i < 0 || i >= k1 || j < 0 || j >= k2 then
          invalid_arg "Algebra: join column out of range")
      pairs;
    k1 + k2
  | Union (q1, q2) ->
    let k1 = arity schema q1 and k2 = arity schema q2 in
    if k1 <> k2 then invalid_arg "Algebra: union arity mismatch";
    k1
  | Rename (perm, q) ->
    let k = arity schema q in
    if List.length perm <> k || List.sort compare perm <> List.init k Fun.id
    then invalid_arg "Algebra: rename is not a permutation";
    k

module Tuple_set = Set.Make (struct
  type t = Value.t array

  let compare (a : Value.t array) b = Stdlib.compare a b
end)

let rec eval_set q d =
  Obs.incr ops;
  match q with
  | Rel r -> Tuple_set.of_list (Instance.tuples d r)
  | Select (cond, q) ->
    let pass t =
      match cond with
      | Col_eq_col (i, j) -> Value.equal t.(i) t.(j)
      | Col_eq_const (i, c) -> Value.equal t.(i) c
    in
    Tuple_set.filter pass (eval_set q d)
  | Project (cols, q) ->
    Tuple_set.fold
      (fun t acc ->
        Tuple_set.add (Array.of_list (List.map (fun c -> t.(c)) cols)) acc)
      (eval_set q d) Tuple_set.empty
  | Product (q1, q2) ->
    let s1 = eval_set q1 d and s2 = eval_set q2 d in
    Tuple_set.fold
      (fun t1 acc ->
        Tuple_set.fold
          (fun t2 acc -> Tuple_set.add (Array.append t1 t2) acc)
          s2 acc)
      s1 Tuple_set.empty
  | Join (pairs, q1, q2) ->
    let s1 = eval_set q1 d and s2 = eval_set q2 d in
    Tuple_set.fold
      (fun t1 acc ->
        Tuple_set.fold
          (fun t2 acc ->
            if
              List.for_all (fun (i, j) -> Value.equal t1.(i) t2.(j)) pairs
            then Tuple_set.add (Array.append t1 t2) acc
            else acc)
          s2 acc)
      s1 Tuple_set.empty
  | Union (q1, q2) -> Tuple_set.union (eval_set q1 d) (eval_set q2 d)
  | Rename (perm, q) ->
    let perm = Array.of_list perm in
    Tuple_set.fold
      (fun t acc ->
        let t' = Array.make (Array.length t) t.(0) in
        Array.iteri (fun dst src -> t'.(dst) <- t.(src)) perm;
        Tuple_set.add t' acc)
      (eval_set q d) Tuple_set.empty

let eval q d =
  Trace.with_span "query.algebra.eval" @@ fun () ->
  let result = Tuple_set.elements (eval_set q d) in
  Obs.add out_tuples (List.length result);
  result

let eval_instance ~name q d =
  List.fold_left
    (fun acc t -> Instance.add_fact acc name (Array.to_list t))
    Instance.empty (eval q d)

let naive_eval ~name q d =
  Instance.filter
    (fun (f : Instance.fact) -> Array.for_all Value.is_const f.args)
    (eval_instance ~name q d)

(* FO translation: a column becomes a variable; fresh variable names are
   threaded through a counter. *)
let to_fo q ~schema =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "v%d" !counter
  in
  (* returns (column variable names, formula) *)
  let rec go q =
    match q with
    | Rel r ->
      let k =
        match Schema.arity schema r with
        | Some k -> k
        | None -> invalid_arg (Printf.sprintf "Algebra: unknown relation %s" r)
      in
      let vars = List.init k (fun _ -> fresh ()) in
      (vars, Fo.Atom (r, List.map (fun v -> Fo.Var v) vars))
    | Select (cond, q) ->
      let vars, f = go q in
      let extra =
        match cond with
        | Col_eq_col (i, j) ->
          Fo.Eq (Fo.Var (List.nth vars i), Fo.Var (List.nth vars j))
        | Col_eq_const (i, c) -> Fo.Eq (Fo.Var (List.nth vars i), Fo.Val c)
      in
      (vars, Fo.And (f, extra))
    | Project (cols, q) ->
      let vars, f = go q in
      let kept = List.map (fun c -> List.nth vars c) cols in
      let dropped = List.filter (fun v -> not (List.mem v kept)) vars in
      let f = if dropped = [] then f else Fo.Exists (dropped, f) in
      (kept, f)
    | Product (q1, q2) ->
      let vars1, f1 = go q1 and vars2, f2 = go q2 in
      (vars1 @ vars2, Fo.And (f1, f2))
    | Join (pairs, q1, q2) ->
      let vars1, f1 = go q1 and vars2, f2 = go q2 in
      let eqs =
        List.map
          (fun (i, j) ->
            Fo.Eq (Fo.Var (List.nth vars1 i), Fo.Var (List.nth vars2 j)))
          pairs
      in
      (vars1 @ vars2, Fo.conj ((f1 :: f2 :: eqs) |> List.rev))
    | Union (q1, q2) ->
      let vars1, f1 = go q1 and vars2, f2 = go q2 in
      (* align the two branches on vars1 by equating columns *)
      let eqs =
        List.map2 (fun v w -> Fo.Eq (Fo.Var v, Fo.Var w)) vars1 vars2
      in
      let right = Fo.Exists (vars2, Fo.conj (f2 :: eqs)) in
      (vars1, Fo.Or (f1, right))
    | Rename (perm, q) ->
      let vars, f = go q in
      (List.map (fun src -> List.nth vars src) perm, f)
  in
  go q

let rec pp ppf = function
  | Rel r -> Format.fprintf ppf "%s" r
  | Select (Col_eq_col (i, j), q) ->
    Format.fprintf ppf "sel[%d=%d](%a)" i j pp q
  | Select (Col_eq_const (i, c), q) ->
    Format.fprintf ppf "sel[%d=%a](%a)" i Value.pp c pp q
  | Project (cols, q) ->
    Format.fprintf ppf "proj[%s](%a)"
      (String.concat "," (List.map string_of_int cols))
      pp q
  | Product (q1, q2) -> Format.fprintf ppf "(%a x %a)" pp q1 pp q2
  | Join (pairs, q1, q2) ->
    Format.fprintf ppf "(%a |x|[%s] %a)" pp q1
      (String.concat ","
         (List.map (fun (i, j) -> Printf.sprintf "%d=%d" i j) pairs))
      pp q2
  | Union (q1, q2) -> Format.fprintf ppf "(%a u %a)" pp q1 pp q2
  | Rename (perm, q) ->
    Format.fprintf ppf "rho[%s](%a)"
      (String.concat "," (List.map string_of_int perm))
      pp q
