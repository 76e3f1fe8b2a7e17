open Certdb_values
open Certdb_relational
module String_map = Map.Make (String)

type atom = { rel : string; args : Fo.term list }

type t = {
  head : string list;
  atoms : atom list;
}

let make ?(head = []) atoms =
  let q = { head; atoms = List.map (fun (rel, args) -> { rel; args }) atoms } in
  let vs =
    List.concat_map
      (fun a ->
        List.filter_map
          (function Fo.Var x -> Some x | Fo.Val _ -> None)
          a.args)
      q.atoms
  in
  List.iter
    (fun x ->
      if not (List.mem x vs) then
        invalid_arg
          (Printf.sprintf "Cq.make: head variable %s not in the body" x))
    head;
  q

let boolean atoms = make atoms

let vars q =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc t ->
          match t with
          | Fo.Var x when not (List.mem x acc) -> x :: acc
          | _ -> acc)
        acc a.args)
    [] q.atoms
  |> List.rev

let to_fo q =
  let body =
    Fo.conj (List.map (fun a -> Fo.Atom (a.rel, a.args)) q.atoms)
  in
  let bound = List.filter (fun x -> not (List.mem x q.head)) (vars q) in
  if bound = [] then body else Fo.Exists (bound, body)

let freeze q =
  let assignment =
    List.fold_left
      (fun m x ->
        if String_map.mem x m then m
        else String_map.add x (Value.fresh_null ()) m)
      String_map.empty (vars q)
  in
  let term_value = function
    | Fo.Val v -> v
    | Fo.Var x -> String_map.find x assignment
  in
  let inst =
    List.fold_left
      (fun acc a -> Instance.add_fact acc a.rel (List.map term_value a.args))
      Instance.empty q.atoms
  in
  (inst, assignment)

module Term_table = Hashtbl.Make (struct
  type t = Fo.term

  let equal t u =
    match (t, u) with
    | Fo.Var x, Fo.Var y -> String.equal x y
    | Fo.Val v, Fo.Val w -> Value.equal v w
    | Fo.Var _, Fo.Val _ | Fo.Val _, Fo.Var _ -> false

  let hash = function Fo.Var x -> Hashtbl.hash x | Fo.Val v -> Value.hash v
end)

let tableau_columnar q =
  let ids = Term_table.create 16 in
  let terms = ref [] in
  let id_of t =
    match Term_table.find_opt ids t with
    | Some i -> i
    | None ->
      let i = Term_table.length ids in
      Term_table.replace ids t i;
      terms := t :: !terms;
      i
  in
  let tuples =
    List.map (fun a -> (a.rel, Array.of_list (List.map id_of a.args))) q.atoms
  in
  ( Certdb_csp.Structure.columnar_of ~nodes:(Term_table.length ids) tuples,
    Array.of_list (List.rev !terms) )

let of_instance d =
  let atoms =
    List.map
      (fun (f : Instance.fact) ->
        ( f.rel,
          List.map
            (fun v ->
              match v with
              | Value.Null i -> Fo.Var (Printf.sprintf "x%d" i)
              | Value.Const _ -> Fo.Val v)
            (Array.to_list f.args) ))
      (Instance.facts d)
  in
  boolean atoms

let answers ?target q d =
  let target = Certdb_relational.Hom.target_for ?target d in
  let tableau, assignment = freeze q in
  let head_nulls = List.map (fun x -> String_map.find x assignment) q.head in
  let results = ref Instance.empty in
  Certdb_relational.Hom.iter_onto target tableau (fun h ->
      let tuple = List.map (Valuation.apply h) head_nulls in
      results := Instance.add_fact !results "ans" tuple;
      `Continue);
  !results

let holds q d =
  if q.head <> [] then invalid_arg "Cq.holds: non-Boolean query";
  let tableau, _ = freeze q in
  Certdb_relational.Hom.exists tableau d

(* Q1 ⊆ Q2 iff the canonical database of Q1 (head variables frozen to
   distinguished constants) satisfies Q2 with the same distinguished
   output. *)
let contained q1 q2 =
  if List.length q1.head <> List.length q2.head then false
  else begin
    let distinguished =
      List.map (fun x -> (x, Value.fresh_const ())) q1.head
    in
    let build q head_pairs =
      let head_map =
        List.fold_left
          (fun m (x, c) -> String_map.add x c m)
          String_map.empty head_pairs
      in
      let body_map =
        List.fold_left
          (fun m x ->
            if String_map.mem x m then m
            else String_map.add x (Value.fresh_null ()) m)
          head_map (vars q)
      in
      let term_value = function
        | Fo.Val v -> v
        | Fo.Var x -> String_map.find x body_map
      in
      List.fold_left
        (fun acc a ->
          Instance.add_fact acc a.rel (List.map term_value a.args))
        Instance.empty q.atoms
    in
    let pairs1 = distinguished in
    let pairs2 =
      List.map2 (fun x (_, c) -> (x, c)) q2.head distinguished
    in
    let canon1 = build q1 pairs1 in
    let tabl2 = build q2 pairs2 in
    Certdb_relational.Hom.exists tabl2 canon1
  end

let equivalent q1 q2 = contained q1 q2 && contained q2 q1

let minimize_b ?limits q =
  (* freeze every variable to a null and pin the head's nulls to
     themselves, so they cannot fold; minimize = take the core; read the
     atoms back *)
  let inst, assignment = freeze q in
  let head_nulls =
    List.map (fun x -> (String_map.find x assignment, x)) q.head
  in
  let back v =
    match List.assoc_opt v head_nulls with
    | Some x -> Fo.Var x
    | None -> (
      match v with
      | Value.Null i -> Fo.Var (Printf.sprintf "m%d" i)
      | Value.Const _ -> Fo.Val v)
  in
  let read_back core =
    make ~head:q.head
      (List.map
         (fun (f : Instance.fact) ->
           (f.rel, List.map back (Array.to_list f.args)))
         (Instance.facts core))
  in
  Certdb_csp.Engine.map_outcome read_back
    (Core_instance.core_b ?limits
       ~fixed:(Value.Set.of_list (List.map fst head_nulls))
       inst)

let minimize q = Option.get (Certdb_csp.Solver.definitive (minimize_b q))

let pp ppf q =
  let pp_atom ppf a =
    Format.fprintf ppf "%s(%a)" a.rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         (fun ppf t ->
           match t with
           | Fo.Var x -> Format.fprintf ppf "%s" x
           | Fo.Val v -> Value.pp ppf v))
      a.args
  in
  Format.fprintf ppf "ans(%s) :- %a" (String.concat "," q.head)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_atom)
    q.atoms
