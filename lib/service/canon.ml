open Certdb_values
module Cq = Certdb_query.Cq
module Fo = Certdb_query.Fo
module Instance = Certdb_relational.Instance
module Engine = Certdb_csp.Engine
module String_map = Map.Make (String)

let default_budget = 50_000

(* ---- canonical CQ keys ----------------------------------------------

   After minimization the query is a core: hom-equivalent queries have
   isomorphic cores, so a canonical encoding of the core modulo variable
   renaming and atom reordering keys the whole ∼-class.  The encoding of
   an atom sequence renders constants verbatim, head variables by their
   first head position (they may not be renamed apart), and body
   variables by canonical ids assigned in order of first use; the
   canonical encoding of the query is the lexicographically least
   rendering over all atom orders.  Branch and bound: at each step only
   atoms whose rendering under the current assignment is minimal are
   explored (the least sequence must start with a least element), and a
   branch whose prefix already exceeds the best known sequence is cut. *)

exception Budget_exceeded

type enc_state = { mapping : int String_map.t; next : int }

(* encode one atom under [st]; fresh body variables are assigned ids
   left to right *)
let encode_atom head_index st (rel, args) =
  let buf = Buffer.create 32 in
  Buffer.add_string buf rel;
  Buffer.add_char buf '(';
  let st =
    List.fold_left
      (fun st t ->
        let st, rendered =
          match t with
          | Fo.Val v -> (st, "c:" ^ Value.to_string v)
          | Fo.Var x -> (
            match List.assoc_opt x head_index with
            | Some i -> (st, Printf.sprintf "h%d" i)
            | None -> (
              match String_map.find_opt x st.mapping with
              | Some k -> (st, Printf.sprintf "v%d" k)
              | None ->
                ( {
                    mapping = String_map.add x st.next st.mapping;
                    next = st.next + 1;
                  },
                  Printf.sprintf "v%d" st.next )))
        in
        Buffer.add_string buf rendered;
        Buffer.add_char buf ',';
        st)
      st args
  in
  Buffer.add_char buf ')';
  (Buffer.contents buf, st)

(* lexicographic order on atom-encoding sequences (all candidates have
   the same length, the number of core atoms) *)
let rec seq_lt a b =
  match (a, b) with
  | [], _ -> false
  | _ :: _, [] -> false
  | x :: a, y :: b ->
    let c = String.compare x y in
    if c < 0 then true else if c > 0 then false else seq_lt a b

(* does [prefix] already exceed [best] (so no completion of it can be
   the minimum)? *)
let rec prefix_exceeds prefix best =
  match (prefix, best) with
  | [], _ -> false
  | _ :: _, [] -> false
  | x :: prefix, y :: best ->
    let c = String.compare x y in
    if c > 0 then true else if c < 0 then false else prefix_exceeds prefix best

let canonical_body ~budget head_index atoms =
  let nodes = ref 0 in
  let best : string list option ref = ref None in
  let rec go prefix_rev state remaining =
    incr nodes;
    if !nodes > budget then raise Budget_exceeded;
    match remaining with
    | [] ->
      let full = List.rev prefix_rev in
      if match !best with None -> true | Some b -> seq_lt full b then
        best := Some full
    | _ ->
      let encoded =
        List.mapi
          (fun i atom ->
            let enc, st = encode_atom head_index state atom in
            (i, enc, st))
          remaining
      in
      (* the least complete sequence must start with a least next
         element, so only minimally-encoded atoms are explored; among
         them, branches whose prefix already exceeds the best known
         sequence are cut (re-checked per sibling, since an earlier
         sibling may have lowered the bar) *)
      let min_enc =
        List.fold_left
          (fun acc (_, enc, _) ->
            match acc with
            | None -> Some enc
            | Some m -> if String.compare enc m < 0 then Some enc else acc)
          None encoded
        |> Option.get
      in
      List.iter
        (fun (i, enc, st) ->
          if String.equal enc min_enc then begin
            let prefix_rev = enc :: prefix_rev in
            let viable =
              match !best with
              | None -> true
              | Some b -> not (prefix_exceeds (List.rev prefix_rev) b)
            in
            if viable then
              go prefix_rev st (List.filteri (fun j _ -> j <> i) remaining)
          end)
        encoded
  in
  match go [] { mapping = String_map.empty; next = 0 } atoms with
  | () -> Option.map (String.concat ";") !best
  | exception Budget_exceeded -> None

let core_key ~budget q =
  (* head variables are pinned to their first head position: the head of
     an equivalent query must expose the same variable pattern *)
  let head_index =
    List.rev
      (snd
         (List.fold_left
            (fun (i, acc) x ->
              ( i + 1,
                if List.mem_assoc x acc then acc else (x, i) :: acc ))
            (0, []) q.Cq.head))
  in
  let head_sig =
    String.concat ","
      (List.map
         (fun x -> string_of_int (List.assoc x head_index))
         q.Cq.head)
  in
  let atoms = List.map (fun a -> (a.Cq.rel, a.Cq.args)) q.Cq.atoms in
  Option.map
    (fun body -> Printf.sprintf "cq:[%s]|%s" head_sig body)
    (canonical_body ~budget head_index atoms)

let cq_key ?(budget = default_budget) q =
  (* each hom test of the core computation gets the whole budget *)
  match Cq.minimize_b ~limits:(Engine.Limits.make ~nodes:budget ()) q with
  | Engine.Sat core -> core_key ~budget core
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
  let render_value = function
    | Value.Const _ as v -> "c:" ^ Value.to_string v
    | Value.Null _ as v ->
      Printf.sprintf "n%d" (Value.Map.find v renumber)
  in
  let rendered =
    List.map
      (fun (f : Instance.fact) ->
        f.rel ^ "("
        ^ String.concat "," (List.map render_value (Array.to_list f.args))
        ^ ")")
      (Instance.facts d)
    |> List.sort String.compare
  in
  Printf.sprintf "%016Lx" (fnv1a64 (String.concat ";" rendered))
