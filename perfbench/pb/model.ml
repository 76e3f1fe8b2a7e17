(* The schedule's model of the server's semantic cache: an LRU over
   (database version, shape) keys with footprint invalidation, written
   from the protocol's documented semantics rather than from the
   server's code.  It predicts every query's [cached] flag, every
   invalidate's count and the final [stats] totals exactly. *)

open Workload

type t = {
  cap : int;
  entries : (string, int * int) Hashtbl.t;  (* key -> (last use, shape) *)
  current : (string, int) Hashtbl.t;  (* database -> loaded version *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bypasses : int;
}

let create ~cap dbs =
  let current = Hashtbl.create 4 in
  List.iter (fun (db, v) -> Hashtbl.replace current db v) dbs;
  { cap; entries = Hashtbl.create 128; current; clock = 0; hits = 0;
    misses = 0; evictions = 0; bypasses = 0 }

let prefix t db = Printf.sprintf "%s@%d|" db (Hashtbl.find t.current db)

(* constrained positions per relation: a constant, a head variable, or a
   variable occurring twice or more; a relation read only for tuple
   existence still appears, with no positions *)
let footprint (s : shape) =
  let occ = Hashtbl.create 16 in
  List.iter
    (fun (_, ts) ->
      List.iter
        (function
          | V i -> Hashtbl.replace occ i (1 + Option.value (Hashtbl.find_opt occ i) ~default:0)
          | C _ | N _ -> ())
        ts)
    s.atoms;
  let constrained = function
    | V i -> List.mem i s.head || Hashtbl.find occ i >= 2
    | C _ | N _ -> true
  in
  List.fold_left
    (fun acc (rel, ts) ->
      let pos = List.filteri (fun i _ -> constrained (List.nth ts i)) (List.mapi (fun i _ -> i) ts) in
      let old = Option.value (List.assoc_opt rel acc) ~default:[] in
      (rel, List.sort_uniq compare (old @ pos)) :: List.remove_assoc rel acc)
    [] s.atoms

let overlaps fp ~rel ~cols =
  match List.assoc_opt rel fp with
  | None -> false
  | Some pos -> (
    match cols with
    | None -> true
    | Some cs -> List.exists (fun c -> List.mem (c - 1) pos) cs)

(* [query t w ~shape ~no_cache] — the predicted [cached] flag *)
let query t (w : Workload.t) ~shape ~no_cache =
  t.clock <- t.clock + 1;
  if no_cache then begin
    t.bypasses <- t.bypasses + 1;
    false
  end
  else
    let key = prefix t w.shapes.(shape).db ^ string_of_int shape in
    match Hashtbl.find_opt t.entries key with
    | Some _ ->
      Hashtbl.replace t.entries key (t.clock, shape);
      t.hits <- t.hits + 1;
      true
    | None ->
      t.misses <- t.misses + 1;
      Hashtbl.replace t.entries key (t.clock, shape);
      if Hashtbl.length t.entries > t.cap then begin
        let victim, _ =
          Hashtbl.fold
            (fun k (stamp, _) (bk, bs) -> if stamp < bs then (k, stamp) else (bk, bs))
            t.entries ("", max_int)
        in
        Hashtbl.remove t.entries victim;
        t.evictions <- t.evictions + 1
      end;
      false

let invalidate t (w : Workload.t) ~rel ~cols ~db =
  let p = prefix t db in
  let victims =
    Hashtbl.fold
      (fun k (_, shape) acc ->
        if String.starts_with ~prefix:p k
           && overlaps (footprint w.shapes.(shape)) ~rel ~cols
        then k :: acc
        else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) victims;
  List.length victims

let load t ~db ~version = Hashtbl.replace t.current db version

(* [step t w r] — advance the model by one request; returns the
   expectation the response is checked against *)
type expect = Cached of bool | Invalidated of int | Loaded

let step t w = function
  | Query { shape; no_cache; _ } -> Cached (query t w ~shape ~no_cache)
  | Invalidate { rel; cols; db } -> Invalidated (invalidate t w ~rel ~cols ~db)
  | Load { db; version } ->
    load t ~db ~version;
    Loaded
