(* Everything a run needs before it touches the server: the workload,
   its schedule preconditions, and the oracle table. *)

module Cq = Certdb_query.Cq
module Plan = Certdb_analysis.Plan
module Backend = Certdb_sat.Backend
module Wire = Certdb_service.Wire
module Canon = Certdb_service.Canon
open Workload

let workload name seed =
  match name with
  | "hit" -> Workload.hit seed
  | "miss" -> Workload.miss seed
  | "deadline" -> Workload.deadline seed
  | "churn" -> Workload.churn seed
  | _ -> failwith ("unknown workload " ^ name)

let parse_cq text =
  match Wire.parse_cq_result text with Ok q -> q | Error m -> failwith ("query: " ^ m)

let parse_instance text =
  match Wire.parse_instance_result text with
  | Ok d -> d
  | Error m -> failwith ("instance: " ^ m)

let backend_of (s : shape) =
  match s.backend with
  | None -> Backend.Csp
  | Some b -> Option.get (Backend.choice_of_string b)

let route_name = function
  | Plan.Naive_eval -> "naive_eval"
  | Plan.Acyclic_join -> "acyclic_join"
  | Plan.Bounded_width _ -> "bounded_width"
  | Plan.Components _ -> "components"
  | Plan.Hom_ladder -> "hom_ladder"
  | Plan.Fd_naive _ -> "fd_naive"
  | Plan.Sat_backend _ -> "sat"

(* Preconditions of every schedule, checked in-process: each shape takes
   its declared route, and the shapes the stream sends through the cache
   own pairwise distinct canonical keys (so the cache model's key
   identity is the server's). *)
let check_shapes (w : Workload.t) =
  let keys = Hashtbl.create 64 in
  let cacheable = Hashtbl.create 64 in
  let note = function
    | Query { shape; no_cache = false; _ } -> Hashtbl.replace cacheable shape ()
    | _ -> ()
  in
  Array.iter note w.warmup;
  for i = 0 to 9_999 do note (w.timed i) done;
  Array.iteri
    (fun i (s : shape) ->
      let q = parse_cq (query_text w s 0) in
      let r = route_name (Plan.route_cq ~backend:(backend_of s) q).Plan.route in
      if r <> s.route then
        failwith (Printf.sprintf "%s routes to %s, not %s" s.name r s.route);
      (* only cacheable shapes are canonicalised, as in the server: the
         core computation is unbudgeted and can take tens of seconds on the
         large cliques that deadline sends with no_cache *)
      if Hashtbl.mem cacheable i then
        match Canon.cq_key q with
        | None -> failwith (s.name ^ ": canonicalisation gave up")
        | Some k -> (
          match Hashtbl.find_opt keys (s.db, k) with
          | Some j ->
            failwith (Printf.sprintf "%s and %s share a cache key" s.name w.shapes.(j).name)
          | None -> Hashtbl.replace keys (s.db, k) i))
    w.shapes

(* every (database version, shape) pair the stream can reach *)
let oracle_table (w : Workload.t) =
  let tbl = Hashtbl.create 64 in
  let t0 = Clock.now_ns () in
  List.iter
    (fun (db, nversions) ->
      for version = 0 to nversions - 1 do
        let d = parse_instance (instance_text w db version) in
        Array.iteri
          (fun i (s : shape) ->
            if s.db = db then
              Hashtbl.replace tbl (version, i)
                (Oracle.answer ~route:s.route (parse_cq (query_text w s 0)) d))
          w.shapes
      done)
    w.db_versions;
  (tbl, float_of_int (Clock.now_ns () - t0) /. 1e9)

let context (w : Workload.t) ~certdb =
  check_shapes w;
  let tbl, oracle_s = oracle_table w in
  let lines = Hashtbl.create 64 in
  let line r =
    match Hashtbl.find_opt lines r with
    | Some l -> l
    | None ->
      let l = Workload.line w r ^ "\n" in
      Hashtbl.replace lines r l;
      l
  in
  ( { Timed.w; certdb; line; oracle = (fun ~version i -> Hashtbl.find tbl (version, i)) },
    oracle_s )

