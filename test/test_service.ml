(* lib/service: the semantic cache's soundness story.  Canonical query
   keys must be invariant under everything hom-equivalence allows
   (variable renaming, atom reordering, redundant atoms) and must never
   conflate queries the unlimited hom oracle distinguishes; cached
   answers must equal freshly computed ones; the LRU must evict in
   recency order; database fingerprints must be stable across reloads. *)

open Certdb_values
module Cq = Certdb_query.Cq
module Fo = Certdb_query.Fo
module Instance = Certdb_relational.Instance
module Parse = Certdb_relational.Parse
module Canon = Certdb_service.Canon
module Cache = Certdb_service.Cache
module Server = Certdb_service.Server
module Wire = Certdb_service.Wire
module Obs = Certdb_obs.Obs
module Json = Obs.Json

let check = Alcotest.(check bool)

(* ---- generators ------------------------------------------------------ *)

let var i = Fo.Var (Printf.sprintf "x%d" i)

let gen_term =
  QCheck.Gen.(
    frequency
      [
        (3, map var (int_range 0 4));
        (1, map (fun i -> Fo.Val (Value.int i)) (int_range 1 3));
      ])

let gen_atom =
  QCheck.Gen.(
    oneof
      [
        map2 (fun a b -> ("R", [ a; b ])) gen_term gen_term;
        map (fun a -> ("S", [ a ])) gen_term;
      ])

let gen_atoms = QCheck.Gen.(list_size (int_range 1 5) gen_atom)

(* deterministic shuffle driven by generated sort keys *)
let gen_shuffle l =
  QCheck.Gen.(
    list_repeat (List.length l) (int_bound 1_000_000) >|= fun keys ->
    List.map snd (List.sort compare (List.combine keys l)))

(* an injective renaming of the x0..x4 variable space *)
let gen_renaming =
  QCheck.Gen.(
    gen_shuffle [ "a"; "b"; "c"; "d"; "e" ] >|= fun fresh i ->
    List.nth fresh i)

let rename_atom rho (rel, args) =
  ( rel,
    List.map
      (function
        | Fo.Var x ->
          let i = int_of_string (String.sub x 1 (String.length x - 1)) in
          Fo.Var (rho i)
        | t -> t)
      args )

let print_atoms atoms =
  Format.asprintf "%a" Cq.pp (Cq.boolean atoms)

(* ---- canonicalisation ------------------------------------------------ *)

(* invariance: a renamed, reordered copy gets the same key *)
let qcheck_canon_invariant =
  QCheck.Test.make ~count:500 ~name:"cq_key invariant under renaming+reorder"
    (QCheck.make
       ~print:(fun (atoms, variant) ->
         print_atoms atoms ^ "  vs  " ^ print_atoms variant)
       QCheck.Gen.(
         gen_atoms >>= fun atoms ->
         gen_renaming >>= fun rho ->
         gen_shuffle (List.map (rename_atom rho) atoms) >|= fun variant ->
         (atoms, variant)))
    (fun (atoms, variant) ->
      Canon.cq_key (Cq.boolean atoms) = Canon.cq_key (Cq.boolean variant))

(* invariance under redundancy: duplicating an atom never changes the
   core, hence never the key *)
let qcheck_canon_redundant =
  QCheck.Test.make ~count:300 ~name:"cq_key ignores redundant atoms"
    (QCheck.make ~print:print_atoms
       QCheck.Gen.(
         gen_atoms >>= fun atoms ->
         int_bound (List.length atoms - 1) >|= fun i ->
         atoms @ [ List.nth atoms i ]))
    (fun padded ->
      let base = List.filteri (fun i _ -> i < List.length padded - 1) padded in
      Canon.cq_key (Cq.boolean base) = Canon.cq_key (Cq.boolean padded))

(* Query shapes for the soundness check: random atoms, and the
   structured families whose cores are hard to label — cycles, bicliques
   (with their symmetric cells), disjoint copies (which fold onto one),
   constants of both kinds (an [Int] and a [Str] that print alike), and
   head variables. *)
let gen_const =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Fo.Val (Value.int i)) (int_range 1 2);
        map (fun i -> Fo.Val (Value.str (string_of_int i))) (int_range 1 2);
      ])

let cycle_atoms ~base k =
  List.init k (fun i -> ("R", [ var (base + i); var (base + ((i + 1) mod k)) ]))

let biclique_atoms ~base a b =
  List.concat_map
    (fun i -> List.init b (fun j -> ("R", [ var (base + i); var (base + a + j) ])))
    (List.init a Fun.id)

let gen_shape =
  QCheck.Gen.(
    frequency
      [
        (3, gen_atoms);
        (2, map (fun k -> cycle_atoms ~base:0 k) (int_range 1 5));
        (2, map2 (fun a b -> biclique_atoms ~base:0 a b) (int_range 1 3) (int_range 1 3));
        ( 2,
          (* disjoint copies: a cycle beside a renamed copy of itself, or of
             a shorter one *)
          map2
            (fun k k' -> cycle_atoms ~base:0 k @ cycle_atoms ~base:5 k')
            (int_range 2 4) (int_range 2 4) );
      ])

(* add constants (anchoring a variable) and pick head variables among the
   body's *)
let gen_query =
  QCheck.Gen.(
    gen_shape >>= fun atoms ->
    list_size (int_range 0 2) (pair gen_const (int_range 0 3)) >>= fun anchors ->
    let atoms =
      atoms @ List.map (fun (c, i) -> ("R", [ c; var i ])) anchors
      |> List.filter (fun (_, args) -> args <> [])
    in
    let vars = Cq.vars (Cq.boolean atoms) in
    (if vars = [] then return []
     else list_size (int_range 0 2) (oneofl vars)) >|= fun head ->
    Cq.make ~head atoms)

(* soundness both ways on random pairs: equal keys iff hom-equivalent.
   The variable/relation space is small so collisions actually occur. *)
let qcheck_canon_sound =
  QCheck.Test.make ~count:1000 ~name:"cq_key equal iff hom-equivalent"
    (QCheck.make
       ~print:(fun (a, b) ->
         Format.asprintf "%a  vs  %a" Cq.pp a Cq.pp b)
       QCheck.Gen.(pair gen_query gen_query))
    (fun (q1, q2) ->
      match (Canon.cq_key q1, Canon.cq_key q2) with
      | Some k1, Some k2 ->
        Bool.equal (String.equal k1 k2) (Cq.equivalent q1 q2)
      | _ -> QCheck.Test.fail_report "canonicalisation budget tripped")

let test_canon_budget () =
  (* the transitive 4-tournament is a core: each of its four core tests
     refutes an endomorphism avoiding one null, which takes more than
     two engine nodes, so a starved budget gives up (None) instead of
     searching beyond it *)
  let clique k =
    let ids = List.init k Fun.id in
    Cq.boolean
      (List.concat_map
         (fun a ->
           List.filter_map
             (fun b -> if a < b then Some ("R", [ var a; var b ]) else None)
             ids)
         ids)
  in
  check "starved budget returns None" true
    (Canon.cq_key ~budget:2 (clique 4) = None);
  check "default budget canonicalises the clique" true
    (Canon.cq_key (clique 4) <> None)

let test_canon_core_budget () =
  (* the bidirectional 6-clique is a core with 720 automorphisms: each of
     its six core tests (one per null) is a pigeonhole refutation, and
     each one runs under the canonicalisation budget *)
  let ids = List.init 6 Fun.id in
  let q =
    Cq.boolean
      (List.concat_map
         (fun a ->
           List.filter_map
             (fun b -> if a <> b then Some ("E", [ var a; var b ]) else None)
             ids)
         ids)
  in
  let limits = Certdb_csp.Engine.Limits.make ~nodes:20 () in
  check "core search trips the node budget" true
    (Cq.minimize_b ~limits q
    = Certdb_csp.Engine.Unknown Certdb_csp.Engine.Node_budget);
  check "starved budget returns None" true (Canon.cq_key ~budget:20 q = None);
  check "default budget keys the clique" true (Canon.cq_key q <> None)

let test_canon_core_budget_per_test () =
  (* the budget bounds each hom test of the minimization on its own: the
     bidirectional 5-clique runs 5 symmetric refutations (one per null),
     and half of their total engine nodes is enough for every one of
     them *)
  let ids = List.init 5 Fun.id in
  let q =
    Cq.boolean
      (List.concat_map
         (fun a ->
           List.filter_map
             (fun b -> if a <> b then Some ("E", [ var a; var b ]) else None)
             ids)
         ids)
  in
  let decisions = Obs.counter "csp.solver.decisions" in
  let before = Obs.counter_value decisions in
  ignore (Cq.minimize q);
  let total = Obs.counter_value decisions - before in
  check "the core computation branches" true (total >= 20);
  let limits = Certdb_csp.Engine.Limits.make ~nodes:(total / 2) () in
  check "half the total budget minimizes" true
    (match Cq.minimize_b ~limits q with
    | Certdb_csp.Engine.Sat core -> List.length core.Cq.atoms = 20
    | _ -> false)

let test_canon_head_vars () =
  (* head variables are pinned: ans(x):-R(x,y) and ans(y):-R(y,x) are
     equivalent, but ans(x):-R(x,y) and ans(y):-R(x,y) are not *)
  let q head atoms = Cq.make ~head atoms in
  let k1 = Canon.cq_key (q [ "x" ] [ ("R", [ Fo.Var "x"; Fo.Var "y" ]) ]) in
  let k2 = Canon.cq_key (q [ "y" ] [ ("R", [ Fo.Var "y"; Fo.Var "x" ]) ]) in
  let k3 = Canon.cq_key (q [ "y" ] [ ("R", [ Fo.Var "x"; Fo.Var "y" ]) ]) in
  check "same query modulo renaming" true (k1 = k2);
  check "head position distinguishes" true (k1 <> k3)

(* Rigid cores are labeled by refinement alone: the transitive
   10-tournament (45 atoms, already a core) and four disjoint copies of it
   (whose core is one copy) key at the default budget, in milliseconds. *)
let test_canon_tournament () =
  let tournament ~base n =
    List.concat
      (List.init n (fun i ->
           List.init (n - i - 1) (fun k ->
               ("E", [ var (base + i); var (base + i + k + 1) ]))))
  in
  let one = Cq.boolean (tournament ~base:0 10) in
  let four =
    Cq.boolean (List.concat_map (fun c -> tournament ~base:(10 * c) 10) [ 0; 1; 2; 3 ])
  in
  let k1 = Canon.cq_key one and k4 = Canon.cq_key four in
  check "one tournament keys" true (k1 <> None);
  check "four copies key" true (k4 <> None);
  check "four copies share the one copy's key" true (k1 = k4)

(* A quoted constant cannot stand in for a head variable: the core pins
   head variables through its restriction, not through minted constants
   (which could spell ["#1"]), and minted constants carry a character no
   parsed constant holds. *)
let test_canon_head_not_constant () =
  let parse s = Result.get_ok (Wire.parse_cq_result s) in
  let key s =
    Value.reset_fresh ();
    Canon.cq_key (parse s)
  in
  check "head variable vs quoted #1" true
    (key {|ans(_x) :- R(_x,"#1")|} <> key "ans(_x) :- R(_x,_x)");
  check "not equivalent either" false
    (Cq.equivalent (parse {|ans(_x) :- R(_x,"#1")|}) (parse "ans(_x) :- R(_x,_x)"));
  check "a minted constant cannot be parsed" true
    (match Value.fresh_const () with
    | Value.Const (Value.Str s) -> String.contains s '"'
    | _ -> false)

(* Constants of different types, and a constant whose text holds the
   separators of a rendering, key apart from what they print like. *)
let test_canon_constants_apart () =
  let parse s = Result.get_ok (Wire.parse_cq_result s) in
  let key s = Canon.cq_key (parse s) in
  check "Int 5 vs Str 5" true (key "ans() :- R(5)" <> key {|ans() :- R("5")|});
  check "one argument vs two" true
    (key {|ans() :- R("a,c:b")|} <> key "ans() :- R(a,b)");
  let fp s = Canon.db_fingerprint (fst (Parse.instance s)) in
  check "fingerprint: Int 5 vs Str 5" true (fp "R(5)" <> fp {|R("5")|});
  check "fingerprint: one argument vs two" true
    (fp {|R("a,c:b")|} <> fp "R(a,b)")

(* ---- database fingerprints ------------------------------------------- *)

let test_fingerprint_stable () =
  let fp s = Canon.db_fingerprint (fst (Parse.instance s)) in
  check "reload is stable" true
    (fp "R(1,_x); R(_x,2)" = fp "R(1,_x); R(_x,2)");
  check "null names are immaterial" true
    (fp "R(1,_x); R(_x,2)" = fp "R(1,_u); R(_u,2)");
  check "fact order is immaterial" true
    (fp "R(1,_x); S(3)" = fp "S(3); R(1,_x)");
  check "different facts differ" true (fp "R(1,2)" <> fp "R(1,3)");
  check "null structure matters" true
    (fp "R(_x,_x)" <> fp "R(_x,_y)")

(* ---- the LRU --------------------------------------------------------- *)

let test_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" ~cost_ms:1.0 1;
  Cache.add c "b" ~cost_ms:1.0 2;
  check "a hits" true (Cache.find c "a" = Some (1, 1.0));
  (* a was promoted, so b is now least recently used *)
  Cache.add c "c" ~cost_ms:1.0 3;
  check "b evicted" true (Cache.find c "b" = None);
  check "a survives" true (Cache.find c "a" = Some (1, 1.0));
  check "c present" true (Cache.find c "c" = Some (3, 1.0));
  Alcotest.(check int) "size at capacity" 2 (Cache.size c);
  let t = Cache.totals c in
  Alcotest.(check int) "hits" 3 t.Cache.hits;
  Alcotest.(check int) "misses" 1 t.Cache.misses;
  Alcotest.(check int) "evictions" 1 t.Cache.evictions

let test_lru_refresh_and_bypass () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" ~cost_ms:1.0 1;
  Cache.add c "a" ~cost_ms:2.0 10;
  check "refresh replaces value and cost" true
    (Cache.find c "a" = Some (10, 2.0));
  Alcotest.(check int) "refresh does not grow" 1 (Cache.size c);
  Cache.bypass c;
  Alcotest.(check int) "bypass counted" 1 (Cache.totals c).Cache.bypasses;
  Cache.clear c;
  check "cleared" true (Cache.find c "a" = None);
  Alcotest.(check int) "totals survive clear" 1
    (Cache.totals c).Cache.bypasses

let test_lru_zero_capacity () =
  let c = Cache.create ~capacity:0 () in
  Cache.add c "a" ~cost_ms:1.0 1;
  check "stores nothing" true (Cache.find c "a" = None);
  Alcotest.(check int) "size stays 0" 0 (Cache.size c)

let test_footprint_invalidation () =
  let module Footprint = Certdb_analysis.Footprint in
  let fp_of q = Footprint.of_cq q in
  let v x = Fo.Var x in
  (* reads R; reads S -- footprints over disjoint relations *)
  let fp_r = fp_of (Cq.boolean [ ("R", [ v "x"; v "x" ]) ]) in
  let fp_s = fp_of (Cq.boolean [ ("S", [ v "x"; v "x" ]) ]) in
  let c = Cache.create ~capacity:8 () in
  Cache.add c "q_r" ~footprint:fp_r ~cost_ms:1.0 1;
  Cache.add c "q_s" ~footprint:fp_s ~cost_ms:1.0 2;
  Cache.add c "q_blind" ~cost_ms:1.0 3;
  (* a touch on R drops the R reader and the footprint-less entry
     (conservatively), while the disjoint S reader survives *)
  let dropped = Cache.invalidate c (Footprint.touch_rel "R") in
  Alcotest.(check int) "two entries invalidated" 2 dropped;
  check "overlapping entry gone" true (Cache.find c "q_r" = None);
  check "footprint-less entry gone" true (Cache.find c "q_blind" = None);
  check "disjoint entry survives" true (Cache.find c "q_s" = Some (2, 1.0));
  (* column-level precision: only R.1 is constrained by the join, so a
     touch confined to R.2 leaves the entry alone *)
  let q =
    Cq.make ~head:[ "x" ] [ ("R", [ v "x"; v "y" ]); ("S", [ v "x"; v "z" ]) ]
  in
  Cache.add c "q_col" ~footprint:(fp_of q) ~cost_ms:1.0 4;
  Alcotest.(check int) "free-column touch drops nothing" 0
    (Cache.invalidate c (Footprint.touch_cols "R" [ 1 ]));
  Alcotest.(check int) "constrained-column touch drops it" 1
    (Cache.invalidate c (Footprint.touch_cols "R" [ 0 ]));
  (* key_prefix scopes the sweep to one database's entries *)
  Cache.add c "db1|q" ~footprint:fp_s ~cost_ms:1.0 5;
  Cache.add c "db2|q" ~footprint:fp_s ~cost_ms:1.0 6;
  Alcotest.(check int) "prefix-scoped sweep" 1
    (Cache.invalidate ~key_prefix:"db1|" c (Footprint.touch_rel "S"));
  check "other database untouched" true (Cache.find c "db2|q" = Some (6, 1.0))

(* ---- the server ------------------------------------------------------ *)

let mk_server ?(cache = true) () =
  let config = Server.Config.make ~cache_capacity:(if cache then 64 else 0) () in
  let s = Server.create ~config () in
  (match
     Server.load s ~name:"d" ~source:"R(1,2); R(2,3); R(3,1); R(4,_u); S(1)"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  s

let answer_eq a b =
  match (a, b) with
  | Server.Graded g1, Server.Graded g2 -> g1 = g2
  | Server.Tuples d1, Server.Tuples d2 -> Instance.equal d1 d2
  | _ -> false

(* cached answers always equal freshly computed ones *)
let qcheck_cached_equals_fresh =
  let cached = mk_server () and fresh = mk_server ~cache:false () in
  QCheck.Test.make ~count:300 ~name:"cached answers = fresh answers"
    (QCheck.make ~print:print_atoms gen_atoms)
    (fun atoms ->
      let q = Cq.boolean atoms in
      let eval s =
        match Server.eval_query s ~db:"d" q with
        | Ok (a, _) -> a
        | Error m -> QCheck.Test.fail_reportf "eval failed: %s" m
      in
      let f = eval fresh in
      (* twice through the cached server: miss then (typically) hit *)
      answer_eq (eval cached) f && answer_eq (eval cached) f)

(* One request, three front ends: [Plan.certain], serve's [query] verb on
   a cacheless server, and a batch [certain] row must give the same
   graded answer for every backend, unbudgeted or under a zero node
   budget with one attempt. *)
module Plan = Certdb_analysis.Plan
module Backend = Certdb_sat.Backend
module Resilient = Certdb_csp.Resilient
module Engine = Certdb_csp.Engine

let front_end_db =
  "R(1,2); R(2,1); R(2,3); R(3,2); R(1,3); R(3,1); R(4,_u); S(1)"

let cq_text atoms =
  let term = function
    | Fo.Var x -> "_" ^ x
    | Fo.Val v -> Format.asprintf "%a" Value.pp v
  in
  "ans() :- "
  ^ String.concat ", "
      (List.map
         (fun (rel, args) ->
           rel ^ "(" ^ String.concat "," (List.map term args) ^ ")")
         atoms)

let graded_of_batch_row row =
  match (Wire.str_field "status" row, Wire.str_field "grade" row) with
  | Some "sat", None -> Ok (`Exact true)
  | Some "unsat", None -> Ok (`Exact false)
  | Some "sat", Some "lower-bound" -> Ok (`Lower_bound true)
  | Some "unknown", Some "lower-bound" -> Ok (`Lower_bound false)
  | _ -> Error (Json.to_string row)

let graded_of_serve_row row =
  match (Wire.str_field "grade" row, Json.member "certain" row) with
  | Some "exact", Some (Json.Bool b) -> Ok (`Exact b)
  | Some "lower-bound", Some (Json.Bool b) -> Ok (`Lower_bound b)
  | _ -> Error (Json.to_string row)

let qcheck_front_ends_agree =
  let server =
    Server.create
      ~config:(Server.Config.make ~cache_capacity:0 ~jobs:1 ())
      ()
  in
  (match Server.load server ~name:"d" ~source:front_end_db with
  | Ok _ -> ()
  | Error m -> failwith m);
  let d = Result.get_ok (Wire.parse_instance_result front_end_db) in
  let gen =
    QCheck.Gen.(
      triple
        (oneof
           [
             list_size (int_range 1 8) gen_atom;
             (* dense and loop-free over 4 variables: often a 4-clique,
                which only the hom ladder answers and the triangle
                refutes *)
             list_size (int_range 8 12)
               (map2
                  (fun a k -> ("R", [ var a; var ((a + 1 + k) mod 4) ]))
                  (int_range 0 3) (int_range 0 2));
           ])
        (oneofl [ Backend.Csp; Backend.Sat; Backend.Auto ])
        bool)
  in
  let print (atoms, backend, budgeted) =
    Printf.sprintf "%s backend=%s budgeted=%b" (cq_text atoms)
      (Backend.choice_to_string backend)
      budgeted
  in
  QCheck.Test.make ~count:300 ~name:"front ends agree"
    (QCheck.make ~print gen) (fun (atoms, backend, budgeted) ->
      let text = cq_text atoms in
      let q = Result.get_ok (Wire.parse_cq_result text) in
      let limits, policy, budget_fields =
        if budgeted then
          ( Engine.Limits.make ~nodes:0 (),
            Resilient.Policy.make ~max_attempts:1 (),
            [ ("node_budget", Json.Int 0); ("max_attempts", Json.Int 1) ] )
        else (Engine.Limits.unlimited, Resilient.Policy.default, [])
      in
      let request op fields =
        Json.to_string
          (Json.Obj
             ([
                ("op", Json.String op);
                ("query", Json.String text);
                ("backend", Json.String (Backend.choice_to_string backend));
              ]
             @ fields @ budget_fields))
      in
      let planned = Plan.certain ~policy ~limits ~backend q d in
      let served =
        graded_of_serve_row
          (fst
             (Server.handle_line server ~idx:0
                (request "query" [ ("db", Json.String "d") ])))
      in
      let batched =
        graded_of_batch_row
          (Wire.run_task ~policy
             ( 0,
               Wire.parse_task 0
                 (request "certain" [ ("d", Json.String front_end_db) ]) ))
      in
      match (served, batched) with
      | Ok s, Ok b when s = planned && b = planned -> true
      | Ok _, Ok _ -> QCheck.Test.fail_report "front ends disagree"
      | Error row, _ | _, Error row ->
        QCheck.Test.fail_reportf "unexpected row %s" row)

(* One deadline per request: the 10-clique query over the complete graph
   K9 needs far longer than 100 ms to refute, so the ladder's first
   attempt spends the whole timeout and nothing starts after it — no
   retry and no unbudgeted last rung.  Each front end must answer the
   empty lower bound well inside 500 ms of wall time. *)
let clique_text n =
  String.concat ", "
    (List.concat
       (List.init n (fun i ->
            List.init (n - i - 1) (fun k ->
                Printf.sprintf "E(_x%d,_x%d)" i (i + k + 1)))))

let complete_graph_text n =
  String.concat "; "
    (List.concat
       (List.init n (fun i ->
            List.filter_map
              (fun j ->
                if i = j then None else Some (Printf.sprintf "E(%d,%d)" i j))
              (List.init n Fun.id))))

let test_starved_ladder_keeps_deadline () =
  let text = "ans() :- " ^ clique_text 10 in
  let db = complete_graph_text 9 in
  let q = Result.get_ok (Wire.parse_cq_result text) in
  let d = Result.get_ok (Wire.parse_instance_result db) in
  let policy = Resilient.Policy.make ~max_attempts:3 () in
  let limits = Engine.Limits.make ~timeout_ms:100. () in
  let server =
    Server.create
      ~config:(Server.Config.make ~cache_capacity:0 ~jobs:1 ~policy ())
      ()
  in
  (match Server.load server ~name:"d" ~source:db with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let request op fields =
    Json.to_string
      (Json.Obj
         ([ ("op", Json.String op); ("query", Json.String text) ]
         @ fields
         @ [ ("timeout_ms", Json.Float 100.); ("max_attempts", Json.Int 3) ]))
  in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let answer = f () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    check (name ^ " answers the empty lower bound") true
      (answer = Ok (`Lower_bound false));
    if ms >= 500. then Alcotest.failf "%s took %.0f ms (limit 500)" name ms
  in
  timed "Plan.certain" (fun () -> Ok (Plan.certain ~policy ~limits q d));
  timed "serve query" (fun () ->
      graded_of_serve_row
        (fst
           (Server.handle_line server ~idx:0
              (request "query" [ ("db", Json.String "d") ]))));
  timed "batch certain" (fun () ->
      graded_of_batch_row
        (Wire.run_task ~policy
           (0, Wire.parse_task 0 (request "certain" [ ("d", Json.String db) ]))))

(* Components share one deadline: four disjoint transitive 10-tournaments
   over K9 route to the components plan, and the engine solves them one
   at a time under the request's one budget, so 100 ms for one attempt
   answers the empty lower bound well inside 250 ms — through the
   planner, and through serve's [query] verb at [jobs] 1 and at the
   default [jobs].  The servers run with their cache on: the cache key
   (the core is one tournament, which refinement labels without
   branching) costs a few milliseconds before the deadline starts. *)
let test_components_share_deadline () =
  let copy k =
    String.concat ", "
      (List.concat
         (List.init 10 (fun i ->
              List.init (10 - i - 1) (fun m ->
                  Printf.sprintf "E(_c%d_%d,_c%d_%d)" k i k (i + m + 1)))))
  in
  let text = "ans() :- " ^ String.concat ", " (List.init 4 copy) in
  let db = complete_graph_text 9 in
  let q = Result.get_ok (Wire.parse_cq_result text) in
  let d = Result.get_ok (Wire.parse_instance_result db) in
  check "routed to the components plan" true
    ((Plan.route_cq q).Plan.route = Plan.Components 4);
  let policy = Resilient.Policy.make ~max_attempts:1 () in
  let limits = Engine.Limits.make ~timeout_ms:100. () in
  let request =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "query");
           ("query", Json.String text);
           ("db", Json.String "d");
           ("timeout_ms", Json.Float 100.);
           ("max_attempts", Json.Int 1);
         ])
  in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let answer = f () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    check (name ^ " answers the empty lower bound") true
      (answer = Ok (`Lower_bound false));
    if ms >= 250. then Alcotest.failf "%s took %.0f ms (limit 250)" name ms
  in
  timed "Plan.certain" (fun () -> Ok (Plan.certain ~policy ~limits q d));
  List.iter
    (fun (name, config) ->
      let server = Server.create ~config () in
      (match Server.load server ~name:"d" ~source:db with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      timed name (fun () ->
          graded_of_serve_row (fst (Server.handle_line server ~idx:0 request))))
    [
      ("serve query, jobs 1", Server.Config.make ~jobs:1 ());
      ("serve query, default jobs", Server.Config.make ());
    ]

(* A cancelled batch [certain] row is not a graded answer: like a
   cancelled [leq] or [member] row it answers [unknown] with the reason
   [cancelled]. *)
let test_cancelled_certain_row () =
  let cancel = Engine.Cancel.create () in
  Engine.Cancel.cancel cancel;
  let line =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "certain");
           ("query", Json.String ("ans() :- " ^ clique_text 4));
           ("d", Json.String (complete_graph_text 5));
         ])
  in
  let row =
    Wire.run_task ~policy:Resilient.Policy.default
      (0, Wire.parse_task ~cancel 0 line)
  in
  check "status unknown" true (Wire.str_field "status" row = Some "unknown");
  check "reason cancelled" true
    (Wire.str_field "reason" row = Some "cancelled");
  check "no grade" true (Wire.str_field "grade" row = None)

(* the bounded-width search runs under the request deadline too: the
   5-cycle (width 2) over the complete bipartite digraph K(50,50) has no
   homomorphism, and refuting it visits every (bag, separator values)
   pair; 1 ms of solver time must answer the empty lower bound long
   before that *)
let test_dp_keeps_deadline () =
  let n = 50 in
  let text = "ans() :- E(_x0,_x1), E(_x1,_x2), E(_x2,_x3), E(_x3,_x4), E(_x4,_x0)" in
  let db =
    String.concat "; "
      (List.concat
         (List.init n (fun a ->
              List.concat
                (List.init n (fun b ->
                     [
                       Printf.sprintf "E(%d,%d)" a (n + b);
                       Printf.sprintf "E(%d,%d)" (n + b) a;
                     ])))))
  in
  let q = Result.get_ok (Wire.parse_cq_result text) in
  let d = Result.get_ok (Wire.parse_instance_result db) in
  check "routed to the bounded-width search" true
    ((Plan.route_cq q).Plan.route = Plan.Bounded_width 2);
  let timed f =
    let t0 = Unix.gettimeofday () in
    let answer = f () in
    (answer, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let unlimited, full_ms = timed (fun () -> Plan.certain q d) in
  check "unlimited search refutes" true (unlimited = `Exact false);
  let server =
    Server.create ~config:(Server.Config.make ~cache_capacity:0 ~jobs:1 ()) ()
  in
  (match Server.load server ~name:"d" ~source:db with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let request =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "query");
           ("query", Json.String text);
           ("db", Json.String "d");
           ("timeout_ms", Json.Float 1.);
         ])
  in
  let budgeted name f =
    let answer, ms = timed f in
    check (name ^ " answers the empty lower bound") true
      (answer = Ok (`Lower_bound false));
    if ms >= full_ms /. 2. then
      Alcotest.failf "%s took %.1f ms (unlimited: %.1f ms)" name ms full_ms
  in
  budgeted "Plan.certain" (fun () ->
      Ok (Plan.certain ~limits:(Engine.Limits.make ~timeout_ms:1. ()) q d));
  budgeted "serve query" (fun () ->
      graded_of_serve_row
        (fst (Server.handle_line server ~idx:0 request)))

(* [explain] on a SAT-route request: the CDCL's decisions and
   conflicts are reported under labels of their own, each the delta of
   its csp.sat.* counter, next to the engine's nodes and dead ends,
   which the CDCL's conflicts do not bump.  The 4-clique (both edge
   directions) into K3 is pigeonhole-shaped, so the refutation needs
   both. *)
let test_explain_sat_effort () =
  let s =
    Server.create
      ~config:(Server.Config.make ~cache_capacity:0 ~jobs:1 ())
      ()
  in
  (match Server.load s ~name:"k3" ~source:(complete_graph_text 3) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let clique4 =
    String.concat ", "
      (List.concat_map
         (fun i ->
           List.filter_map
             (fun j ->
               if i = j then None
               else Some (Printf.sprintf "E(_x%d,_x%d)" i j))
             (List.init 4 Fun.id))
         (List.init 4 Fun.id))
  in
  let counter name = Obs.counter_value (Obs.counter name) in
  let names =
    [ "csp.solver.decisions"; "csp.solver.backtracks"; "csp.sat.decisions";
      "csp.sat.conflicts" ]
  in
  let before = List.map counter names in
  let row, _ =
    Server.handle_line s ~idx:0
      (Json.to_string
         (Json.Obj
            [
              ("op", Json.String "query"); ("db", Json.String "k3");
              ("query", Json.String ("ans() :- " ^ clique4));
              ("backend", Json.String "sat"); ("explain", Json.Bool true);
            ]))
  in
  check "refuted" true (Json.member "certain" row = Some (Json.Bool false));
  let trace =
    match Json.member "trace" row with
    | Some t -> t
    | None -> Alcotest.fail "explain:true returned no trace object"
  in
  check "sat route" true
    (Json.member "route" trace = Some (Json.String "sat-backend(4)"));
  let label k =
    match Json.member k trace with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "trace lacks integer %s: %s" k (Json.to_string trace)
  in
  List.iter2
    (fun (k, name) v0 ->
      Alcotest.(check int) k (counter name - v0) (label k))
    (List.combine
       [ "nodes"; "backtracks"; "sat_decisions"; "sat_conflicts" ]
       names)
    before;
  check "CDCL decided" true (label "sat_decisions" > 0);
  check "CDCL conflicted" true (label "sat_conflicts" > 0);
  Alcotest.(check int) "no engine backtracks" 0 (label "backtracks")

let test_server_hit_on_renamed () =
  let s = mk_server () in
  let q1 = Cq.boolean [ ("R", [ var 0; var 1 ]); ("R", [ var 1; var 0 ]) ] in
  let q2 =
    Cq.boolean [ ("R", [ Fo.Var "b"; Fo.Var "a" ]); ("R", [ Fo.Var "a"; Fo.Var "b" ]) ]
  in
  (match Server.eval_query s ~db:"d" q1 with
  | Ok (_, hit) -> check "first is a miss" false hit
  | Error m -> Alcotest.fail m);
  match Server.eval_query s ~db:"d" q2 with
  | Ok (a, hit) ->
    check "renamed+reordered query hits" true hit;
    check "answer is graded" true
      (match a with Server.Graded _ -> true | _ -> false)
  | Error m -> Alcotest.fail m

(* Distinct constants never share a cache line: [Int 5] and [Str "5"]
   print alike, but a query on one must not be answered from the other's
   cached answer, and reloading the database with the other constant
   must change its fingerprint. *)
let test_server_constants_apart () =
  let s = Server.create () in
  let send line = fst (Server.handle_line s ~idx:0 line) in
  let load source =
    send
      (Json.to_string
         (Json.Obj
            [
              ("op", Json.String "load");
              ("name", Json.String "d");
              ("source", Json.String source);
            ]))
  in
  let query ?(no_cache = false) text =
    let row =
      send
        (Json.to_string
           (Json.Obj
              ([ ("op", Json.String "query"); ("db", Json.String "d");
                 ("query", Json.String text) ]
              @ if no_cache then [ ("no_cache", Json.Bool true) ] else [])))
    in
    (Json.member "certain" row, Json.member "cached" row)
  in
  let fp1 = Wire.str_field "fingerprint" (load "R(5)") in
  check "Int 5 certain" true (query "ans() :- R(5)" = (Some (Json.Bool true), Some (Json.Bool false)));
  check "Str 5 is a fresh miss, not certain" true
    (query {|ans() :- R("5")|} = (Some (Json.Bool false), Some (Json.Bool false)));
  check "Str 5 uncached agrees" true
    (fst (query ~no_cache:true {|ans() :- R("5")|}) = Some (Json.Bool false));
  let fp2 = Wire.str_field "fingerprint" (load {|R("5")|}) in
  check "reloading Str 5 changes the fingerprint" true (fp1 <> fp2);
  check "Int 5 no longer certain" true
    (fst (query "ans() :- R(5)") = Some (Json.Bool false))

(* a lower bound is keyed on the budget its search ran under: node
   budget 16 at one attempt and node budget 1 at max_attempts 3 (x4^2)
   buy the same search, so the second request hits the first's entry;
   refuting the 6-clique over K5 takes more than 16 decisions, so both
   trip *)
let test_server_lower_bound_keyed_on_scaled_budget () =
  let s = Server.create ~config:(Server.Config.make ()) () in
  (match Server.load s ~name:"k5" ~source:(complete_graph_text 5) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let q = Result.get_ok (Wire.parse_cq_result ("ans() :- " ^ clique_text 6)) in
  let ask ~nodes ~max_attempts =
    match
      Server.eval_query s ~db:"k5" ~max_attempts
        ~limits:(Engine.Limits.make ~nodes ())
        q
    with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let a1, hit1 = ask ~nodes:16 ~max_attempts:1 in
  check "starved: lower bound" true (answer_eq a1 (Server.Graded (`Lower_bound false)));
  check "first request computes" false hit1;
  let a2, hit2 = ask ~nodes:1 ~max_attempts:3 in
  check "same scaled budget: same entry" true hit2;
  check "same answer" true (answer_eq a1 a2);
  let _, hit3 = ask ~nodes:1 ~max_attempts:2 in
  check "a smaller scaled budget computes afresh" false hit3

let test_server_no_cache_never_hits () =
  let s = mk_server ~cache:false () in
  let q = Cq.boolean [ ("S", [ var 0 ]) ] in
  (match Server.eval_query s ~db:"d" q with
  | Ok (_, hit) -> check "miss without a cache" false hit
  | Error m -> Alcotest.fail m);
  (match Server.eval_query s ~db:"d" q with
  | Ok (_, hit) -> check "still no hit" false hit
  | Error m -> Alcotest.fail m);
  check "no totals without a cache" true (Server.cache_totals s = None)

let test_server_protocol () =
  let s = mk_server () in
  let send line =
    let row, k = Server.handle_line s ~idx:0 line in
    (row, k)
  in
  let field name row =
    match Json.member name row with
    | Some v -> v
    | None -> Alcotest.fail ("missing field " ^ name ^ " in " ^ Json.to_string row)
  in
  let row, _ =
    send "{\"op\":\"query\",\"db\":\"d\",\"query\":\"ans() :- R(_x,_y), R(_y,_x)\"}"
  in
  check "query ok" true (field "status" row = Json.String "ok");
  check "first query not cached" true (field "cached" row = Json.Bool false);
  let row, _ =
    send "{\"op\":\"query\",\"db\":\"d\",\"query\":\"ans() :- R(_p,_q), R(_q,_p)\"}"
  in
  check "renamed query cached" true (field "cached" row = Json.Bool true);
  let row, _ = send "{\"op\":\"query\",\"db\":\"nope\",\"query\":\"ans() :- R(_x,_y)\"}" in
  check "unknown db is an error row" true
    (field "status" row = Json.String "error");
  let row, _ = send "{\"op\":\"frobnicate\"}" in
  check "unknown op is an error row" true
    (field "status" row = Json.String "error");
  let row, _ = send "not json at all" in
  check "bad json is an error row" true
    (field "status" row = Json.String "error");
  let row, k = send "{\"op\":\"shutdown\"}" in
  check "shutdown ok" true (field "status" row = Json.String "ok");
  check "shutdown stops the loop" true (k = `Shutdown)

let test_server_batch_verb () =
  let s = mk_server () in
  let row, _ =
    Server.handle_line s ~idx:0
      "{\"op\":\"batch\",\"requests\":[{\"db\":\"d\",\"query\":\"ans() :- \
       S(_x)\"},{\"db\":\"d\",\"query\":\"ans() :- S(_y)\"},{\"db\":\"d\",\"query\":\"ans() \
       :- Missing(_x)\"}]}"
  in
  (match Json.member "results" row with
  | Some (Json.List [ r1; r2; r3 ]) ->
    check "first miss" true (Json.member "cached" r1 = Some (Json.Bool false));
    (* requests in one batch are admitted before any compute, so an
       in-batch duplicate cannot hit the cache yet *)
    check "in-batch duplicate also misses" true
      (Json.member "cached" r2 = Some (Json.Bool false));
    check "absent relation is certain-false, not an error" true
      (Json.member "certain" r3 = Some (Json.Bool false))
  | _ -> Alcotest.fail ("bad batch response: " ^ Json.to_string row));
  (* but the batch stored its results: a follow-up single query hits *)
  let row, _ =
    Server.handle_line s ~idx:1
      "{\"op\":\"query\",\"db\":\"d\",\"query\":\"ans() :- S(_z)\"}"
  in
  check "batch results serve later queries" true
    (Json.member "cached" row = Some (Json.Bool true))

(* wire syntax round-trips *)
let test_wire_parse () =
  (match Wire.parse_cq_result "ans(_x) :- R(_x,_y), S(_y)" with
  | Ok q ->
    Alcotest.(check int) "two atoms" 2 (List.length q.Cq.atoms);
    Alcotest.(check (list string)) "head" [ "x" ] q.Cq.head
  | Error m -> Alcotest.fail m);
  check "missing turnstile rejected" true
    (Result.is_error (Wire.parse_cq_result "R(_x,_y)"));
  check "head var must occur" true
    (Result.is_error (Wire.parse_cq_result "ans(_z) :- R(_x,_y)"))

(* ---- bounded line IO -------------------------------------------------- *)

let with_string_ic s f =
  let path = Filename.temp_file "certdb-wire" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
      In_channel.with_open_bin path f)

let test_input_line_bounded () =
  with_string_ic "short\nx\n" (fun ic ->
      (match Wire.input_line_bounded ~max:16 ic with
      | `Line "short" -> ()
      | _ -> Alcotest.fail "expected `Line short");
      match Wire.input_line_bounded ~max:16 ic with
      | `Line "x" -> ()
      | _ -> Alcotest.fail "expected `Line x");
  (* an oversized line is drained to its newline: the next read is the
     following line, in sync *)
  with_string_ic (String.make 100 'a' ^ "\nafter\n") (fun ic ->
      (match Wire.input_line_bounded ~max:16 ic with
      | `Oversized n -> Alcotest.(check int) "drained total" 100 n
      | _ -> Alcotest.fail "expected `Oversized");
      match Wire.input_line_bounded ~max:16 ic with
      | `Line "after" -> ()
      | _ -> Alcotest.fail "expected `Line after");
  (* a partial final line without a newline is still a line; then EOF *)
  with_string_ic "partial" (fun ic ->
      (match Wire.input_line_bounded ~max:16 ic with
      | `Line "partial" -> ()
      | _ -> Alcotest.fail "expected `Line partial");
      match Wire.input_line_bounded ~max:16 ic with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected `Eof")

let test_fd_reader () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let reader = Wire.Fd_reader.create a in
      (* two pipelined lines arrive as two reads *)
      (match Wire.write_raw b "one\ntwo\n" with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (match Wire.Fd_reader.read_line ~timeout_ms:1000.0 ~max:64 reader with
      | `Line "one" -> ()
      | _ -> Alcotest.fail "expected `Line one");
      (match Wire.Fd_reader.read_line ~timeout_ms:1000.0 ~max:64 reader with
      | `Line "two" -> ()
      | _ -> Alcotest.fail "expected `Line two");
      (* nothing pending: the deadline fires *)
      (match Wire.Fd_reader.read_line ~timeout_ms:50.0 ~max:64 reader with
      | `Timeout -> ()
      | _ -> Alcotest.fail "expected `Timeout");
      (* a pre-set stop flag interrupts instead of timing out *)
      let stop = Atomic.make true in
      (match
         Wire.Fd_reader.read_line ~timeout_ms:5000.0 ~stop ~max:64 reader
       with
      | `Stopped -> ()
      | _ -> Alcotest.fail "expected `Stopped");
      (* oversized, then back in sync *)
      (match Wire.write_raw b (String.make 200 'z' ^ "\nok\n") with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (match Wire.Fd_reader.read_line ~timeout_ms:1000.0 ~max:64 reader with
      | `Oversized n -> Alcotest.(check int) "drained total" 200 n
      | _ -> Alcotest.fail "expected `Oversized");
      (match Wire.Fd_reader.read_line ~timeout_ms:1000.0 ~max:64 reader with
      | `Line "ok" -> ()
      | _ -> Alcotest.fail "expected `Line ok");
      (* a partial line at socket EOF is a torn request, not a line *)
      (match Wire.write_raw b "torn-frame-no-newline" with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      Unix.close b;
      match Wire.Fd_reader.read_line ~timeout_ms:1000.0 ~max:64 reader with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected `Eof for torn frame")

let test_row_shapes () =
  (match Json.Obj (Wire.overloaded_fields ~retry_after_ms:75.0) with
  | j ->
    check "overloaded status" true
      (Wire.str_field "status" j = Some "overloaded");
    check "hint present" true
      (Wire.float_field "retry_after_ms" j = Some 75.0));
  let j = Server.oversized_row ~idx:3 ~max:256 in
  check "oversized id" true (Wire.str_field "id" j = Some "line-3");
  check "oversized message" true
    (Wire.str_field "error" j = Some "request line exceeds 256 bytes")

(* ---- prepared targets -------------------------------------------------- *)

module Hom = Certdb_relational.Hom

let targets = Obs.counter "relational.hom.targets"

(* the serve benchmark's query families, anchored at constant [a] *)
let family_atoms family a =
  let pairs k f =
    List.concat_map
      (fun i -> List.filter_map (fun j -> f i j) (List.init k Fun.id))
      (List.init k Fun.id)
  in
  let path k = List.init k (fun i -> ("R", [ var i; var (i + 1) ])) in
  let tclique ?(base = 0) k =
    pairs k (fun i j ->
        if i < j then Some ("R", [ var (base + i); var (base + j) ]) else None)
  in
  let bclique k =
    pairs k (fun i j -> if i <> j then Some ("R", [ var i; var j ]) else None)
  in
  let anchor = ("R", [ Fo.Val (Value.int a); var 0 ]) in
  anchor
  ::
  (match family with
  | `Path -> path 4
  | `Cycle -> cycle_atoms ~base:0 5
  | `Tclique -> tclique 4
  | `Components -> tclique 4 @ cycle_atoms ~base:4 3
  | `Bclique -> bclique 4
  | `Loop -> [ ("R", [ var 0; var 1 ]); ("R", [ var 1; var 0 ]) ])

(* one query per route: the route each takes is asserted below *)
let route_queries =
  let module Backend = Certdb_sat.Backend in
  [
    ("naive-eval", Backend.Csp, Cq.make ~head:[ "x0" ] (family_atoms `Loop 1));
    ("acyclic-join", Backend.Csp, Cq.boolean (family_atoms `Path 1));
    ("bounded-width(2)", Backend.Csp, Cq.boolean (family_atoms `Cycle 2));
    ("components(2)", Backend.Csp, Cq.boolean (family_atoms `Components 1));
    ("hom-ladder", Backend.Csp, Cq.boolean (family_atoms `Tclique 3));
    ("sat-backend(3)", Backend.Auto, Cq.boolean (family_atoms `Bclique 2));
  ]

let targets_db =
  "R(1,2); R(2,3); R(3,1); R(1,3); R(3,4); R(4,1); R(2,4); R(4,2); \
   R(1,_n0); R(_n0,2); R(3,_n1); R(_n1,_n0)"

(* A load builds its database's one target; no query on any route builds
   another, cache on or off; a reload builds one more *)
let test_targets_built_once () =
  List.iter
    (fun (want, backend, q) ->
      Alcotest.(check string)
        (Format.asprintf "route of %a" Cq.pp q)
        want
        (Plan.route_to_string (Plan.route_cq ~backend q).Plan.route))
    route_queries;
  List.iter
    (fun cache_capacity ->
      let s = Server.create ~config:(Server.Config.make ~cache_capacity ()) () in
      let v0 = Obs.counter_value targets in
      (match Server.load s ~name:"g" ~source:targets_db with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      Alcotest.(check int) "load builds one target" 1
        (Obs.counter_value targets - v0);
      List.iter
        (fun (route, backend, q) ->
          match Server.eval_query s ~db:"g" ~backend q with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "%s: %s" route m)
        route_queries;
      Alcotest.(check int) "queries on every route build none" 1
        (Obs.counter_value targets - v0);
      (match Server.load s ~name:"g" ~source:targets_db with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      Alcotest.(check int) "a reload builds one more" 2
        (Obs.counter_value targets - v0))
    [ 0; 64 ];
  let d = Result.get_ok (Wire.parse_instance_result targets_db) in
  let other = Hom.target (Result.get_ok (Wire.parse_instance_result targets_db)) in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: a target of another instance was used" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (route, backend, (q : Cq.t)) ->
      if q.head = [] then
        raises route (fun () -> ignore (Plan.certain ~backend ~target:other q d))
      else
        raises route (fun () ->
            ignore (Plan.certain_answers ~target:other [ q ] d)))
    route_queries

(* random digraphs over constants and nulls *)
let gen_digraph =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_range 0 3 >>= fun nulls ->
    let node =
      if nulls = 0 then map (Printf.sprintf "%d") (int_range 1 n)
      else
        frequency
          [
            (3, map (Printf.sprintf "%d") (int_range 1 n));
            (1, map (Printf.sprintf "_n%d") (int_range 0 (nulls - 1)));
          ]
    in
    list_size (int_range 1 16) (pair node node) >|= fun edges ->
    String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "R(%s,%s)" a b) edges))

let gen_target_query =
  QCheck.Gen.(
    frequency
      [
        (2, gen_query);
        ( 3,
          map2
            (fun family a ->
              let atoms = family_atoms family a in
              if family = `Loop then Cq.make ~head:[ "x0" ] atoms
              else Cq.boolean atoms)
            (oneofl [ `Path; `Cycle; `Tclique; `Components; `Bclique; `Loop ])
            (int_range 1 6) );
      ])

(* With a target or without, through [Plan] or through the server: the
   same answer on every route *)
let qcheck_target_changes_nothing =
  let module Backend = Certdb_sat.Backend in
  QCheck.Test.make ~count:300 ~name:"a prepared target changes no answer"
    (QCheck.make
       ~print:(fun (src, q) -> Format.asprintf "%s  |  %a" src Cq.pp q)
       QCheck.Gen.(pair gen_digraph gen_target_query))
    (fun (src, q) ->
      let s =
        Server.create ~config:(Server.Config.make ~cache_capacity:0 ()) ()
      in
      let d = Result.get_ok (Server.load s ~name:"g" ~source:src) in
      let target = Hom.target d in
      let served backend =
        match Server.eval_query s ~db:"g" ~backend q with
        | Ok (a, _) -> a
        | Error m -> QCheck.Test.fail_reportf "eval failed: %s" m
      in
      if q.Cq.head <> [] then
        let direct = Plan.certain_answers [ q ] d in
        Instance.equal (Plan.certain_answers ~target [ q ] d) direct
        && answer_eq (served Backend.Csp) (Server.Tuples direct)
      else
        List.for_all
          (fun backend ->
            let direct = Plan.certain ~backend q d in
            Plan.certain ~backend ~target q d = direct
            && answer_eq (served backend) (Server.Graded direct))
          [ Backend.Csp; Backend.Auto ])

(* ---- the symmetric route's oracle ------------------------------------- *)

(* The serve benchmark's symmetric keys, which [Auto] routes to
   [Sat_backend] and answers with the engine's lex-leader search: the
   served answer must equal CDCL's ([certain_cq_via_sat_b]) and the
   reference core's, neither of which the serving path runs.  The
   instances are the benchmark's draws, up to its constant offset. *)
let splitmix s =
  let s = ref (s land 0x3fffffffffffffff) in
  fun bound ->
    s := (!s + 0x1e3779b97f4a7c15) land 0x3fffffffffffffff;
    let z = ref !s in
    z := (!z lxor (!z lsr 30)) * 0x3f58476d1ce4e5b9 land 0x3fffffffffffffff;
    z := (!z lxor (!z lsr 27)) * 0x14d049bb133111eb land 0x3fffffffffffffff;
    z := !z lxor (!z lsr 31);
    !z mod bound

let render facts =
  String.concat "; "
    (List.map
       (fun (rel, ts) ->
         Printf.sprintf "%s(%s)" rel
           (String.concat ","
              (List.map
                 (function `C c -> string_of_int c | `N k -> Printf.sprintf "_n%d" k)
                 ts)))
       facts)

(* miss's "m": 20 constants, out-degree 4, ten edges into five nulls *)
let miss_m =
  let next = splitmix 0x3155 in
  let edges =
    List.concat_map
      (fun a -> List.init 4 (fun _ -> ("R", [ `C (1 + a); `C (1 + next 20) ])))
      (List.init 20 Fun.id)
  in
  let null_edges = List.init 10 (fun k -> ("R", [ `C (1 + next 20); `N (k mod 5) ])) in
  render (edges @ null_edges)

let k5 =
  render
    (List.concat_map
       (fun a ->
         List.filter_map
           (fun b -> if a <> b then Some ("R", [ `C a; `C b ]) else None)
           [ 1; 2; 3; 4; 5 ])
       [ 1; 2; 3; 4; 5 ])

(* churn's first version *)
let churn_c =
  let next = splitmix 0xc4a2 in
  let v () = if next 10 < 8 then `C (1 + next 10) else `N (next 4) in
  let base =
    List.init 30 (fun _ -> ("A", [ v (); v () ]))
    @ List.init 30 (fun _ -> ("B", [ v (); v () ]))
    @ List.init 30 (fun _ -> ("C", [ v (); v (); v () ]))
  in
  render (("A", [ `C 20; `C 21 ]) :: base)

let bclique_atoms ?(rel = "R") k =
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j -> if i <> j then Some (rel, [ var i; var j ]) else None)
        (List.init k Fun.id))
    (List.init k Fun.id)

let test_symmetric_keys_oracle () =
  let module Backend = Certdb_sat.Backend in
  let module Certain = Certdb_query.Certain in
  let anchored ?(rel = "R") a atoms = (rel, [ Fo.Val (Value.int a); var 0 ]) :: atoms in
  let cases =
    List.map
      (fun a -> ("m", Backend.Auto, Cq.boolean (anchored a (bclique_atoms 4))))
      [ 2; 3; 4; 5; 6; 7 ]
    @ List.map
        (fun b -> ("k", b, Cq.boolean (bclique_atoms 6)))
        [ Backend.Auto; Backend.Csp ]
    @ List.map
        (fun a ->
          ( "c", Backend.Auto,
            Cq.boolean (anchored ~rel:"A" a (bclique_atoms ~rel:"A" 4)) ))
        [ 1; 2 ]
  in
  let s = Server.create ~config:(Server.Config.make ~cache_capacity:0 ()) () in
  let dbs = [ ("m", miss_m); ("k", k5); ("c", churn_c) ] in
  List.iter
    (fun (name, source) ->
      match Server.load s ~name ~source with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    dbs;
  let verdict = function
    | `True -> true
    | `False -> false
    | `Unknown _ -> Alcotest.fail "an unlimited oracle gave up"
  in
  let certain = ref 0 in
  List.iter
    (fun (db, backend, q) ->
      let name = Format.asprintf "%s %s: %a" db (Backend.choice_to_string backend) Cq.pp q in
      if backend = Backend.Auto then
        (match (Plan.route_cq ~backend q).Plan.route with
        | Plan.Sat_backend _ -> ()
        | r -> Alcotest.failf "%s routed to %s" name (Plan.route_to_string r));
      let d = Result.get_ok (Wire.parse_instance_result (List.assoc db dbs)) in
      let sat = verdict (Certain.certain_cq_via_sat_b q d) in
      let reference =
        verdict (Certain.certain_cq_via_decider Certdb_csp.Decider.reference q d)
      in
      Alcotest.(check bool) (name ^ ": CDCL = reference") reference sat;
      if sat then incr certain;
      match Server.eval_query s ~db ~backend q with
      | Ok (Server.Graded (`Exact b), _) ->
        Alcotest.(check bool) (name ^ ": served = CDCL") sat b
      | Ok _ -> Alcotest.failf "%s: not an exact answer" name
      | Error m -> Alcotest.failf "%s: %s" name m)
    cases;
  (* both verdicts occur among the keys *)
  check "some certain" true (!certain > 0);
  check "some not certain" true (!certain < List.length cases)

let () =
  Alcotest.run "service"
    [
      ( "canon",
        [
          QCheck_alcotest.to_alcotest qcheck_canon_invariant;
          QCheck_alcotest.to_alcotest qcheck_canon_redundant;
          QCheck_alcotest.to_alcotest qcheck_canon_sound;
          Alcotest.test_case "budget gives up" `Quick test_canon_budget;
          Alcotest.test_case "core budget gives up" `Quick
            test_canon_core_budget;
          Alcotest.test_case "core budget is per hom test" `Quick
            test_canon_core_budget_per_test;
          Alcotest.test_case "head variables pinned" `Quick
            test_canon_head_vars;
          Alcotest.test_case "rigid tournaments key" `Quick
            test_canon_tournament;
          Alcotest.test_case "head variables are not constants" `Quick
            test_canon_head_not_constant;
          Alcotest.test_case "constants key apart" `Quick
            test_canon_constants_apart;
          Alcotest.test_case "db fingerprints" `Quick test_fingerprint_stable;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "refresh and bypass" `Quick
            test_lru_refresh_and_bypass;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "footprint invalidation" `Quick
            test_footprint_invalidation;
        ] );
      ( "server",
        [
          QCheck_alcotest.to_alcotest qcheck_cached_equals_fresh;
          QCheck_alcotest.to_alcotest qcheck_front_ends_agree;
          Alcotest.test_case "starved ladder keeps its deadline" `Quick
            test_starved_ladder_keeps_deadline;
          Alcotest.test_case "bounded-width DP keeps its deadline" `Quick
            test_dp_keeps_deadline;
          Alcotest.test_case "components share one deadline" `Quick
            test_components_share_deadline;
          Alcotest.test_case "cancelled batch certain row" `Quick
            test_cancelled_certain_row;
          Alcotest.test_case "explain reports CDCL effort" `Quick
            test_explain_sat_effort;
          Alcotest.test_case "symmetric keys match CDCL and the reference"
            `Quick test_symmetric_keys_oracle;
          Alcotest.test_case "hit on renamed query" `Quick
            test_server_hit_on_renamed;
          Alcotest.test_case "lower bound keyed on the scaled budget" `Quick
            test_server_lower_bound_keyed_on_scaled_budget;
          Alcotest.test_case "no cache, no hits" `Quick
            test_server_no_cache_never_hits;
          Alcotest.test_case "constants of two types never share a line"
            `Quick test_server_constants_apart;
          Alcotest.test_case "protocol rows" `Quick test_server_protocol;
          Alcotest.test_case "batch verb" `Quick test_server_batch_verb;
          Alcotest.test_case "wire CQ syntax" `Quick test_wire_parse;
          Alcotest.test_case "one target per loaded database" `Quick
            test_targets_built_once;
          QCheck_alcotest.to_alcotest qcheck_target_changes_nothing;
        ] );
      ( "wire",
        [
          Alcotest.test_case "bounded channel reads" `Quick
            test_input_line_bounded;
          Alcotest.test_case "fd reader deadlines and sync" `Quick
            test_fd_reader;
          Alcotest.test_case "overloaded and oversized rows" `Quick
            test_row_shapes;
        ] );
    ]
