(* E22 — the query service's semantic cache: replay a Zipf-skewed stream
   of Boolean and non-Boolean CQs against one loaded database, cache off
   vs cache on.  Every request goes through [Server.handle_line] — the
   honest served path: JSON parse, CQ parse, planner routing, and (cache
   on) core-canonicalisation and the LRU — so the reported latencies are
   end-to-end.  Each shape is replayed under fresh variable names and a
   rotated atom order per occurrence, so cache hits are earned by
   canonicalisation, not string equality.

   Checked invariants (the bench fails on violation):
   - hit/miss totals match the replay schedule exactly: misses = distinct
     query shapes drawn, hits = requests - misses, bypasses = 0;
   - cached answers equal the cache-off answers request by request;
   - the cache-hit path is >= 5x faster at the median than the same
     stream with the cache disabled.

   A last row times [Canon.cq_key] alone on the serve benchmark's six
   miss families (each anchored to a constant as perfbench builds them),
   with their sum, and on the transitive 10-tournament, alone and as four
   copies, and the bidirectional 8- and 10-cliques; every key must come
   out [Some].  Over one key of each family, the gauge
   [bench.canon.core_tests] sums the core searches, one per retraction
   round, 6 in all (every family is a core), and the gauge
   [bench.canon.label_nodes] sums the labeling's tree nodes, 11 in all
   (one per rigid core, 4 for tclique-4+cycle-3, whose 3-cycle has three
   rotations, and 3 for bclique-4, whose class of 3 branches once per
   level); both are deterministic counts.  The gauge
   [bench.service.targets_per_query] is the number of hom targets built
   during both replays' requests, after their loads, per request: the
   server prepares its database once per load, so it reads 0. *)

module Obs = Certdb_obs.Obs
module Json = Obs.Json
module Server = Certdb_service.Server

let requests = 400
let variants = 4

(* ---- query shapes ---------------------------------------------------- *)

let rotate j l =
  let n = List.length l in
  if n = 0 then l
  else
    let j = j mod n in
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split j [] l

(* variant [j] of every shape renames all variables and rotates the atom
   order: hom-equivalent, syntactically disjoint *)
let v j i = Printf.sprintf "_v%d_%d" j i

let atoms_to_query ?(head = "") atoms j =
  Printf.sprintf "ans(%s) :- %s" head (String.concat ", " (rotate j atoms))

let cycle k j =
  atoms_to_query
    (List.init k (fun i -> Printf.sprintf "R(%s,%s)" (v j i) (v j ((i + 1) mod k))))
    j

let path k j =
  atoms_to_query
    (List.init k (fun i -> Printf.sprintf "R(%s,%s)" (v j i) (v j (i + 1))))
    j

let clique k j =
  let ids = List.init k Fun.id in
  atoms_to_query
    (List.concat_map
       (fun a ->
         List.filter_map
           (fun b ->
             if a < b then Some (Printf.sprintf "R(%s,%s)" (v j a) (v j b))
             else None)
           ids)
       ids)
    j

let back_and_forth j =
  atoms_to_query
    [
      Printf.sprintf "R(%s,%s)" (v j 0) (v j 1);
      Printf.sprintf "R(%s,%s)" (v j 1) (v j 0);
    ]
    j

(* one non-Boolean shape: certain answers, cached as an answer set *)
let answers_shape j =
  atoms_to_query ~head:(v j 0)
    [
      Printf.sprintf "R(%s,%s)" (v j 0) (v j 1);
      Printf.sprintf "R(%s,%s)" (v j 1) (v j 0);
    ]
    j

(* popularity rank order: the Zipf head is the expensive hom-ladder work *)
let shapes =
  [
    ("cycle-5", cycle 5); ("clique-4", clique 4); ("cycle-7", cycle 7);
    ("cycle-3", cycle 3); ("answers-2loop", answers_shape);
    ("cycle-4", cycle 4); ("path-6", path 6); ("cycle-6", cycle 6);
    ("back-forth", back_and_forth); ("path-3", path 3);
  ]

(* ---- the replayed stream --------------------------------------------- *)

let instance_src =
  let st = Random.State.make [| 0xe22; 1 |] in
  let value () =
    if Random.State.float st 1.0 < 0.8 then
      string_of_int (1 + Random.State.int st 6)
    else Printf.sprintf "_n%d" (Random.State.int st 6)
  in
  List.init 80 (fun _ -> Printf.sprintf "R(%s,%s)" (value ()) (value ()))
  |> String.concat "; "

(* Zipf over shape ranks (weight 1/rank), uniform over variants *)
let stream =
  let st = Random.State.make [| 0xe22; 2 |] in
  let n = List.length shapes in
  let weights = List.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = List.fold_left ( +. ) 0.0 weights in
  let draw () =
    let x = Random.State.float st total in
    let rec pick r acc = function
      | [] -> n - 1
      | w :: ws -> if x < acc +. w then r else pick (r + 1) (acc +. w) ws
    in
    pick 0 0.0 weights
  in
  List.init requests (fun _ ->
      let shape = draw () in
      let j = Random.State.int st variants in
      let _, mk = List.nth shapes shape in
      ( shape,
        Json.to_string
          (Json.Obj
             [
               ("op", Json.String "query");
               ("db", Json.String "d");
               ("query", Json.String (mk j));
             ]) ))

let distinct_shapes =
  List.sort_uniq compare (List.map fst stream) |> List.length

(* ---- replay ---------------------------------------------------------- *)

(* the per-request observable answer, for the cached = fresh check *)
let answer_of row =
  match (Json.member "certain" row, Json.member "answers" row) with
  | Some (Json.Bool b), _ -> Bool.to_string b
  | _, Some (Json.String s) -> s
  | _ -> failwith ("e22: no answer in " ^ Json.to_string row)

(* hom targets built; the load builds the database's one, and the
   requests after it must build none *)
let targets = Obs.counter "relational.hom.targets"

let replay ~cache =
  Obs.reset ();
  let config =
    Server.Config.make ~cache_capacity:(if cache then 1024 else 0) ()
  in
  let server = Server.create ~config () in
  (match Server.load server ~name:"d" ~source:instance_src with
  | Ok _ -> ()
  | Error m -> failwith ("e22: load failed: " ^ m));
  let loaded = Obs.counter_value targets in
  let answers =
    List.mapi
      (fun idx (_, line) ->
        let row, _ = Server.handle_line server ~idx line in
        match Json.member "status" row with
        | Some (Json.String "ok") -> answer_of row
        | _ -> failwith ("e22: request failed: " ^ Json.to_string row))
      stream
  in
  let built = Obs.counter_value targets - loaded in
  (answers, built, Obs.snapshot (), Server.cache_totals server)

(* ---- canonical keys alone --------------------------------------------- *)

module Canon = Certdb_service.Canon
module Wire = Certdb_service.Wire

let canon_queries =
  let x i = Printf.sprintf "_x%02d" i in
  let edge (a, b) = Printf.sprintf "R(%s,%s)" a b in
  let pairs k f =
    List.concat_map
      (fun a -> List.filter_map (fun b -> f a b) (List.init k Fun.id))
      (List.init k Fun.id)
  in
  let path k = List.init k (fun i -> (x i, x (i + 1))) in
  let cycle ?(base = 0) k =
    List.init k (fun i -> (x (base + i), x (base + ((i + 1) mod k))))
  in
  let tclique ?(base = 0) k =
    pairs k (fun a b -> if a < b then Some (x (base + a), x (base + b)) else None)
  in
  let bclique k = pairs k (fun a b -> if a <> b then Some (x a, x b) else None) in
  let anchored ?(head = "") edges =
    Printf.sprintf "ans(%s) :- %s" head
      (String.concat ", " (Printf.sprintf "R(201,%s)" (x 0) :: List.map edge edges))
  in
  let unanchored edges =
    Printf.sprintf "ans() :- %s" (String.concat ", " (List.map edge edges))
  in
  let family (name, text) = (name, true, text) in
  let tournaments copies =
    unanchored (List.concat_map (fun c -> tclique ~base:(10 * c) 10) copies)
  in
  List.map family
    [
      ("path-4", anchored (path 4));
      ("cycle-5", anchored (cycle 5));
      ("tclique-4", anchored (tclique 4));
      ("tclique-4+cycle-3", anchored (tclique 4 @ cycle ~base:4 3));
      ("bclique-4", anchored (bclique 4));
      ("answers-2loop", anchored ~head:(x 0) [ (x 0, x 1); (x 1, x 0) ]);
    ]
  @ [
      ("tournament-10", false, tournaments [ 0 ]);
      ("tournament-10 x4", false, tournaments [ 0; 1; 2; 3 ]);
      ("bclique-8", false, unanchored (bclique 8));
      ("bclique-10", false, unanchored (bclique 10));
    ]

let canon_row () =
  Bench_util.row "%-20s %-10s %-12s %-12s" "Canon.cq_key" "core tests"
    "label nodes" "us (min of 5)";
  let total_tests = ref 0 and total_nodes = ref 0 and total_us = ref 0. in
  List.iter
    (fun (name, family, text) ->
      let q = Result.get_ok (Wire.parse_cq_result text) in
      let (key, tests), nodes =
        Bench_util.with_counter "service.canon.label_nodes" (fun () ->
            Bench_util.with_counter "service.canon.core_tests" (fun () ->
                Canon.cq_key q))
      in
      if key = None then failwith ("e22: " ^ name ^ " gave up canonicalisation");
      let reps = if family then 200 else 5 in
      let best = ref infinity in
      for _ = 1 to 5 do
        let _, ms =
          Bench_util.time_ms (fun () ->
              for _ = 1 to reps do
                ignore (Canon.cq_key q)
              done)
        in
        best := Float.min !best (ms /. float_of_int reps)
      done;
      let us = 1000. *. !best in
      if family then begin
        total_tests := !total_tests + tests;
        total_nodes := !total_nodes + nodes;
        total_us := !total_us +. us
      end;
      Bench_util.row "%-20s %-10d %-12d %-12.1f" name tests nodes us)
    canon_queries;
  Bench_util.row "%-20s %-10d %-12d %-12.1f" "six families" !total_tests
    !total_nodes !total_us;
  Obs.set_int (Obs.gauge "bench.canon.core_tests") !total_tests;
  Obs.set_int (Obs.gauge "bench.canon.label_nodes") !total_nodes

let timer snap name =
  match Obs.find_timer snap name with
  | Some s -> s
  | None -> failwith ("e22: timer " ^ name ^ " never fired")

let run () =
  Bench_util.banner "E22  Service: semantic cache on a Zipf-skewed replay";
  Bench_util.row "%d requests, %d shapes (%d drawn) x %d renamed variants, %s"
    requests (List.length shapes) distinct_shapes variants
    "Zipf weights 1/rank";
  let answers_off, built_off, snap_off, _ = replay ~cache:false in
  let off = timer snap_off "service.request" in
  let answers_on, built_on, snap_on, totals = replay ~cache:true in
  let on_all = timer snap_on "service.request" in
  let on_hit = timer snap_on "service.request.hit" in
  let totals = Option.get totals in
  Bench_util.row "%-11s %-9s %-9s %-12s %-12s" "run" "hits" "misses"
    "p50(ms)" "p95(ms)";
  Bench_util.row "%-11s %-9d %-9d %-12.4f %-12.4f" "cache-off" 0 requests
    off.Obs.p50_ms off.Obs.p95_ms;
  Bench_util.row "%-11s %-9d %-9d %-12.4f %-12.4f" "cache-on"
    totals.Certdb_service.Cache.hits totals.Certdb_service.Cache.misses
    on_all.Obs.p50_ms on_all.Obs.p95_ms;
  Bench_util.row "%-11s %-9s %-9s %-12.4f %-12.4f" "  hit path" "" ""
    on_hit.Obs.p50_ms on_hit.Obs.p95_ms;
  (* cached answers = fresh answers, request by request *)
  List.iteri
    (fun i (a, b) ->
      if not (String.equal a b) then
        failwith
          (Printf.sprintf "e22: request %d answered %S cached vs %S fresh" i b
             a))
    (List.combine answers_off answers_on);
  Bench_util.row "cached answers = fresh answers on all %d requests" requests;
  (* counters must match the schedule exactly *)
  let expect name got want =
    if got <> want then
      failwith (Printf.sprintf "e22: %s = %d, expected %d" name got want)
  in
  expect "misses" totals.Certdb_service.Cache.misses distinct_shapes;
  expect "hits" totals.Certdb_service.Cache.hits (requests - distinct_shapes);
  expect "bypasses" totals.Certdb_service.Cache.bypasses 0;
  let hit_rate =
    float_of_int totals.Certdb_service.Cache.hits /. float_of_int requests
  in
  let speedup = off.Obs.p50_ms /. on_hit.Obs.p50_ms in
  Bench_util.row "hit rate %.1f%%; median speedup on the hit path: %.1fx"
    (100.0 *. hit_rate) speedup;
  if speedup < 5.0 then
    failwith
      (Printf.sprintf "e22: hit-path speedup %.2fx below the 5x floor" speedup);
  let per_query =
    float_of_int (built_off + built_on) /. float_of_int (2 * requests)
  in
  Bench_util.row "hom targets built by the %d requests after the loads: %d"
    (2 * requests) (built_off + built_on);
  canon_row ();
  Obs.set (Obs.gauge "bench.service.targets_per_query") per_query

let micro () =
  let mk_server cache =
    let config =
      Server.Config.make ~cache_capacity:(if cache then 64 else 0) ()
    in
    let server = Server.create ~config () in
    (match Server.load server ~name:"d" ~source:instance_src with
    | Ok _ -> ()
    | Error m -> failwith m);
    server
  in
  let hot = mk_server true and cold = mk_server false in
  let line j =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "query");
           ("db", Json.String "d");
           ("query", Json.String (cycle 5 j));
         ])
  in
  ignore (Server.handle_line hot ~idx:0 (line 0));
  Bench_util.micro
    [
      ( "e22/serve-hit",
        fun () -> ignore (Server.handle_line hot ~idx:0 (line 1)) );
      ( "e22/serve-nocache",
        fun () -> ignore (Server.handle_line cold ~idx:0 (line 1)) );
    ]
