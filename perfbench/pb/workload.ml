(* The four request streams.  Every stream is a pure function of the
   workload name and the seed: the seed renames query variables, offsets
   every constant (order-preservingly, so instances stay isomorphic and
   solver search trees are unchanged) and drives the stream's draws.
   The shape families and instance structures are fixed, so the cost of
   a stream barely depends on the seed; its text does. *)

type term = V of int | C of int | N of int  (* variable, constant, null *)
type atom = string * term list

(* One query family member.  The shapes a stream sends through the cache
   are pairwise non-equivalent, so each owns one canonical cache key per
   database version (checked in-process before any run). *)
type shape = {
  name : string;
  route : string;  (** the planner route it must take, as in query.plan.* *)
  db : string;
  head : int list;  (** head variable indices; [] = Boolean *)
  atoms : atom list;
  backend : string option;
}

type request =
  | Query of {
      shape : int;  (** index into the workload's shapes *)
      variant : int;  (** which renaming of the shape's variables *)
      timeout_ms : float option;
      no_cache : bool;
    }
  | Invalidate of { rel : string; cols : int list option; db : string }
  | Load of { db : string; version : int }

type t = {
  wname : string;
  seed : int;
  shapes : shape array;
  dbs : (string * int) list;  (** databases loaded at set-up, at version *)
  versions : string -> int -> atom list;  (** facts of a database version *)
  db_versions : (string * int) list;  (** every database and its version count *)
  warmup : request array;
  timed : int -> request;  (** the i-th request of the timed phase *)
  limit_ms : request -> float;  (** latency limit for on_time_frac *)
  cache_capacity : int;
}

let cache_capacity = 64

(* ---- rendering -------------------------------------------------------- *)

let letters n =
  (* two lowercase letters naming the seed's renaming *)
  let n = abs n in
  Printf.sprintf "%c%c"
    (Char.chr (97 + (n mod 26)))
    (Char.chr (97 + (n / 26 mod 26)))

let const_offset seed = 100 * (1 + (abs seed mod 50))

(* variables are zero-padded so their relative order is the same under
   every renaming *)
let var_name ~tag ~variant i = Printf.sprintf "_%s%c%02d" tag (Char.chr (97 + variant)) i

let render_term ~off ~var = function
  | V i -> var i
  | C c -> string_of_int (c + off)
  | N k -> Printf.sprintf "_n%d" k

let render_atom ~off ~var (rel, ts) =
  Printf.sprintf "%s(%s)" rel
    (String.concat "," (List.map (render_term ~off ~var) ts))

let rotate j l =
  let n = List.length l in
  if n = 0 then l
  else
    let j = j mod n in
    List.filteri (fun i _ -> i >= j) l @ List.filteri (fun i _ -> i < j) l

let query_text w s variant =
  let off = const_offset w.seed in
  let var = var_name ~tag:(letters w.seed) ~variant in
  Printf.sprintf "ans(%s) :- %s"
    (String.concat "," (List.map var s.head))
    (String.concat ", " (List.map (render_atom ~off ~var) (rotate variant s.atoms)))

let instance_text w db version =
  let off = const_offset w.seed in
  String.concat "; "
    (List.map (render_atom ~off ~var:(fun _ -> assert false)) (w.versions db version))

let json_str s = Certdb_obs.Obs.Json.(to_string (String s))

(* the request line exactly as the server receives it *)
let line w = function
  | Query { shape; variant; timeout_ms; no_cache } ->
    let s = w.shapes.(shape) in
    String.concat ""
      ([ {|{"op":"query","db":|}; json_str s.db; {|,"query":|};
         json_str (query_text w s variant) ]
      @ (match s.backend with
        | Some b -> [ {|,"backend":|}; json_str b ]
        | None -> [])
      @ (match timeout_ms with
        | Some t -> [ Printf.sprintf {|,"timeout_ms":%g|} t ]
        | None -> [])
      @ (if no_cache then [ {|,"no_cache":true|} ] else [])
      @ [ "}" ])
  | Invalidate { rel; cols; db } ->
    Printf.sprintf {|{"op":"invalidate","rel":%s%s,"db":%s}|} (json_str rel)
      (match cols with
      | None -> ""
      | Some cs ->
        Printf.sprintf {|,"cols":[%s]|}
          (String.concat "," (List.map string_of_int cs)))
      (json_str db)
  | Load { db; version } ->
    Printf.sprintf {|{"op":"load","name":%s,"source":%s}|} (json_str db)
      (json_str (instance_text w db version))

(* ---- query families --------------------------------------------------- *)

let pairs k f =
  List.concat_map
    (fun a -> List.filter_map (fun b -> f a b) (List.init k Fun.id))
    (List.init k Fun.id)

let shift d = List.map (fun (r, ts) -> (r, List.map (function V i -> V (i + d) | t -> t) ts))

let path k = List.init k (fun i -> ("R", [ V i; V (i + 1) ]))
let cycle k = List.init k (fun i -> ("R", [ V i; V ((i + 1) mod k) ]))

(* transitive tournament: the directed k-clique *)
let tclique ?(rel = "R") k =
  pairs k (fun a b -> if a < b then Some (rel, [ V a; V b ]) else None)

(* both directions per pair: one interchangeable class of k variables *)
let bclique ?(rel = "R") k =
  pairs k (fun a b -> if a <> b then Some (rel, [ V a; V b ]) else None)

let shape ?(head = []) ?backend ~db name route atoms =
  { name; route; db; head; atoms; backend }

let auto = "auto"

(* a small deterministic PRNG independent of OCaml's Random, so streams
   are stable across compiler versions *)
let splitmix s =
  let s = ref (s land 0x3fffffffffffffff) in
  fun bound ->
    s := (!s + 0x1e3779b97f4a7c15) land 0x3fffffffffffffff;
    let z = ref !s in
    z := (!z lxor (!z lsr 30)) * 0x3f58476d1ce4e5b9 land 0x3fffffffffffffff;
    z := (!z lxor (!z lsr 27)) * 0x14d049bb133111eb land 0x3fffffffffffffff;
    z := !z lxor (!z lsr 31);
    !z mod bound

(* ---- hit: e22's Zipf stream, every timed request a cache hit ---------- *)

let e22_facts =
  (* the e22 instance: 80 facts over six constants and six nulls *)
  let next = splitmix 0xe22 in
  let value () =
    if next 10 < 8 then C (1 + next 6) else N (next 6)
  in
  List.init 80 (fun _ -> ("R", [ value (); value () ]))

let hit_shapes =
  [|
    shape ~db:"d" "cycle-5" "bounded_width" (cycle 5);
    shape ~db:"d" "clique-4" "hom_ladder" (tclique 4);
    shape ~db:"d" "cycle-7" "bounded_width" (cycle 7);
    shape ~db:"d" "cycle-3" "bounded_width" (cycle 3);
    shape ~db:"d" ~head:[ 0 ] "answers-2loop" "naive_eval"
      [ ("R", [ V 0; V 1 ]); ("R", [ V 1; V 0 ]) ];
    shape ~db:"d" "cycle-4" "bounded_width" (cycle 4);
    shape ~db:"d" "path-6" "acyclic_join" (path 6);
    shape ~db:"d" "cycle-6" "bounded_width" (cycle 6);
    shape ~db:"d" "back-forth" "acyclic_join"
      [ ("R", [ V 0; V 1 ]); ("R", [ V 1; V 0 ]) ];
    shape ~db:"d" "path-3" "acyclic_join" (path 3);
    (* a tournament beside a 3-cycle: neither maps into the other, so the
       core keeps both components *)
    shape ~db:"d" "clique-4+cycle-3" "components" (tclique 4 @ shift 4 (cycle 3));
    shape ~db:"d" ~backend:auto "bclique-4" "sat" (bclique 4);
  |]

let variants_hit = 4

let zipf_draw next n =
  (* weight 1/rank, by inversion over the cumulative weights (scaled ints) *)
  let w = Array.init n (fun r -> 1_000_000 / (r + 1)) in
  let total = Array.fold_left ( + ) 0 w in
  let x = next total in
  let rec pick r acc = if r = n - 1 || x < acc + w.(r) then r else pick (r + 1) (acc + w.(r)) in
  pick 0 0

let hit seed =
  let shapes = hit_shapes in
  let n = Array.length shapes in
  let warmup =
    Array.of_list
      (List.concat_map
         (fun v ->
           List.init n (fun s ->
               Query { shape = s; variant = v; timeout_ms = None; no_cache = false }))
         (List.init variants_hit Fun.id)
      @ [ Invalidate { rel = "Z"; cols = None; db = "d" } ])
  in
  (* the timed stream is drawn in blocks so [timed i] is O(1) and pure *)
  let block = 4096 in
  let cache = Hashtbl.create 8 in
  let block_of b =
    match Hashtbl.find_opt cache b with
    | Some a -> a
    | None ->
      let next = splitmix ((seed * 7919) + b) in
      let a =
        Array.init block (fun _ ->
            let s = zipf_draw next n in
            Query { shape = s; variant = next variants_hit; timeout_ms = None; no_cache = false })
      in
      Hashtbl.replace cache b a;
      a
  in
  {
    wname = "hit";
    seed;
    shapes;
    dbs = [ ("d", 0) ];
    versions = (fun _ _ -> e22_facts);
    db_versions = [ ("d", 1) ];
    warmup;
    timed = (fun i -> (block_of (i / block)).(i mod block));
    limit_ms = (fun _ -> 5.0);
    cache_capacity;
  }

(* ---- miss: a working set larger than the cache and the memo ------------ *)

(* seeded-structure-free random digraphs: the generator's own seed is
   fixed, so every benchmark seed sees an isomorphic instance *)
let random_digraph ~seed ~n ~degree ~null_edges ~nulls =
  let next = splitmix seed in
  let edges =
    List.concat_map
      (fun a -> List.init degree (fun _ -> ("R", [ C (1 + a); C (1 + next n) ])))
      (List.init n Fun.id)
  in
  (* drawn after [edges]: the order the generator is consumed in *)
  let null_edges = List.init null_edges (fun k -> ("R", [ C (1 + next n); N (k mod nulls) ])) in
  edges @ null_edges

(* "m" carries every family but one; "m2", twice as wide, carries the
   bounded-width family, whose ~135 ms solves are the slowest 2.6% of
   the stream: p99 lands in the middle of that mode, and requests that
   long average the host's CPU steal instead of catching single bursts *)
let miss_facts = function
  | "m" -> random_digraph ~seed:0x3155 ~n:20 ~degree:4 ~null_edges:10 ~nulls:5
  | _ -> random_digraph ~seed:0x3155 ~n:40 ~degree:6 ~null_edges:20 ~nulls:8

let anchored a atoms = ("R", [ C a; V 0 ]) :: atoms

(* (family, route, shape of an anchor, backend, database, anchors): the
   anchor constants are fixed, so every seed sees the same per-key costs *)
let range a b = List.init (b - a + 1) (fun i -> a + i)

let miss_families =
  [
    ("path-4", "acyclic_join", (fun a -> anchored a (path 4)), None, "m", range 1 12);
    ("cycle-5", "bounded_width", (fun a -> anchored a (cycle 5)), None, "m2", range 1 2);
    ("tclique-4", "hom_ladder", (fun a -> anchored a (tclique 4)), None, "m", range 1 34);
    ( "tclique-4+cycle-3", "components",
      (fun a -> anchored a (tclique 4 @ shift 4 (cycle 3))), None, "m", range 1 12 );
    ("bclique-4", "sat", (fun a -> anchored a (bclique 4)), Some auto, "m", range 2 7);
    ( "answers-2loop", "naive_eval",
      (fun a -> anchored a [ ("R", [ V 0; V 1 ]); ("R", [ V 1; V 0 ]) ]), None, "m",
      range 1 12 );
  ]

let miss_shapes =
  Array.of_list
    (List.concat_map
       (fun (name, route, build, backend, db, anchors) ->
         List.map
           (fun a ->
             shape ?backend ~db
               ~head:(if route = "naive_eval" then [ 0 ] else [])
               (Printf.sprintf "%s@%d" name a) route (build a))
           anchors)
       miss_families)

let variants_miss = 4

let miss seed =
  let shapes = miss_shapes in
  let k = Array.length shapes in
  (* one seeded permutation of the keys, cycled: reuse distance k keys
     and k * variants texts, both beyond the server's LRUs *)
  let perm = Array.init k Fun.id in
  let next = splitmix (seed * 31 + 7) in
  for i = k - 1 downto 1 do
    let j = next (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let at i =
    Query
      { shape = perm.(i mod k); variant = i / k mod variants_miss;
        timeout_ms = None; no_cache = false }
  in
  {
    wname = "miss";
    seed;
    shapes;
    dbs = [ ("m", 0); ("m2", 0) ];
    versions = (fun db _ -> miss_facts db);
    db_versions = [ ("m", 1); ("m2", 1) ];
    warmup =
      Array.append (Array.init k at)
        [| Invalidate { rel = "Z"; cols = None; db = "m" } |];
    timed = (fun i -> at (i + k));
    (* between the slowest family on m (~25 ms) and the bounded-width
       family on m2 (~135 ms), far from both: those miss it *)
    limit_ms = (fun _ -> 50.0);
    cache_capacity;
  }

(* ---- deadline: budgeted requests on both sides of their deadline ------- *)

let complete_digraph n =
  pairs n (fun a b -> if a <> b then Some ("R", [ C (a + 1); C (b + 1) ]) else None)

let deadline_timeout_ms = 10.0
let deadline_slack_ms = 5.0

let deadline_shapes =
  [|
    shape ~db:"k" "path-4" "acyclic_join" (path 4);
    shape ~db:"k" "cycle-5" "bounded_width" (cycle 5);
    shape ~db:"k" "tclique-4" "hom_ladder" (tclique 4);
    shape ~db:"k" "tclique-4+cycle-3" "components" (tclique 4 @ shift 4 (cycle 3));
    shape ~db:"k" ~head:[ 0 ] "answers-2loop" "naive_eval"
      [ ("R", [ V 0; V 1 ]); ("R", [ V 1; V 0 ]) ];
    (* clique-6 into K5: refuted by pigeonhole.  On csp the ladder trips
       its deadline and degrades; on auto the SAT route refutes it. *)
    shape ~db:"k" ~backend:auto "bclique-6/auto" "sat" (bclique 6);
    shape ~db:"k" "bclique-6/csp" "hom_ladder" (bclique 6);
  |]

let heavy = 6

(* one block: 1 heavy (2.5%), 9 on auto (22.5%), 30 easy (75%) *)
let deadline_block =
  List.concat
    [ [ heavy ]; List.init 9 (fun _ -> 5);
      List.concat_map (fun s -> List.init 6 (fun _ -> s)) [ 0; 1; 2; 3; 4 ] ]

let variants_deadline = 4

let deadline seed =
  let block = Array.of_list deadline_block in
  let n = Array.length block in
  let perm_of b =
    let next = splitmix ((seed * 104729) + b) in
    let a = Array.copy block in
    for i = n - 1 downto 1 do
      let j = next (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let memo = Hashtbl.create 8 in
  let at i =
    let b = i / n in
    let a =
      match Hashtbl.find_opt memo b with
      | Some a -> a
      | None ->
        let a = perm_of b in
        Hashtbl.replace memo b a;
        a
    in
    Query
      { shape = a.(i mod n); variant = b mod variants_deadline;
        timeout_ms = Some deadline_timeout_ms; no_cache = true }
  in
  {
    wname = "deadline";
    seed;
    shapes = deadline_shapes;
    dbs = [ ("k", 0) ];
    versions = (fun _ _ -> complete_digraph 5);
    db_versions = [ ("k", 1) ];
    (* the warm-up also sends each easy shape once unbudgeted and
       cacheable, so canonicalisation and the cache are exercised at
       set-up; budgeted requests bypass them *)
    warmup =
      Array.concat
        [ Array.init 5 (fun s ->
              Query { shape = s; variant = 0; timeout_ms = None; no_cache = false });
          Array.init n at;
          [| Invalidate { rel = "Z"; cols = None; db = "k" } |] ];
    timed = (fun i -> at (i + n));
    limit_ms =
      (function
      | Query { timeout_ms = Some t; _ } -> t +. deadline_slack_ms
      | _ -> 100.0);
    cache_capacity;
  }


(* ---- churn: reads beside invalidations and reloads ---------------------- *)

let churn_base =
  let next = splitmix 0xc4a2 in
  let v () = if next 10 < 8 then C (1 + next 10) else N (next 4) in
  List.init 30 (fun _ -> ("A", [ v (); v () ]))
  @ List.init 30 (fun _ -> ("B", [ v (); v () ]))
  @ List.init 30 (fun _ -> ("C", [ v (); v (); v () ]))

(* version [v] edits one fact, so every version has its own fingerprint *)
let churn_version v = ("A", [ C (20 + v); C (21 + v) ]) :: churn_base

let churn_shapes =
  let fam name route ?head ?backend anchors build =
    List.map
      (fun a -> shape ?head ?backend ~db:"c" (Printf.sprintf "%s@%d" name a) route (build a))
      anchors
  in
  Array.of_list
    (List.concat
       [
         fam "A-B" "acyclic_join" [ 1; 2; 3; 4 ] (fun a ->
             [ ("A", [ C a; V 0 ]); ("B", [ V 0; V 1 ]) ]);
         fam "B-C" "acyclic_join" [ 1; 2; 3; 4 ] (fun a ->
             [ ("B", [ C a; V 0 ]); ("C", [ V 0; V 1; V 2 ]) ]);
         fam "C-A" "acyclic_join" [ 1; 2; 3; 4 ] (fun a ->
             [ ("C", [ C a; V 0; V 1 ]); ("A", [ V 1; V 2 ]) ]);
         fam "A-B-C" "bounded_width" [ 1; 2; 3 ] (fun a ->
             [ ("A", [ V 0; V 1 ]); ("B", [ V 1; V 2 ]); ("C", [ V 2; V 0; C a ]) ]);
         fam "tclique-4/B" "hom_ladder" [ 1; 2; 3 ] (fun a ->
             ("B", [ C a; V 0 ]) :: tclique ~rel:"B" 4);
         fam "tclique-4/B+cycle-3/C" "components" [ 1; 2 ] (fun a ->
             (("B", [ C a; V 0 ]) :: tclique ~rel:"B" 4)
             @ List.map (fun (_, ts) -> ("C", ts @ [ C a ])) (shift 4 (cycle 3)));
         fam "bclique-4/A" "sat" ~backend:auto [ 1; 2 ] (fun a ->
             ("A", [ C a; V 0 ]) :: bclique ~rel:"A" 4);
         fam "answers-A-B" "naive_eval" ~head:[ 0 ] [ 1; 2 ] (fun a ->
             [ ("A", [ C a; V 0 ]); ("B", [ V 0; V 1 ]) ]);
       ])

(* the invalidation slots, cycled: mostly column touches that spare some
   entries, one tuple-level touch, and touches no cached query reads *)
let churn_touches =
  [| ("B", Some [ 2 ]); ("C", Some [ 3 ]); ("Z", None); ("C", Some [ 1 ]);
     ("A", None); ("Z", None); ("B", Some [ 2 ]); ("C", Some [ 2 ]) |]

let churn_invalidate_every = 32
let churn_load_every = 800
let churn_versions = 4

let churn seed =
  let shapes = churn_shapes in
  let n = Array.length shapes in
  let perm = Array.init n Fun.id in
  let next = splitmix ((seed * 131) + 3) in
  for i = n - 1 downto 1 do
    let j = next (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let query i =
    Query { shape = perm.(i mod n); variant = i / n mod 4; timeout_ms = None; no_cache = false }
  in
  let at i =
    if i mod churn_load_every = churn_load_every - 1 then
      Load { db = "c"; version = (1 + (i / churn_load_every)) mod churn_versions }
    else if i mod churn_invalidate_every = churn_invalidate_every - 1 then
      let rel, cols =
        churn_touches.(i / churn_invalidate_every mod Array.length churn_touches)
      in
      Invalidate { rel; cols; db = "c" }
    else query i
  in
  {
    wname = "churn";
    seed;
    shapes;
    dbs = [ ("c", 0) ];
    versions = (fun _ v -> churn_version v);
    db_versions = [ ("c", churn_versions) ];
    warmup =
      Array.init (4 * n) (fun i -> query i);
    timed = at;
    limit_ms = (fun _ -> 50.0);
    cache_capacity;
  }
