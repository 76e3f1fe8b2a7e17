(* The traced run: per-layer numbers taken from outside the program.

   1. A short socket phase (as in the timed run) gives the client's
      median latency, for the supervisor remainder.
   2. Server pass: the same seeded stream — loads, warm-up, then a fixed
      number of timed requests — through an in-process [Server] built
      as [certdb serve] builds it, one [Server.handle_line] per request,
      timed, responses checked against the oracle and cache model.  The
      program's own Obs counters are read after this pass.
   3. Layered pass: the stream again, through the layers' public
      functions called in [Server]'s order, each call wrapped in a span
      recorded by this file (name, start, end, parent, request id).  Its
      answers and cache dispositions must equal the server pass's.
   4. Untraced layered pass: the same calls with span recording off;
      its wall time against pass 3's gives the tracing overhead. *)

module Obs = Certdb_obs.Obs
module Json = Obs.Json
module Server = Certdb_service.Server
module Wire = Certdb_service.Wire
module Canon = Certdb_service.Canon
module Cache = Certdb_service.Cache
module Plan = Certdb_analysis.Plan
module Footprint = Certdb_analysis.Footprint
module Engine = Certdb_csp.Engine
module Resilient = Certdb_csp.Resilient
module Backend = Certdb_sat.Backend
module Cq = Certdb_query.Cq
module Ucq = Certdb_query.Ucq
module Instance = Certdb_relational.Instance
module Parse = Certdb_relational.Parse
open Workload

(* ---- spans, kept in memory ------------------------------------------------ *)

type span = { id : int; name : string; start : int; stop : int; parent : int; req : int }

let spans : span list ref = ref []
let recording = ref true
let current_req = ref (-1)
let stack : int list ref = ref []  (* open span ids, innermost first *)
let next_id = ref 0

let with_span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Clock.now_ns () in
    let finish () =
      let stop = Clock.now_ns () in
      stack := List.tl !stack;
      spans := { id; name; start; stop; parent; req = !current_req } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ---- the served configuration --------------------------------------------- *)

(* [certdb serve]'s defaults: one attempt, x4 escalation, unlimited
   default limits, CSP backend *)
let policy = Resilient.Policy.make ~max_attempts:1 ~escalation:4.0 ()

let config (w : Workload.t) =
  Server.Config.make ~cache_capacity:w.cache_capacity ~canon_budget:Canon.default_budget
    ~policy ~default_limits:Engine.Limits.unlimited ~jobs:1 ~backend:Backend.Csp ()

(* what a response says, for pass-to-pass comparison *)
type outcome = { answer : string; cached : bool option }

let outcome_of_row j =
  let s k = match Json.member k j with Some (Json.String v) -> v | _ -> "" in
  let answer =
    match (Json.member "certain" j, Json.member "invalidated" j) with
    | Some (Json.Bool b), _ -> s "grade" ^ ":" ^ string_of_bool b
    | _, Some (Json.Int n) -> "invalidated:" ^ string_of_int n
    | _ -> s "status" ^ ":" ^ s "answers" ^ s "fingerprint"
  in
  { answer; cached = (match Json.member "cached" j with Some (Json.Bool b) -> Some b | _ -> None) }

(* ---- pass 3/4: the layers, called in Server's order ----------------------- *)

type replay = {
  registry : (string, Instance.t * string) Hashtbl.t;
  cache : Server.answer Cache.t;
  memo : string option Cache.t;
}

let new_replay (w : Workload.t) =
  {
    registry = Hashtbl.create 4;
    cache = Cache.create ~namespace:"perfbench.cache" ~capacity:w.cache_capacity ();
    memo = Cache.create ~namespace:"perfbench.canon" ~capacity:(4 * w.cache_capacity) ();
  }

let field f k j = Option.get (f k j)

let answer_fields a ~cached =
  let status = ("status", Json.String "ok") in
  (match a with
  | Server.Graded g ->
    let grade, b = match g with `Exact b -> ("exact", b) | `Lower_bound b -> ("lower-bound", b) in
    [ status; ("grade", Json.String grade); ("certain", Json.Bool b) ]
  | Server.Tuples d ->
    [ status; ("grade", Json.String "exact"); ("answers", Json.String (Parse.to_string d)) ])
  @ [ ("cached", Json.Bool cached) ]

let solve_route = ref ""

let query_layers rp j =
  let db = field Wire.str_field "db" j and qs = field Wire.str_field "query" j in
  let backend =
    match Wire.str_field "backend" j with
    | None -> Backend.Csp
    | Some b -> Option.get (Backend.choice_of_string b)
  in
  let no_cache = Option.value (Wire.bool_field "no_cache" j) ~default:false in
  let limits = Wire.limits_of_json j in
  let instance, fp = Hashtbl.find rp.registry db in
  let parse () = with_span "wire.parse_cq" (fun () -> Result.get_ok (Wire.parse_cq_result qs)) in
  let key, q =
    if no_cache then begin
      Cache.bypass rp.cache;
      (None, None)
    end
    else
      match with_span "cache.memo_find" (fun () -> Cache.find rp.memo qs) with
      | Some (ck, _) -> (ck, None)
      | None ->
        let q = parse () in
        let ck = with_span "canon.key" (fun () -> Canon.cq_key ~budget:Canon.default_budget q) in
        with_span "cache.memo_add" (fun () -> Cache.add rp.memo qs ~cost_ms:0.0 ck);
        if ck = None then Cache.bypass rp.cache;
        (ck, Some q)
  in
  let key = Option.map (fun ck -> fp ^ "|" ^ ck) key in
  let hit =
    match key with
    | None -> None
    | Some k -> with_span "cache.find" (fun () -> Option.map fst (Cache.find rp.cache k))
  in
  match hit with
  | Some a -> answer_fields a ~cached:true
  | None ->
    let q = match q with Some q -> q | None -> parse () in
    let route =
      with_span "plan.route" (fun () -> (Plan.route_cq ~backend q).Plan.route)
    in
    let rname = Prep.route_name route in
    solve_route := rname;
    let c0 = Clock.now_ns () in
    let a =
      with_span ("solve." ^ rname) (fun () ->
          if q.Cq.head = [] then
            Server.Graded (Plan.certain ~policy ~limits ~jobs:1 ~backend q instance)
          else Server.Tuples (Plan.certain_answers (Ucq.make [ q ]) instance))
    in
    let cost_ms = float_of_int (Clock.now_ns () - c0) /. 1e6 in
    (match (key, a) with
    | Some k, (Server.Graded (`Exact _) | Server.Tuples _) ->
      with_span "cache.store" (fun () ->
          Cache.add rp.cache k ~footprint:(Footprint.of_cq q) ~cost_ms a)
    | _ -> ());
    answer_fields a ~cached:false

let layered rp line =
  solve_route := "";
  let j = with_span "wire.decode" (fun () -> Json.of_string line) in
  let op = field Wire.str_field "op" j in
  let fields =
    match op with
    | "query" -> query_layers rp j
    | "invalidate" ->
      let rel = field Wire.str_field "rel" j in
      let touch =
        match Wire.int_list_field "cols" j with
        | None -> Footprint.touch_rel rel
        | Some cols -> Footprint.touch_cols rel (List.map (fun c -> c - 1) cols)
      in
      let key_prefix =
        Option.map (fun db -> snd (Hashtbl.find rp.registry db) ^ "|") (Wire.str_field "db" j)
      in
      let n = with_span "cache.invalidate" (fun () -> Cache.invalidate ?key_prefix rp.cache touch) in
      [ ("status", Json.String "ok"); ("rel", Json.String rel); ("invalidated", Json.Int n) ]
    | "load" ->
      let name = field Wire.str_field "name" j and source = field Wire.str_field "source" j in
      let d = with_span "load.parse" (fun () -> Result.get_ok (Wire.parse_instance_result source)) in
      let fp = with_span "canon.fingerprint" (fun () -> Canon.db_fingerprint d) in
      Hashtbl.replace rp.registry name (d, fp);
      [ ("status", Json.String "ok"); ("name", Json.String name); ("fingerprint", Json.String fp) ]
    | other -> failwith ("replay: unsupported op " ^ other)
  in
  with_span "wire.encode" (fun () ->
      let row = Wire.row ~idx:0 ~id:"0" ~op fields in
      (row, Json.to_string row))

(* the span log, written once the replay is over *)
let write_spans path all =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "req\tid\tparent\tname\tstart_ns\tdur_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.req s.id s.parent s.name s.start
            (s.stop - s.start))
        (List.rev all))

(* ---- statistics helpers ----------------------------------------------------- *)

let pct l p =
  let a = Array.of_list l in
  Array.sort compare a;
  Timed.percentile a p /. 1e6

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let routes = [ "naive_eval"; "acyclic_join"; "bounded_width"; "components"; "hom_ladder"; "sat" ]

let replay_lengths = function
  | "hit" -> 40_000
  | "miss" -> 1_200
  | "deadline" -> 400
  | _ (* churn *) -> 8_000

let run_cmd ~(w : Workload.t) ~certdb ~seconds =
  let ctx, _ = Prep.context w ~certdb in
  (* 1: socket phase, for the client-observed median *)
  let sock = Timed.run ctx ~seconds:(Float.min seconds 5.0) ~setups:1 in
  let client_p50 = Timed.ms_of_ns (Timed.percentile sock.Timed.samples 0.5) in
  let n_timed = replay_lengths w.wname in
  let stream =
    Array.concat
      [ Array.of_list (List.map (fun (db, version) -> Load { db; version }) w.dbs);
        w.warmup; Array.init n_timed w.timed ]
  in
  let first_timed = Array.length stream - n_timed in
  let lines = Array.map ctx.Timed.line stream in
  (* 2: server pass *)
  Obs.reset ();
  let server = Server.create ~config:(config w) () in
  let model = Model.create ~cap:w.cache_capacity w.dbs in
  let tally = Timed.new_tally () in
  let handle = Array.make (Array.length stream) 0 in
  let outcomes =
    Array.mapi
      (fun i line ->
        let expect = Model.step model w stream.(i) in
        let a = Clock.now_ns () in
        let row, _ = Server.handle_line server ~idx:i line in
        handle.(i) <- Clock.now_ns () - a;
        ignore
          (Timed.check tally ~oracle:(Timed.oracle_for ctx model) ~expect w stream.(i)
             (Json.to_string row));
        outcome_of_row row)
      lines
  in
  let snap = Obs.snapshot () in
  let count name = Option.value (Obs.find_counter snap name) ~default:0 in
  (* 3: traced layered pass *)
  let rp = new_replay w in
  spans := [];
  recording := true;
  let solved = ref 0 in
  let mismatches = ref [] in
  let t3 = Clock.now_ns () in
  Array.iteri
    (fun i line ->
      current_req := i;
      let row, _ = layered rp line in
      if !solve_route <> "" then incr solved;
      let o = outcome_of_row row in
      let o' = outcomes.(i) in
      if (o.answer, o.cached) <> (o'.answer, o'.cached) && List.length !mismatches < 5 then
        mismatches :=
          Printf.sprintf "request %d: layered %s/%s, server %s/%s" i o.answer
            (Option.fold ~none:"-" ~some:string_of_bool o.cached) o'.answer
            (Option.fold ~none:"-" ~some:string_of_bool o'.cached)
          :: !mismatches)
    lines;
  let traced_ns = Clock.now_ns () - t3 in
  (* 4: untraced layered pass *)
  let rp' = new_replay w in
  recording := false;
  let t4 = Clock.now_ns () in
  Array.iter (fun line -> ignore (layered rp' line)) lines;
  let untraced_ns = Clock.now_ns () - t4 in
  recording := true;
  (* span statistics *)
  let all = !spans in
  let span_log = Printf.sprintf "spans-%s-%d.tsv" w.wname w.seed in
  write_spans span_log all;
  let durs name = List.filter_map (fun s -> if s.name = name then Some (s.stop - s.start) else None) all in
  let p50 name = pct (durs name) 0.5 and p99 name = pct (durs name) 0.99 in
  let attributed = Array.make (Array.length stream) 0 in
  List.iter (fun s -> if s.parent = -1 then attributed.(s.req) <- attributed.(s.req) + (s.stop - s.start)) all;
  let timed_idx = List.init n_timed (fun k -> first_timed + k) in
  let handle_timed = List.map (fun i -> handle.(i)) timed_idx in
  let unattributed = List.map (fun i -> handle.(i) - attributed.(i)) timed_idx in
  let queries = count "service.cache.hit" + count "service.cache.miss" + count "service.cache.bypass" in
  let memo_lookups = count "service.canon.hit" + count "service.canon.miss" in
  let fp_examined = count "service.cache.footprint_hit" + count "service.cache.footprint_skip" in
  let plans = List.fold_left (fun acc r -> acc + count ("query.plan." ^ r)) 0 routes in
  let plan_counter r = if r = "sat" then "query.plan.sat" else "query.plan." ^ r in
  let handle_p50 = pct handle_timed 0.5 in
  let graded = count "query.resilient.exact" + count "query.resilient.degraded" in
  let metrics =
    [
      ("supervisor.remainder_ms_p50", client_p50 -. handle_p50, "ms");
      ("server.handle_ms_p50", handle_p50, "ms");
      ("server.handle_ms_p99", pct handle_timed 0.99, "ms");
      ("server.unattributed_ms_p50", pct unattributed 0.5, "ms");
      ("trace.overhead_frac", (float_of_int traced_ns /. float_of_int untraced_ns) -. 1.0, "fraction");
      ("wire.decode_ms_p50", p50 "wire.decode", "ms");
      ("wire.parse_cq_ms_p50", p50 "wire.parse_cq", "ms");
      ("wire.encode_ms_p50", p50 "wire.encode", "ms");
      ("load.parse_ms_p50", p50 "load.parse", "ms");
      ("canon.key_ms_p50", p50 "canon.key", "ms");
      ("canon.key_ms_p99", p99 "canon.key", "ms");
      ("canon.bypass_frac", per (count "service.cache.bypass") queries, "fraction");
      ("canon.fingerprint_ms_p50", p50 "canon.fingerprint", "ms");
      ("cache.memo_hit_frac", per (count "service.canon.hit") memo_lookups, "fraction");
      ("cache.hit_frac", per (count "service.cache.hit") queries, "fraction");
      ("cache.find_ms_p50", p50 "cache.find", "ms");
      ("cache.evictions_per_req", per (count "service.cache.evict") queries, "count");
      ("cache.invalidate_ms_p50", p50 "cache.invalidate", "ms");
      ("cache.invalidate_kept_frac", per (count "service.cache.footprint_skip") fp_examined, "fraction");
      ("plan.route_ms_p50", p50 "plan.route", "ms");
    ]
    @ List.map (fun r -> (Printf.sprintf "plan.route.%s_frac" r, per (count (plan_counter r)) plans, "fraction")) routes
    @ List.concat_map
        (fun r ->
          [ (Printf.sprintf "solve.%s.ms_p50" r, p50 ("solve." ^ r), "ms");
            (Printf.sprintf "solve.%s.ms_p99" r, p99 ("solve." ^ r), "ms") ])
        routes
    @ [
        ("resilient.attempts_per_req", per (count "csp.resilient.attempts") !solved, "count");
        ("resilient.crossed_per_req", per (count "csp.resilient.crossed") !solved, "count");
        ("resilient.degraded_frac", per (count "query.resilient.degraded") graded, "fraction");
        ("engine.decisions_per_req", per (count "csp.solver.decisions") !solved, "count");
        ("engine.backtracks_per_req", per (count "csp.solver.backtracks") !solved, "count");
        ("hom.nodes_per_req", per (count "rel.hom.nodes") !solved, "count");
        ("sat.conflicts_per_req", per (count "csp.sat.conflicts") !solved, "count");
      ]
  in
  let t = sock.Timed.tally in
  let wrong = t.wrong @ sock.setup_tally.wrong @ sock.stats_errors @ tally.wrong @ List.rev !mismatches in
  let detail =
    Json.Obj
      [
        ("workload", Json.String w.wname);
        ("seed", Json.Int w.seed);
        ("socket_samples", Json.Int (Array.length sock.samples));
        ("client_p50_ms", Json.Float client_p50);
        ("replayed", Json.Int (Array.length stream));
        ("replayed_timed", Json.Int n_timed);
        ("solved", Json.Int !solved);
        ("spans", Json.Int (List.length all));
        ("span_log", Json.String (Filename.concat ".bench_run" span_log));
        ("traced_s", Json.Float (float_of_int traced_ns /. 1e9));
        ("untraced_s", Json.Float (float_of_int untraced_ns /. 1e9));
        ("server_flags", Json.String (String.concat " " (Timed.server_args ~cache_capacity:w.cache_capacity)));
        ("client_cpus", Json.String (fst sock.placement));
        ("server_cpus", Json.String (snd sock.placement));
        ("steal_ms", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) sock.steal_ms));
        ("ocaml", Json.String Sys.ocaml_version);
        ("mismatches", Json.List (List.map (fun s -> Json.String s) wrong));
      ]
  in
  Pb_out.emit ~correct:(wrong = []) ~attempted:(t.attempted + Array.length stream)
    ~failed:(t.failed + tally.failed) ~detail metrics
