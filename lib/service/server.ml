open Certdb_relational
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace
module Openmetrics = Certdb_obs.Openmetrics
module Json = Obs.Json
module Engine = Certdb_csp.Engine
module Resilient = Certdb_csp.Resilient
module Cq = Certdb_query.Cq
module Ucq = Certdb_query.Ucq
module Plan = Certdb_analysis.Plan
module Footprint = Certdb_analysis.Footprint
module Sat_backend = Certdb_sat.Backend

module Config = struct
  type t = {
    cache_capacity : int;
    canon_budget : int;
    policy : Resilient.Policy.t;
    default_limits : Engine.Limits.t;
    jobs : int;
    slow_ms : float option;
    backend : Sat_backend.choice;
  }

  let make ?(cache_capacity = 1024) ?(canon_budget = Canon.default_budget)
      ?(policy = Resilient.Policy.default)
      ?(default_limits = Engine.Limits.unlimited) ?jobs ?slow_ms
      ?(backend = Sat_backend.Csp) () =
    let jobs =
      match jobs with Some j -> max 1 j | None -> Engine.Batch.default_jobs ()
    in
    { cache_capacity; canon_budget; policy; default_limits; jobs; slow_ms;
      backend }

  let default = make ()
end

type answer =
  | Graded of [ `Exact of bool | `Lower_bound of bool ]
  | Tuples of Instance.t

(* [target] is [instance] prepared for hom search, built once per load
   and read by every request against this version; eager, because
   connections run on concurrent domains and a [Lazy.t] forced from two
   of them raises.  A load of the same name replaces the whole entry, so
   the target never outlives its instance. *)
type db_entry = {
  instance : Instance.t;
  fingerprint : string;
  target : Hom.target;
}

type t = {
  config : Config.t;
  registry : (string, db_entry) Hashtbl.t;
  registry_mu : Mutex.t;
      (* the supervisor serves connections on concurrent domains; the
         registry is the one shared table not already guarded (the
         caches carry their own mutex, counters are atomic) *)
  cache : answer Cache.t option;
  memo : string option Cache.t option;
      (* query source text -> canonical key ([None] = canonicalisation
         gave up), so a repeated request string skips parsing, core
         computation and the canonical-labeling search; db-independent,
         bounded by its own LRU under [service.canon] *)
  served : int Atomic.t;
  started_ms : float;
  t_hit : Obs.timer;
  t_miss : Obs.timer;
  c_requests : Obs.counter;
  c_errors : Obs.counter;
  slow_sink : Json.t -> unit;
}

let create ?(config = Config.default)
    ?(slow_sink = fun row -> prerr_endline (Json.to_string row)) () =
  {
    config;
    registry = Hashtbl.create 16;
    registry_mu = Mutex.create ();
    cache =
      (if config.Config.cache_capacity > 0 then
         Some (Cache.create ~capacity:config.Config.cache_capacity ())
       else None);
    memo =
      (if config.Config.cache_capacity > 0 then
         Some
           (Cache.create ~namespace:"service.canon"
              ~capacity:(4 * config.Config.cache_capacity)
              ())
       else None);
    served = Atomic.make 0;
    started_ms = Obs.now_ms ();
    t_hit = Obs.timer "service.request.hit";
    t_miss = Obs.timer "service.request.miss";
    c_requests = Obs.counter "service.requests";
    c_errors = Obs.counter "service.errors";
    slow_sink;
  }

let cache_totals t = Option.map Cache.totals t.cache

let locked t f =
  Mutex.lock t.registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.registry_mu) f

let load_entry t ~name ~source =
  match Wire.parse_instance_result source with
  | Error m -> Error m
  | Ok d ->
    let entry =
      {
        instance = d;
        fingerprint = Canon.db_fingerprint d;
        target = Hom.target d;
      }
    in
    locked t (fun () -> Hashtbl.replace t.registry name entry);
    Ok entry

let load t ~name ~source =
  Result.map (fun e -> e.instance) (load_entry t ~name ~source)

let lookup t db =
  match locked t (fun () -> Hashtbl.find_opt t.registry db) with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "unknown database %S" db)

(* ---- cached evaluation ---------------------------------------------- *)

(* [`Lower_bound] answers depend on the budget that produced them, so
   their cache key carries the budget; [`Exact] answers (and non-Boolean
   answer sets, always exact by Theorem 4) are budget-independent.  The
   key is the budget the search actually runs under, so two requests
   that buy the same search share one lower bound. *)
let limits_sig ?(backend = Sat_backend.Csp) l p =
  let l = Resilient.Policy.scale_limits p l in
  let i = function None -> "-" | Some n -> string_of_int n in
  let f = function None -> "-" | Some x -> Printf.sprintf "%g" x in
  let base =
    Printf.sprintf "b:%s,%s,%s" (i l.Engine.Limits.nodes) (i l.backtracks)
      (f l.timeout_ms)
  in
  (* the default backend adds no suffix; non-default backends
     scope their lower bounds apart (an Exact answer is still shared —
     routing never changes answers, only whether a budget trips) *)
  match backend with
  | Sat_backend.Csp -> base
  | b -> base ^ ";k:" ^ Sat_backend.choice_to_string b

(* a query whose cache lookup missed, ready to compute *)
type pending = {
  p_entry : db_entry;
  p_limits : Engine.Limits.t;
  p_policy : Resilient.Policy.t;
  p_q : Cq.t;
  p_backend : Sat_backend.choice;
  p_plain : string option;  (* where an exact answer is stored *)
  p_scoped : string option;  (* where a lower bound is stored *)
}

(* The one cache lookup.  [canon ()] gives the query's canonical key
   ([None]: canonicalisation gave up, so the request bypasses the cache)
   and is only called when the cache is consulted; [query ()] gives the
   query itself, only needed on a miss.  Lookup order: the plain key
   first — an exact answer cached by anyone is valid under any budget —
   then, for budgeted requests, the budget-scoped key, so a degraded
   answer is only reused by requests imposing the same budget. *)
let find_or_prepare t entry ~limits ~policy ~backend ~no_cache ~canon ~query
    =
  let todo plain scoped =
    Result.map
      (fun q ->
        `Todo
          {
            p_entry = entry;
            p_limits = limits;
            p_policy = policy;
            p_q = q;
            p_backend = backend;
            p_plain = plain;
            p_scoped = scoped;
          })
      (query ())
  in
  match t.cache with
  | None -> todo None None
  | Some cache when no_cache ->
    Cache.bypass cache;
    todo None None
  | Some cache -> (
    match canon () with
    | Error _ as e -> e
    | Ok None ->
      Cache.bypass cache;
      todo None None
    | Ok (Some ck) -> (
      let key = entry.fingerprint ^ "|" ^ ck in
      let scoped =
        if Engine.Limits.is_unlimited limits then None
        else Some (key ^ "|" ^ limits_sig ~backend limits policy)
      in
      match Cache.find cache key with
      | Some (a, _) -> Ok (`Hit a)
      | None -> (
        match Option.bind scoped (Cache.find cache) with
        | Some (a, _) -> Ok (`Hit a)
        | None -> todo (Some key) scoped)))

(* search-effort attribution for [explain], one label per counter:
   [nodes] are the engine's decisions, [backtracks] its dead ends,
   [sat_decisions] and [sat_conflicts] the CDCL's own.  The
   counters are process-global, so the deltas around one evaluation are
   approximate when other requests compute concurrently (the batch
   verb); for the common single-request case they are exact *)
let effort_counters =
  [
    ("nodes", Obs.counter "csp.solver.decisions");
    ("backtracks", Obs.counter "csp.solver.backtracks");
    ("sat_decisions", Obs.counter "csp.sat.decisions");
    ("sat_conflicts", Obs.counter "csp.sat.conflicts");
  ]

let compute_pending p =
  let t0 = Obs.now_ms () in
  let before = List.map (fun (_, c) -> Obs.counter_value c) effort_counters in
  let a =
    if p.p_q.Cq.head = [] then
      Graded
        (Plan.certain ~policy:p.p_policy ~limits:p.p_limits
           ~backend:p.p_backend ~target:p.p_entry.target p.p_q
           p.p_entry.instance)
    else
      Tuples
        (Plan.certain_answers ~target:p.p_entry.target
           (Ucq.make [ p.p_q ]) p.p_entry.instance)
  in
  List.iter2
    (fun (label, c) v0 ->
      Trace.annotate label (string_of_int (Obs.counter_value c - v0)))
    effort_counters before;
  (a, Obs.now_ms () -. t0)

let store t p a ~cost_ms =
  match t.cache with
  | None -> ()
  | Some cache -> (
    (* every entry is scoped by what the query reads, so an update verb
       can invalidate by footprint overlap instead of flushing *)
    let footprint = Footprint.of_cq p.p_q in
    match (a, p.p_plain, p.p_scoped) with
    | (Graded (`Exact _) | Tuples _), Some k, _ ->
      Cache.add cache k ~footprint ~cost_ms a
    | Graded (`Lower_bound _), _, Some k ->
      Cache.add cache k ~footprint ~cost_ms a
    | _ -> ())

(* the one policy override: a request's [max_attempts] *)
let policy_with t max_attempts =
  match max_attempts with
  | None -> t.config.Config.policy
  | Some n ->
    { t.config.Config.policy with Resilient.Policy.max_attempts = max 1 n }

let eval_query t ~db ?limits ?max_attempts ?backend ?(no_cache = false) q =
  let limits = Option.value limits ~default:t.config.Config.default_limits in
  let policy = policy_with t max_attempts in
  let backend = Option.value backend ~default:t.config.Config.backend in
  let canon () = Ok (Canon.cq_key ~budget:t.config.Config.canon_budget q) in
  match lookup t db with
  | Error _ as e -> e
  | Ok entry -> (
    match
      find_or_prepare t entry ~limits ~policy ~backend ~no_cache ~canon
        ~query:(fun () -> Ok q)
    with
    | Error _ as e -> e
    | Ok (`Hit a) -> Ok ((a, true) : answer * bool)
    | Ok (`Todo p) ->
      let a, cost_ms = compute_pending p in
      store t p a ~cost_ms;
      Ok (a, false))

(* ---- request handling ----------------------------------------------- *)

(* Parse the query-shaped fields of [j] and run the cache lookup.  The
   canonical key of the request's query text comes from the [memo] LRU
   when the same text was served before, so the hit path skips CQ
   parsing, core computation and the canonical-labeling search; the
   query is parsed at most once, and only when an evaluation (or a
   fresh canonicalisation) actually needs it. *)
let prepare_request t j =
  let field k =
    Option.to_result (Wire.str_field k j)
      ~none:(Printf.sprintf "missing field %S" k)
  in
  let ( let* ) = Result.bind in
  let* db = field "db" in
  let* qs = field "query" in
  let* entry = lookup t db in
  let* backend = Wire.backend_of_json ~default:t.config.Config.backend j in
  let limits =
    Wire.limits_of_json ~default:t.config.Config.default_limits j
  in
  let policy = policy_with t (Wire.int_field "max_attempts" j) in
  let no_cache = Option.value (Wire.bool_field "no_cache" j) ~default:false in
  let parsed =
    lazy (Result.map_error (( ^ ) "query: ") (Wire.parse_cq_result qs))
  in
  let query () = Lazy.force parsed in
  let canon () =
    match Option.bind t.memo (fun memo -> Cache.find memo qs) with
    | Some (ck, _) -> Ok ck
    | None ->
      Result.map
        (fun q ->
          let ck = Canon.cq_key ~budget:t.config.Config.canon_budget q in
          Option.iter (fun memo -> Cache.add memo qs ~cost_ms:0.0 ck) t.memo;
          ck)
        (query ())
  in
  find_or_prepare t entry ~limits ~policy ~backend ~no_cache ~canon ~query

let answer_fields ?latency_ms answer ~cached =
  let base =
    match answer with
    | Graded g ->
      let grade, b =
        match g with
        | `Exact b -> ("exact", b)
        | `Lower_bound b -> ("lower-bound", b)
      in
      [
        ("status", Json.String "ok");
        ("grade", Json.String grade);
        ("certain", Json.Bool b);
      ]
    | Tuples d ->
      [
        ("status", Json.String "ok");
        ("grade", Json.String "exact");
        ("answers", Json.String (Parse.to_string d));
      ]
  in
  base
  @ [ ("cached", Json.Bool cached) ]
  @
  match latency_ms with
  | Some f -> [ ("latency_ms", Json.Float f) ]
  | None -> []

let explain_requested j =
  Option.value (Wire.bool_field "explain" j) ~default:false

(* the label [explain] surfaces for the cache; each value corresponds to
   the Cache counter bumped by the lookup (hit/miss/bypass), [off] when
   the server runs with no cache at all *)
let cache_disposition t = function
  | `Hit _ -> "hit"
  | `Todo p -> (
    match t.cache with
    | None -> "off"
    | Some _ ->
      if p.p_plain = None && p.p_scoped = None then "bypass" else "miss")

let slow_row t j ~op ~dt ~trace =
  let str k =
    match Wire.str_field k j with
    | Some s -> [ (k, Json.String s) ]
    | None -> []
  in
  t.slow_sink
    (Json.Obj
       ([
          ("slow_query", Json.Bool true);
          ("op", Json.String op);
          ("latency_ms", Json.Float dt);
        ]
       @ str "id" @ str "db" @ str "query"
       @ [ ("trace", trace) ]))

(* The request root span doubles as the [service.request] timer sample
   (Trace spans feed the plain Obs timer of their name), so the aggregate
   latency metric and the trace tree come from the same interval. *)
let query_fields t j =
  let explain = explain_requested j in
  let outcome, tid =
    Trace.with_trace "service.request" (fun tid ->
        let t0 = Obs.now_ms () in
        match prepare_request t j with
        | Error m -> (Error m, tid)
        | Ok prepared ->
          Trace.annotate "cache" (cache_disposition t prepared);
          let answer, cached =
            match prepared with
            | `Hit a -> (a, true)
            | `Todo p ->
              let a, cost_ms = compute_pending p in
              store t p a ~cost_ms;
              (a, false)
          in
          let dt = Obs.now_ms () -. t0 in
          Obs.record_ms (if cached then t.t_hit else t.t_miss) dt;
          Atomic.incr t.served;
          (Ok (answer_fields ~latency_ms:dt answer ~cached, dt), tid))
  in
  (* the root span is closed here, so the ring holds the full tree *)
  match outcome with
  | Error _ as e -> e
  | Ok (fields, dt) ->
    (match t.config.Config.slow_ms with
    | Some threshold when dt >= threshold ->
      slow_row t j ~op:"query" ~dt ~trace:(Trace.summary tid)
    | _ -> ());
    Ok
      (if explain then fields @ [ ("trace", Trace.summary tid) ] else fields)

(* the [batch] verb: cache hits and malformed sub-requests are settled in
   the coordinating domain; misses fan out over the domain pool, and the
   cache is written back by the coordinator (the cache is mutex-guarded,
   but keeping writers single-domain keeps eviction order deterministic) *)
let batch_fields t j =
  match Json.member "requests" j with
  | Some (Json.List reqs) ->
    let explain_all = explain_requested j in
    (* the whole batch is one trace: every task span inherits the batch's
       trace id across the worker domains ([Engine.Batch] ships the
       coordinator's context), so [trace dump] shows the fan-out as one
       tree and explained sub-responses are subtrees of it *)
    let rows =
      Trace.with_trace "service.batch" (fun tid ->
          let prepared =
            List.mapi
              (fun i r ->
                let sub_id =
                  Option.value (Wire.str_field "id" r)
                    ~default:(string_of_int i)
                in
                let sub_op =
                  Option.value (Wire.str_field "op" r) ~default:"query"
                in
                if not (String.equal sub_op "query") then
                  ( i,
                    sub_id,
                    r,
                    Error
                      (Printf.sprintf "batch supports only \"query\", got %S"
                         sub_op) )
                else (i, sub_id, r, prepare_request t r))
              reqs
          in
          let todo =
            List.filter_map
              (function i, _, r, Ok (`Todo p) -> Some (i, r, p) | _ -> None)
              prepared
          in
          let computed =
            Engine.Batch.map_result ~jobs:t.config.Config.jobs
              (fun (i, _, p) ->
                (* runs inside the worker's csp.batch.task span; its id
                   roots the sub-response's explained subtree *)
                Trace.annotate "cache" "miss";
                (i, Trace.current_span (), compute_pending p))
              todo
          in
          let results = Hashtbl.create (List.length todo) in
          List.iter2
            (fun (i, r, p) res ->
              match res with
              | Ok (_, sid, (a, cost_ms)) ->
                store t p a ~cost_ms;
                Obs.record_ms t.t_miss cost_ms;
                (match t.config.Config.slow_ms with
                | Some threshold when cost_ms >= threshold ->
                  slow_row t r ~op:"query" ~dt:cost_ms
                    ~trace:(Trace.summary ?root:sid tid)
                | _ -> ());
                Hashtbl.replace results i (Ok (sid, a))
              | Error (Engine.Batch.Raised { exn; _ }) ->
                Hashtbl.replace results i (Error (Wire.describe_exn exn))
              | Error Engine.Batch.Skipped ->
                Hashtbl.replace results i (Error "skipped"))
            todo computed;
          List.map
            (fun (i, sub_id, r, pr) ->
              let explain = explain_all || explain_requested r in
              let fields =
                match pr with
                | Error m ->
                  Obs.incr t.c_errors;
                  Wire.error_fields m
                | Ok (`Hit a) ->
                  Atomic.incr t.served;
                  answer_fields a ~cached:true
                  @
                  if explain then
                    [
                      ( "trace",
                        Json.Obj
                          [
                            ("trace_id", Json.Int tid);
                            ("cache", Json.String "hit");
                          ] );
                    ]
                  else []
                | Ok (`Todo _) -> (
                  match Hashtbl.find results i with
                  | Ok (sid, a) ->
                    Atomic.incr t.served;
                    answer_fields a ~cached:false
                    @
                    if explain then
                      [ ("trace", Trace.summary ?root:sid tid) ]
                    else []
                  | Error m ->
                    Obs.incr t.c_errors;
                    Wire.error_fields m)
              in
              Wire.row ~idx:i ~id:sub_id ~op:"query" fields)
            prepared)
    in
    Ok [ ("status", Json.String "ok"); ("results", Json.List rows) ]
  | Some _ | None -> Error "missing \"requests\" array"

let load_fields t j =
  match (Wire.str_field "name" j, Wire.str_field "source" j) with
  | None, _ -> Error "missing field \"name\""
  | _, None -> Error "missing field \"source\""
  | Some name, Some source -> (
    match load_entry t ~name ~source with
    | Error m -> Error ("source: parse error: " ^ m)
    | Ok entry ->
      Ok
        [
          ("status", Json.String "ok");
          ("name", Json.String name);
          ("fingerprint", Json.String entry.fingerprint);
          ("facts", Json.Int (Instance.cardinal entry.instance));
        ])

let unload_fields t j =
  match Wire.str_field "name" j with
  | None -> Error "missing field \"name\""
  | Some name ->
    let removed =
      locked t (fun () ->
          if Hashtbl.mem t.registry name then begin
            Hashtbl.remove t.registry name;
            true
          end
          else false)
    in
    if removed then Ok [ ("status", Json.String "ok"); ("name", Json.String name) ]
    else Error (Printf.sprintf "unknown database %S" name)

(* the [invalidate] verb: announce a (future) update touching one
   relation — whole tuples, or just some columns — and drop exactly the
   cached entries whose footprint overlaps it.  The insert/delete verbs
   themselves land later; the invalidation path and its counters are
   live now. *)
let invalidate_fields t j =
  match Wire.str_field "rel" j with
  | None -> Error "missing field \"rel\""
  | Some rel -> (
    let touch =
      match Wire.int_list_field "cols" j with
      | None -> Ok (Footprint.touch_rel rel)
      | Some cols ->
        if List.for_all (fun c -> c >= 1) cols then
          Ok (Footprint.touch_cols rel (List.map (fun c -> c - 1) cols))
        else Error "\"cols\" are 1-based positions"
    in
    match touch with
    | Error m -> Error m
    | Ok touch -> (
      let scoped =
        match Wire.str_field "db" j with
        | None -> Ok None
        | Some db ->
          Result.map (fun e -> Some (e.fingerprint ^ "|")) (lookup t db)
      in
      match scoped with
      | Error m -> Error m
      | Ok key_prefix ->
        let dropped =
          match t.cache with
          | None -> 0
          | Some cache -> Cache.invalidate ?key_prefix cache touch
        in
        Ok
          [
            ("status", Json.String "ok");
            ("rel", Json.String rel);
            ("invalidated", Json.Int dropped);
            ( "remaining",
              Json.Int
                (match t.cache with None -> 0 | Some c -> Cache.size c) );
          ]))

let stats_fields t j =
  let full = Option.value (Wire.bool_field "full" j) ~default:false in
  let dbs =
    locked t (fun () ->
        Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.registry [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, e) ->
           Json.Obj
             [
               ("name", Json.String name);
               ("fingerprint", Json.String e.fingerprint);
               ("facts", Json.Int (Instance.cardinal e.instance));
             ])
  in
  let cache_j =
    match t.cache with
    | None -> Json.Null
    | Some c ->
      let tot = Cache.totals c in
      Json.Obj
        [
          ("capacity", Json.Int (Cache.capacity c));
          ("size", Json.Int (Cache.size c));
          ("hits", Json.Int tot.Cache.hits);
          ("misses", Json.Int tot.Cache.misses);
          ("evictions", Json.Int tot.Cache.evictions);
          ("bypasses", Json.Int tot.Cache.bypasses);
        ]
  in
  [
    ("status", Json.String "ok");
    ("uptime_ms", Json.Float (Obs.now_ms () -. t.started_ms));
    ("served", Json.Int (Atomic.get t.served));
    ("databases", Json.List dbs);
    ("cache", cache_j);
  ]
  @ if full then [ ("metrics", Obs.to_json (Obs.snapshot ())) ] else []

(* the [trace] verb: dump the ring buffer as Chrome trace-event JSON
   (loadable in about:tracing / Perfetto); [clear:true] empties the ring
   after the dump *)
let trace_fields j =
  let clear = Option.value (Wire.bool_field "clear" j) ~default:false in
  let evs = Trace.events () in
  let fields =
    [
      ("status", Json.String "ok");
      ("events", Json.Int (List.length evs));
      ("dropped", Json.Int (Trace.dropped ()));
      ("chrome", Trace.chrome evs);
    ]
  in
  if clear then Trace.clear ();
  fields

(* the [metrics] verb: OpenMetrics text exposition of the whole Obs
   registry, for a scraper watching the server *)
let metrics_fields () =
  [
    ("status", Json.String "ok");
    ("content_type", Json.String Openmetrics.content_type);
    ("body", Json.String (Openmetrics.expose (Obs.snapshot ())));
  ]

let handle_line t ~idx line =
  Obs.incr t.c_requests;
  let continue j = (j, `Continue) in
  match Json.of_string line with
  | exception Json.Parse_error m ->
    Obs.incr t.c_errors;
    continue
      (Wire.row ~idx
         ~id:("line-" ^ string_of_int idx)
         ~op:"?"
         (Wire.error_fields ("json: " ^ m)))
  | j -> (
    let id = Option.value (Wire.str_field "id" j) ~default:(string_of_int idx) in
    let op = Option.value (Wire.str_field "op" j) ~default:"?" in
    let reply fields = Wire.row ~idx ~id ~op fields in
    let of_result = function
      | Ok fields -> reply fields
      | Error m ->
        Obs.incr t.c_errors;
        reply (Wire.error_fields m)
    in
    match op with
    | "load" -> continue (of_result (load_fields t j))
    | "unload" -> continue (of_result (unload_fields t j))
    | "query" -> continue (of_result (query_fields t j))
    | "batch" -> continue (of_result (batch_fields t j))
    | "invalidate" -> continue (of_result (invalidate_fields t j))
    | "stats" -> continue (reply (stats_fields t j))
    | "trace" -> continue (reply (trace_fields j))
    | "metrics" -> continue (reply (metrics_fields ()))
    (* liveness probe: constant-work, constant-shape answer, so clients
       (and cram tests) can match it byte-for-byte *)
    | "ping" ->
      continue
        (reply [ ("status", Json.String "ok"); ("pong", Json.Bool true) ])
    | "shutdown" ->
      ( reply
          [
            ("status", Json.String "ok");
            ("served", Json.Int (Atomic.get t.served));
          ],
        `Shutdown )
    | other ->
      continue (of_result (Error (Printf.sprintf "unknown op %S" other))))

(* ---- the loop -------------------------------------------------------- *)

let oversized_row ~idx ~max =
  Wire.row ~idx
    ~id:("line-" ^ string_of_int idx)
    ~op:"?"
    (Wire.error_fields (Printf.sprintf "request line exceeds %d bytes" max))

let serve ?(max_line_bytes = Wire.default_max_line_bytes) t ic oc =
  let respond row =
    output_string oc (Json.to_string row);
    output_char oc '\n';
    flush oc
  in
  let rec loop idx =
    match Wire.input_line_bounded ~max:max_line_bytes ic with
    | `Eof -> `Eof
    | `Oversized _ ->
      (* the over-long line was drained, never buffered whole; the
         stream stays in sync and the client gets a structured row *)
      Obs.incr t.c_requests;
      Obs.incr t.c_errors;
      respond (oversized_row ~idx ~max:max_line_bytes);
      loop (idx + 1)
    | `Line line ->
      if String.trim line = "" then loop idx
      else begin
        let row, k = handle_line t ~idx line in
        respond row;
        match k with `Continue -> loop (idx + 1) | `Shutdown -> `Shutdown
      end
  in
  loop 0
