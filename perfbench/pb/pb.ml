(* pb — the serve benchmark's client and replayer.

     pb.exe run    --workload W --seed N --seconds S --certdb PATH
     pb.exe trace  --workload W --seed N --seconds S --certdb PATH
     pb.exe probe  --workload W --seed N

   [run] prints the end-to-end metrics, [trace] the per-layer ones (see
   perfbench/README.md); [probe] prints each shape's route, oracle answer
   and in-process served cost, for sizing workloads.  The last line of
   [run] and [trace] is the result object. *)

module Json = Certdb_obs.Obs.Json
open Workload
open Prep

(* ---- output --------------------------------------------------------------- *)

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* set-ups per timed run; setup_s is their median *)
let setups = 5

let run_cmd ~w ~certdb ~seconds =
  let ctx, oracle_s = context w ~certdb in
  let r = Timed.run ctx ~seconds ~setups in
  let t = r.Timed.tally in
  let p q = Timed.ms_of_ns (Timed.percentile r.samples q) in
  let n = Array.length r.samples in
  let correct = t.wrong = [] && r.setup_tally.wrong = [] && r.stats_errors = [] in
  let metrics =
    [
      ("throughput_rps", float_of_int t.ok /. r.elapsed_s, "1/s");
      ("latency_p50_ms", p 0.5, "ms");
      ("latency_p99_ms", p 0.99, "ms");
      ("cpu_ms_per_req", r.cpu_ms /. float_of_int (max 1 t.attempted), "ms");
      ("peak_rss_mb", r.rss_mb, "MB");
      ("setup_s", Timed.median_float r.setups_s, "s");
      ("ok_frac", frac t.ok t.attempted, "fraction");
      ("on_time_frac", frac t.on_time t.attempted, "fraction");
      ("exact_frac", frac t.exact t.boolean_ok, "fraction");
    ]
  in
  let detail =
    Json.Obj
      [
        ("workload", Json.String w.wname);
        ("seed", Json.Int w.seed);
        ("samples", Json.Int n);
        ("beyond_p99", Json.Int (n - int_of_float (ceil (0.99 *. float_of_int n))));
        ("elapsed_s", Json.Float r.elapsed_s);
        ("setups_s", Json.List (List.map (fun x -> Json.Float x) r.setups_s));
        ("oracle_s", Json.Float oracle_s);
        ("server_flags", Json.String (String.concat " " (Timed.server_args ~cache_capacity:w.cache_capacity)));
        ("client_cpus", Json.String (fst r.placement));
        ("server_cpus", Json.String (snd r.placement));
        ("steal_ms", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.steal_ms));
        ("ocaml", Json.String Sys.ocaml_version);
        ("mismatches", Json.List (List.map (fun s -> Json.String s) (t.wrong @ r.setup_tally.wrong @ r.stats_errors)));
        ("latency_ms", Json.List (List.map (fun q -> Json.Obj [ ("q", Json.Float q); ("ms", Json.Float (p q)) ])
                                   [ 0.01; 0.1; 0.25; 0.4; 0.45; 0.48; 0.5; 0.52; 0.55; 0.6; 0.75; 0.9; 0.95; 0.97; 0.98; 0.985; 0.988; 0.99; 0.992; 0.995; 0.999 ]));
      ]
  in
  Pb_out.emit ~correct ~attempted:t.attempted ~failed:t.failed ~detail metrics

(* ---- probe ----------------------------------------------------------------- *)

let probe_cmd ~w =
  check_shapes w;
  (* the schedule's own mix, from the cache model *)
  let model = Model.create ~cap:w.cache_capacity w.dbs in
  Array.iter (fun r -> ignore (Model.step model w r)) w.warmup;
  let h0 = model.Model.hits and m0 = model.Model.misses in
  let counts = Hashtbl.create 4 in
  for i = 0 to 19_999 do
    let r = w.timed i in
    let k = match r with Query _ -> "query" | Invalidate _ -> "invalidate" | Load _ -> "load" in
    Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0);
    ignore (Model.step model w r)
  done;
  Printf.printf "model over 20000 timed requests: hits %d misses %d bypasses %d evictions %d; %s\n"
    (model.Model.hits - h0) (model.Model.misses - m0) model.Model.bypasses model.Model.evictions
    (String.concat " " (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) counts []));
  let tbl, oracle_s = oracle_table w in
  Printf.printf "oracle: %.3f s\n" oracle_s;
  let server =
    Certdb_service.Server.create
      ~config:(Certdb_service.Server.Config.make ~cache_capacity:0 ~jobs:1 ()) ()
  in
  List.iter
    (fun (db, v) -> ignore (Certdb_service.Server.load server ~name:db ~source:(instance_text w db v)))
    w.dbs;
  (* each shape as the timed stream sends it (budget, no_cache) *)
  let as_sent i v =
    let rec find k =
      if k > 9_999 then Query { shape = i; variant = v; timeout_ms = None; no_cache = false }
      else
        match w.timed k with
        | Query q when q.shape = i -> Query { q with variant = v }
        | _ -> find (k + 1)
    in
    find 0
  in
  Array.iteri
    (fun i (s : shape) ->
      let lines = Array.init 4 (fun v -> Workload.line w (as_sent i v)) in
      let costs =
        List.init 8 (fun k ->
            let a = Clock.now_ns () in
            ignore (Certdb_service.Server.handle_line server ~idx:0 lines.(k mod 4));
            float_of_int (Clock.now_ns () - a) /. 1e6)
      in
      Printf.printf "%-24s %-14s %-10s %8.3f ms  %s\n" s.name s.route
        (Oracle.to_string (Hashtbl.find tbl (0, i))) (Timed.median_float costs)
        (String.concat " " (List.map (Printf.sprintf "%.2f") costs)))
    w.shapes

(* ---- command line ----------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let cmd = match args with _ :: c :: _ -> c | _ -> "" in
  let opt name default =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let w = workload (opt "--workload" "hit") (int_of_string (opt "--seed" "1")) in
  let seconds = float_of_string (opt "--seconds" "10") in
  let certdb = opt "--certdb" "certdb" in
  match cmd with
  | "run" -> run_cmd ~w ~certdb ~seconds
  | "probe" -> probe_cmd ~w
  | "trace" -> Traced.run_cmd ~w ~certdb ~seconds
  | _ ->
    prerr_endline "usage: pb.exe (run|trace|probe) --workload W --seed N [--seconds S] [--certdb PATH]";
    exit 2
