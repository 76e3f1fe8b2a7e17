(* lib/obs — registry semantics, span timers, snapshot/reset, JSON
   well-formedness, and determinism of the instrumented hom search. *)

module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace
open Certdb_csp

(* Minimal recursive-descent JSON reader, used only to check that the
   hand-rolled emitter produces well-formed documents. *)
module Json_check = struct
  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let parse_string () =
      expect '"';
      let rec go () =
        match peek () with
        | None -> raise (Bad "unterminated string")
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
            advance ();
            go ()
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> raise (Bad "bad \\u escape")
            done;
            go ()
          | _ -> raise (Bad "bad escape"))
        | Some _ ->
          advance ();
          go ()
      in
      go ()
    in
    let parse_number () =
      let number_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      let start = !pos in
      while (match peek () with Some c -> number_char c | None -> false) do
        advance ()
      done;
      if !pos = start then raise (Bad "empty number");
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some _ -> ()
      | None -> raise (Bad "bad number")
    in
    let parse_lit lit =
      String.iter (fun c -> expect c) lit
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ()
            | Some '}' -> advance ()
            | _ -> raise (Bad "expected , or } in object")
          in
          members ()
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements ()
            | Some ']' -> advance ()
            | _ -> raise (Bad "expected , or ] in array")
          in
          elements ()
        end
      | Some '"' -> parse_string ()
      | Some 't' -> parse_lit "true"
      | Some 'f' -> parse_lit "false"
      | Some 'n' -> parse_lit "null"
      | Some _ -> parse_number ()
      | None -> raise (Bad "empty input")
    in
    parse_value ();
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage")

  let well_formed s =
    match parse s with () -> true | exception Bad _ -> false
end

let cycle n =
  let s =
    List.fold_left
      (fun s v -> Structure.add_node s v)
      Structure.empty (List.init n Fun.id)
  in
  List.fold_left
    (fun s v -> Structure.add_edge s "E" v ((v + 1) mod n))
    s (List.init n Fun.id)

let test_counters () =
  Obs.reset ();
  let c = Obs.counter "test.obs.counter" in
  let c' = Obs.counter "test.obs.counter" in
  Obs.incr c;
  Obs.add c' 4;
  Alcotest.(check int) "registry memoizes by name" 5 (Obs.counter_value c);
  Alcotest.(check (option int))
    "snapshot sees the counter" (Some 5)
    (Obs.find_counter (Obs.snapshot ()) "test.obs.counter");
  Obs.set_enabled false;
  Obs.incr c;
  Obs.set_enabled true;
  Alcotest.(check int) "disabled counters do not move" 5 (Obs.counter_value c)

let test_gauges_timers () =
  Obs.reset ();
  let g = Obs.gauge "test.obs.gauge" in
  Obs.set g 2.5;
  Obs.set_int (Obs.gauge "test.obs.gauge") 7;
  Alcotest.(check (float 1e-9)) "gauge keeps last value" 7. (Obs.gauge_value g);
  let t = Obs.timer "test.obs.timer" in
  Obs.record_ms t 2.;
  Obs.record_ms t 4.;
  Obs.record_ms t 6.;
  let s = Option.get (Obs.find_timer (Obs.snapshot ()) "test.obs.timer") in
  Alcotest.(check int) "count" 3 s.Obs.count;
  Alcotest.(check (float 1e-9)) "total" 12. s.Obs.total_ms;
  Alcotest.(check (float 1e-9)) "mean" 4. s.Obs.mean_ms;
  Alcotest.(check (float 1e-9)) "min" 2. s.Obs.min_ms;
  Alcotest.(check (float 1e-9)) "max" 6. s.Obs.max_ms

let test_timer_quantiles () =
  Obs.reset ();
  let t = Obs.timer "test.obs.quantiles" in
  (* 100 samples 1..100 ms: the log-scale buckets estimate quantiles
     within a sqrt 2 relative error, clamped to the observed [min, max] *)
  for i = 1 to 100 do
    Obs.record_ms t (float_of_int i)
  done;
  let s = Option.get (Obs.find_timer (Obs.snapshot ()) "test.obs.quantiles") in
  let rel_ok q est =
    est >= (q /. Float.sqrt 2.) -. 1e-9 && est <= (q *. Float.sqrt 2.) +. 1e-9
  in
  Alcotest.(check bool) "p50 within bucket error" true (rel_ok 50. s.Obs.p50_ms);
  Alcotest.(check bool) "p95 within bucket error" true (rel_ok 95. s.Obs.p95_ms);
  Alcotest.(check bool) "p99 within bucket error" true (rel_ok 99. s.Obs.p99_ms);
  Alcotest.(check bool) "p50 <= p95" true (s.Obs.p50_ms <= s.Obs.p95_ms);
  Alcotest.(check bool) "p95 <= p99" true (s.Obs.p95_ms <= s.Obs.p99_ms);
  Alcotest.(check bool)
    "quantiles clamped into [min, max]" true
    (s.Obs.p50_ms >= s.Obs.min_ms && s.Obs.p99_ms <= s.Obs.max_ms);
  (* a single sample collapses every quantile onto it exactly *)
  let u = Obs.timer "test.obs.quantiles.single" in
  Obs.record_ms u 3.;
  let s1 =
    Option.get (Obs.find_timer (Obs.snapshot ()) "test.obs.quantiles.single")
  in
  Alcotest.(check (float 1e-9)) "single-sample p50" 3. s1.Obs.p50_ms;
  Alcotest.(check (float 1e-9)) "single-sample p95" 3. s1.Obs.p95_ms;
  Alcotest.(check (float 1e-9)) "single-sample p99" 3. s1.Obs.p99_ms;
  (* reset clears the buckets, not just the moments *)
  Obs.reset ();
  Obs.record_ms t 7.;
  let s2 = Option.get (Obs.find_timer (Obs.snapshot ()) "test.obs.quantiles") in
  Alcotest.(check (float 1e-9)) "p50 after reset" 7. s2.Obs.p50_ms

let test_spans () =
  Obs.reset ();
  (* deterministic fake clock: each read advances 1 ms *)
  let ticks = ref 0. in
  Obs.set_clock_ms (fun () ->
      ticks := !ticks +. 1.;
      !ticks);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock_ms (fun () -> Unix.gettimeofday () *. 1000.))
    (fun () ->
      Trace.with_span "test.obs.outer" (fun () ->
          Trace.with_span "test.obs.inner" (fun () -> ()));
      (* raising inside a span still records its timer *)
      (try Trace.with_span "test.obs.raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      let m = Obs.snapshot () in
      let stats name = Option.get (Obs.find_timer m name) in
      Alcotest.(check int) "outer recorded" 1 (stats "test.obs.outer").Obs.count;
      Alcotest.(check int) "inner recorded" 1 (stats "test.obs.inner").Obs.count;
      Alcotest.(check int) "raising span recorded" 1
        (stats "test.obs.raises").Obs.count)

let test_snapshot_reset () =
  Obs.reset ();
  Obs.add (Obs.counter "test.obs.reset") 3;
  Obs.set (Obs.gauge "test.obs.reset_gauge") 1.5;
  Obs.record_ms (Obs.timer "test.obs.reset_timer") 1.;
  Obs.reset ();
  let m = Obs.snapshot () in
  Alcotest.(check (option int))
    "counter survives reset at zero" (Some 0)
    (Obs.find_counter m "test.obs.reset");
  Alcotest.(check (option (float 1e-9)))
    "gauge survives reset at zero" (Some 0.)
    (Obs.find_gauge m "test.obs.reset_gauge");
  Alcotest.(check int) "timer cleared" 0
    (Option.get (Obs.find_timer m "test.obs.reset_timer")).Obs.count;
  let names = List.map fst m.Obs.counters in
  Alcotest.(check bool) "counter names sorted" true
    (List.sort String.compare names = names)

let test_json () =
  Obs.reset ();
  Obs.incr (Obs.counter "test.obs.json");
  (* hostile metric name: quotes, backslash, control char *)
  Obs.incr (Obs.counter "test.obs.\"quoted\\name\"\t");
  Obs.record_ms (Obs.timer "test.obs.json_timer") 0.125;
  let s = Obs.json_string (Obs.snapshot ()) in
  Alcotest.(check bool) "snapshot JSON is well-formed" true
    (Json_check.well_formed s);
  let open Obs.Json in
  Alcotest.(check string) "emitter basics"
    {json|{"a":[1,2.5,null,true,"x\"y\\z"],"b":null}|json}
    (to_string
       (Obj
          [
            ("a", List [ Int 1; Float 2.5; Null; Bool true; String "x\"y\\z" ]);
            ("b", Float Float.nan);
          ]))

let test_find_hom_deterministic () =
  Obs.reset ();
  let source = cycle 6 and target = cycle 3 in
  let decisions = Obs.counter "csp.solver.decisions" in
  let run () =
    let before = Obs.counter_value decisions in
    let h = Solver.find_hom ~source ~target () in
    Alcotest.(check bool) "hom exists" true (Option.is_some h);
    Obs.counter_value decisions - before
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool) "decision count is nonzero" true (first > 0);
  Alcotest.(check int) "decision count is reproducible" first second

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges and timers" `Quick test_gauges_timers;
          Alcotest.test_case "timer quantiles" `Quick test_timer_quantiles;
          Alcotest.test_case "snapshot/reset" `Quick test_snapshot_reset;
        ] );
      ("spans", [ Alcotest.test_case "nesting" `Quick test_spans ]);
      ("json", [ Alcotest.test_case "well-formedness" `Quick test_json ]);
      ( "solver",
        [
          Alcotest.test_case "deterministic decision count" `Quick
            test_find_hom_deterministic;
        ] );
    ]
