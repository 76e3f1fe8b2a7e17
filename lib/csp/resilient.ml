module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let runs = Obs.counter "csp.resilient.runs"
let attempts_total = Obs.counter "csp.resilient.attempts"
let exhausted_c = Obs.counter "csp.resilient.exhausted"
let crossed = Obs.counter "csp.resilient.crossed"
let crossed_recovered = Obs.counter "csp.resilient.crossed_recovered"

module Policy = struct
  type t = { max_attempts : int; escalation : float }

  let make ?(max_attempts = 3) ?(escalation = 4.0) () =
    if max_attempts < 1 then
      invalid_arg "Resilient.Policy.make: max_attempts must be >= 1";
    if not (Float.is_finite escalation && escalation >= 1.0) then
      invalid_arg "Resilient.Policy.make: escalation must be finite and >= 1.0";
    { max_attempts; escalation }

  let default = make ()
  let no_retry = make ~max_attempts:1 ()

  (* [n × escalation^(max_attempts-1)], at least 1 and at most [max_int]:
     the float product is clamped before it is converted, so a large
     [max_attempts] saturates instead of wrapping *)
  let scale_limits p (l : Engine.Limits.t) =
    if p.max_attempts <= 1 then l
    else
      let factor = p.escalation ** float_of_int (p.max_attempts - 1) in
      let scale n =
        if n <= 0 then 1
        else
          let x = Float.ceil (float_of_int n *. factor) in
          if x >= float_of_int max_int then max_int else int_of_float x
      in
      {
        l with
        nodes = Option.map scale l.nodes;
        backtracks = Option.map scale l.backtracks;
      }
end

type rung = Search | Fallback of string | Exhausted

let rung_to_string = function
  | Search -> "search"
  | Fallback name -> Printf.sprintf "fallback[%s]" name
  | Exhausted -> "exhausted"

type 'a run = { outcome : 'a Engine.outcome; rung : rung }

let exhausted outcome =
  Obs.incr exhausted_c;
  { outcome; rung = Exhausted }

(* One budgeted attempt, then at most one fallback.  The run keeps one
   deadline, fixed when it starts (the clock is read for it only if
   [timeout_ms] is set): the primary gets the whole timeout, the
   fallback only the time left, and once none is left it does not
   start.  A definitive outcome stands (the fallback only ever runs on
   [Unknown], so nothing can flip it), a cancellation ends the run (the
   token stays tripped), and a fallback [Unknown] keeps the primary's
   reason. *)
let run ?(policy = Policy.default) ?fallback ~limits f =
  Obs.incr runs;
  Trace.with_span "csp.resilient.run" @@ fun () ->
  let limits = Policy.scale_limits policy limits in
  let deadline =
    Option.map (fun t -> Obs.now_ms () +. t) limits.Engine.Limits.timeout_ms
  in
  let cross name call primary =
    let left = Option.map (fun d -> d -. Obs.now_ms ()) deadline in
    match left with
    | Some left when left <= 0. -> exhausted (Engine.Unknown Engine.Deadline)
    | _ -> (
      Obs.incr crossed;
      let l = { limits with timeout_ms = left } in
      match
        Trace.with_span "csp.resilient.fallback"
          ~labels:[ ("backend", name) ]
          (fun () -> call l)
      with
      | (Engine.Sat _ | Engine.Unsat) as outcome ->
        Obs.incr crossed_recovered;
        { outcome; rung = Fallback name }
      | Engine.Unknown _ -> exhausted primary)
  in
  Obs.incr attempts_total;
  let r =
    match f limits with
    | (Engine.Sat _ | Engine.Unsat) as outcome -> { outcome; rung = Search }
    | Engine.Unknown Engine.Cancelled as outcome -> exhausted outcome
    | Engine.Unknown _ as outcome -> (
      match fallback with
      | None -> exhausted outcome
      | Some (name, call) -> cross name call outcome)
  in
  (* the verdict on the enclosing span: an explained request reports
     which rung answered *)
  Trace.annotate "rung" (rung_to_string r.rung);
  r

type graded = [ `Exact of bool | `Lower_bound of bool ]

let graded ~exact ~degraded ~exhausted r =
  match r.outcome with
  | Engine.Sat _ ->
    Obs.incr exact;
    `Exact true
  | Engine.Unsat ->
    Obs.incr exact;
    `Exact false
  | Engine.Unknown _ ->
    Obs.incr degraded;
    exhausted ()
