module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace

let runs = Obs.counter "csp.resilient.runs"
let attempts_total = Obs.counter "csp.resilient.attempts"
let retries = Obs.counter "csp.resilient.retries"
let recovered = Obs.counter "csp.resilient.recovered"
let exhausted_c = Obs.counter "csp.resilient.exhausted"
let crossed = Obs.counter "csp.resilient.crossed"
let crossed_recovered = Obs.counter "csp.resilient.crossed_recovered"

module Policy = struct
  type t = { max_attempts : int; escalation : float }

  let make ?(max_attempts = 3) ?(escalation = 4.0) () =
    if max_attempts < 1 then
      invalid_arg "Resilient.Policy.make: max_attempts must be >= 1";
    if escalation < 1.0 then
      invalid_arg "Resilient.Policy.make: escalation must be >= 1.0";
    { max_attempts; escalation }

  let default = make ()
  let no_retry = make ~max_attempts:1 ()
end

type rung = Search of int | Fallback of string | Exhausted

let rung_to_string = function
  | Search n -> Printf.sprintf "search[%d]" n
  | Fallback name -> Printf.sprintf "fallback[%s]" name
  | Exhausted -> "exhausted"

type 'a run = { outcome : 'a Engine.outcome; attempts : int; rung : rung }

let decision r = Engine.decision_of_outcome r.outcome

let scale_limits (policy : Policy.t) ~attempt (l : Engine.Limits.t) =
  if attempt <= 1 then l
  else
    let factor = policy.escalation ** float_of_int (attempt - 1) in
    let scale =
      Option.map (fun n ->
          max 1 (int_of_float (ceil (float_of_int n *. factor))))
    in
    { l with nodes = scale l.nodes; backtracks = scale l.backtracks }

let exhausted_run outcome ~attempts =
  Obs.incr exhausted_c;
  { outcome; attempts; rung = Exhausted }

(* expose the ladder's verdict on the enclosing span, so an explained
   request reports which rung answered and how many attempts it took *)
let annotated r =
  Trace.annotate "rung" (rung_to_string r.rung);
  Trace.annotate "attempts" (string_of_int r.attempts);
  r

(* The retry core.  The run keeps one deadline, fixed when the run
   starts (the clock is read for it only if [timeout_ms] is set): the
   first attempt gets the whole timeout, every later attempt and the
   fallback get the time left before the deadline, and once none is
   left nothing more starts.  Attempt [i] runs [f] under the
   policy-scaled node and backtrack budgets.  A definitive outcome stops
   the ladder (nothing can override it), a cancellation stops it too
   (the token stays tripped, so retrying would spin), and every other
   Unknown escalates until the attempts run out.  Then the fallback
   decider, if one was given, runs once under the fully escalated
   budgets: a definitive fallback answer cannot flip anything, since the
   primary only ever said Unknown here, and a fallback Unknown keeps the
   primary's reason. *)
let run ?(policy = Policy.default) ?fallback ~limits f =
  Obs.incr runs;
  Trace.with_span "csp.resilient.run" @@ fun () ->
  let deadline =
    Option.map (fun t -> Obs.now_ms () +. t) limits.Engine.Limits.timeout_ms
  in
  let within_deadline (l : Engine.Limits.t) =
    match deadline with
    | None -> Some l
    | Some d ->
      let left = d -. Obs.now_ms () in
      if left > 0. then Some { l with timeout_ms = Some left } else None
  in
  let out_of_time ~attempts =
    exhausted_run (Engine.Unknown Engine.Deadline) ~attempts
  in
  let cross ~attempts last =
    match fallback with
    | None -> exhausted_run last ~attempts
    | Some (name, call) -> (
      match
        within_deadline
          (scale_limits policy ~attempt:policy.max_attempts limits)
      with
      | None -> out_of_time ~attempts
      | Some l -> (
        Obs.incr crossed;
        match
          Trace.with_span "csp.resilient.fallback"
            ~labels:[ ("backend", name) ]
            (fun () -> call l)
        with
        | (Engine.Sat _ | Engine.Unsat) as outcome ->
          Obs.incr crossed_recovered;
          { outcome; attempts; rung = Fallback name }
        | Engine.Unknown _ -> exhausted_run last ~attempts))
  in
  let rec attempt i =
    let l = scale_limits policy ~attempt:i limits in
    (* the first attempt starts with the whole timeout left *)
    match if i = 1 then Some l else within_deadline l with
    | None -> out_of_time ~attempts:(i - 1)
    | Some l -> (
      Obs.incr attempts_total;
      if i > 1 then Obs.incr retries;
      match
        Trace.with_span "csp.resilient.attempt"
          ~labels:[ ("attempt", string_of_int i) ]
          (fun () -> f l)
      with
      | (Engine.Sat _ | Engine.Unsat) as outcome ->
        if i > 1 then Obs.incr recovered;
        { outcome; attempts = i; rung = Search i }
      | Engine.Unknown Engine.Cancelled as outcome ->
        exhausted_run outcome ~attempts:i
      | Engine.Unknown _ as outcome ->
        if i >= policy.max_attempts then cross ~attempts:i outcome
        else attempt (i + 1))
  in
  annotated (attempt 1)

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
