module Int_set = Structure.Int_set
module Int_map = Structure.Int_map
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace
module Config = Engine.Config

let runs = Obs.counter "csp.resilient.runs"
let attempts_total = Obs.counter "csp.resilient.attempts"
let retries = Obs.counter "csp.resilient.retries"
let recovered = Obs.counter "csp.resilient.recovered"
let propagation_unsats = Obs.counter "csp.resilient.propagation_unsat"
let exhausted_c = Obs.counter "csp.resilient.exhausted"
let crossed = Obs.counter "csp.resilient.crossed"
let crossed_recovered = Obs.counter "csp.resilient.crossed_recovered"

module Policy = struct
  type t = {
    max_attempts : int;
    escalation : float;
    restart_seed : int option;
    propagate_first : bool;
  }

  let make ?(max_attempts = 3) ?(escalation = 4.0) ?(restart_seed = Some 0x5eed)
      ?(propagate_first = true) () =
    if max_attempts < 1 then
      invalid_arg "Resilient.Policy.make: max_attempts must be >= 1";
    if escalation < 1.0 then
      invalid_arg "Resilient.Policy.make: escalation must be >= 1.0";
    { max_attempts; escalation; restart_seed; propagate_first }

  let default = make ()
  let no_retry = make ~max_attempts:1 ~propagate_first:false ()
end

type rung = Propagation | Search of int | Fallback of string | Exhausted

let rung_to_string = function
  | Propagation -> "propagation"
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

(* When every rung of one backend tripped, cross to the other one: run
   the fallback once, under the last attempt's (fully escalated) limits.
   A definitive fallback answer cannot flip anything — the primary only
   ever said Unknown here — and a fallback Unknown keeps the primary's
   reason. *)
let cross_backend ?fallback (policy : Policy.t) ~limits ~attempts
    (exhausted : 'a Engine.outcome) =
  match fallback with
  | None ->
    Obs.incr exhausted_c;
    { outcome = exhausted; attempts; rung = Exhausted }
  | Some (name, call) -> (
    Obs.incr crossed;
    let limits = scale_limits policy ~attempt:policy.max_attempts limits in
    match
      Trace.with_span "csp.resilient.fallback"
        ~labels:[ ("backend", name) ]
        (fun () -> call limits)
    with
    | (Engine.Sat _ | Engine.Unsat) as outcome ->
      Obs.incr crossed_recovered;
      { outcome; attempts; rung = Fallback name }
    | Engine.Unknown _ ->
      Obs.incr exhausted_c;
      { outcome = exhausted; attempts; rung = Exhausted })

(* The retry core: attempt [i] runs [f] under the policy-scaled limits;
   a definitive outcome stops the ladder (nothing can override it), a
   cancellation stops it too (the token stays tripped, so retrying would
   spin), every other Unknown escalates until the attempts run out —
   and then crosses to the fallback backend, if one was given. *)
let retry ?fallback (policy : Policy.t) ~limits f =
  let rec attempt i =
    Obs.incr attempts_total;
    if i > 1 then Obs.incr retries;
    match
      Trace.with_span "csp.resilient.attempt"
        ~labels:[ ("attempt", string_of_int i) ]
        (fun () -> f ~attempt:i (scale_limits policy ~attempt:i limits))
    with
    | (Engine.Sat _ | Engine.Unsat) as outcome ->
      if i > 1 then Obs.incr recovered;
      { outcome; attempts = i; rung = Search i }
    | Engine.Unknown Engine.Cancelled ->
      Obs.incr exhausted_c;
      { outcome = Engine.Unknown Engine.Cancelled; attempts = i; rung = Exhausted }
    | Engine.Unknown r ->
      if i >= policy.max_attempts then
        cross_backend ?fallback policy ~limits ~attempts:i (Engine.Unknown r)
      else attempt (i + 1)
  in
  attempt 1

(* expose the ladder's verdict on the enclosing span, so an explained
   request reports which rung answered and how many attempts it took *)
let annotated r =
  Trace.annotate "rung" (rung_to_string r.rung);
  Trace.annotate "attempts" (string_of_int r.attempts);
  r

let run ?(policy = Policy.default) ?fallback ~limits f =
  Obs.incr runs;
  Trace.with_span "csp.resilient.run" (fun () ->
      annotated (retry ?fallback policy ~limits f))

(* Perturb the engine configuration for retry [attempt]: the first
   attempt keeps the caller's ordering, later ones switch to a seeded
   permutation so each restart explores a different tree prefix. *)
let attempt_config (policy : Policy.t) ~attempt ~limits (config : Config.t) =
  let var_order =
    match policy.restart_seed with
    | Some seed when attempt > 1 -> Config.Seeded (seed + attempt)
    | _ -> config.var_order
  in
  { config with limits; var_order }

let propagation_certificate (config : Config.t) ~source ~target =
  match
    Arc_consistency.prune ?restrict:config.restrict ~source ~target ()
  with
  | None -> `Unsat
  | Some pruned ->
    (* feed the arc-consistent domains back into the search as the
       restriction, so the work done on rung one is not thrown away *)
    `Restrict (Domains.of_map pruned)

let ladder ~engine_call ?(policy = Policy.default) ?(config = Config.default)
    ~source ~target () =
  Obs.incr runs;
  Trace.with_span "csp.resilient.ladder" (fun () ->
      annotated
        (match
           if policy.propagate_first then
             propagation_certificate config ~source ~target
           else `Restrict_unchanged
         with
        | `Unsat ->
          Obs.incr propagation_unsats;
          { outcome = Engine.Unsat; attempts = 0; rung = Propagation }
        | (`Restrict _ | `Restrict_unchanged) as r ->
          let config =
            match r with
            | `Restrict restrict ->
              { config with Config.restrict = Some restrict }
            | `Restrict_unchanged -> config
          in
          retry policy ~limits:config.Config.limits (fun ~attempt limits ->
              let config = attempt_config policy ~attempt ~limits config in
              engine_call ~config ~source ~target ())))

let solve ?policy ?config ~source ~target () =
  ladder ~engine_call:(fun ~config ~source ~target () ->
      Engine.solve ~config ~source ~target ())
    ?policy ?config ~source ~target ()

let satisfiable ?policy ?config ~source ~target () =
  ladder ~engine_call:(fun ~config ~source ~target () ->
      Engine.satisfiable ~config ~source ~target ())
    ?policy ?config ~source ~target ()

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
