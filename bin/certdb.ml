(* certdb — command-line front end to the library.

   Instances are written in the Parse syntax: R(1, 2, _x); S(_x, "ann").
   Nulls are _name; the same name is the same null within one instance
   argument (different arguments have disjoint nulls).

     certdb leq    "R(1,_x)" "R(1,2)"          # information ordering
     certdb cwa    "R(_x)"   "R(1)"            # closed-world ordering
     certdb member "R(1,_x)" "R(1,2); R(3,4)"  # membership D' in [[D]]
     certdb glb    "R(1,_x)" "R(1,2)"          # certain information
     certdb lub    "R(1,_x)" "R(_y,2)"         # least upper bound
     certdb core   "R(1,_x); R(1,2)"           # core of an instance
     certdb certain --query "ans(x) :- R(x,y)" "R(1,_u); R(_v,2)"
     certdb chase  --tgd "S(x,y) -> T(x,z); T(z,y)" "S(1,2)"          *)

open Cmdliner
open Certdb_values
open Certdb_relational
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace
module Openmetrics = Certdb_obs.Openmetrics

(* --stats / --stats-json: print the metrics snapshot (counters, gauges,
   span timers populated by the instrumented hot paths) to stderr after
   the subcommand has run, without disturbing its stdout or exit code. *)
let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print a metrics snapshot (search counters, timers) to stderr.")

let stats_json_flag =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:"Print the metrics snapshot as a single JSON object to stderr.")

let emit_stats stats stats_json code =
  if stats_json then prerr_endline (Obs.json_string (Obs.snapshot ()))
  else if stats then
    Format.eprintf "%a%!" Obs.pp_metrics (Obs.snapshot ());
  code

let with_stats term =
  Term.(const emit_stats $ stats_flag $ stats_json_flag $ term)

(* an argument starting with '@' names a file holding the text *)
let resolve_arg s =
  if String.length s > 0 && s.[0] = '@' then begin
    let path = String.sub s 1 (String.length s - 1) in
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> contents
    | exception Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" path msg;
      exit 2
  end
  else s

let parse_instance_arg s =
  try fst (Parse.instance (resolve_arg s)) with
  | Parse.Parse_error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 2

let instance_pos ~pos:p ~doc =
  Arg.(required & pos p (some string) None & info [] ~docv:"INSTANCE" ~doc)

let print_instance d = print_endline (Parse.to_string d)

(* leq *)
let leq_cmd =
  let run d1 d2 =
    let d1 = parse_instance_arg d1 and d2 = parse_instance_arg d2 in
    match Hom.find d1 d2 with
    | Some h ->
      Printf.printf "true\n";
      Format.printf "witness: %a@." Valuation.pp h;
      0
    | None ->
      Printf.printf "false\n";
      1
  in
  let d1 = instance_pos ~pos:0 ~doc:"Less informative instance." in
  let d2 = instance_pos ~pos:1 ~doc:"More informative instance." in
  Cmd.v
    (Cmd.info "leq"
       ~doc:"Decide the information ordering D1 <= D2 (homomorphism).")
    (with_stats Term.(const run $ d1 $ d2))

(* cwa *)
let cwa_cmd =
  let run d1 d2 =
    let d1 = parse_instance_arg d1 and d2 = parse_instance_arg d2 in
    let result = Ordering.cwa_leq d1 d2 in
    Printf.printf "%b\n" result;
    if Codd.is_codd d1 then
      Printf.printf "via Prop. 8 (hoare + Hall): %b\n"
        (Ordering.cwa_leq_codd d1 d2);
    if result then 0 else 1
  in
  let d1 = instance_pos ~pos:0 ~doc:"Less informative instance." in
  let d2 = instance_pos ~pos:1 ~doc:"More informative instance." in
  Cmd.v
    (Cmd.info "cwa" ~doc:"Decide the closed-world ordering (onto homomorphism).")
    (with_stats Term.(const run $ d1 $ d2))

(* member *)
let member_cmd =
  let run d r =
    let d = parse_instance_arg d and r = parse_instance_arg r in
    if not (Instance.is_complete r) then begin
      Printf.eprintf "the second instance must be complete\n";
      2
    end
    else begin
      let result = Semantics.mem r d in
      Printf.printf "%b\n" result;
      if result then 0 else 1
    end
  in
  let d = instance_pos ~pos:0 ~doc:"Incomplete instance D." in
  let r = instance_pos ~pos:1 ~doc:"Complete candidate instance." in
  Cmd.v
    (Cmd.info "member" ~doc:"Decide membership: is the completion in [[D]]?")
    (with_stats Term.(const run $ d $ r))

(* glb *)
let glb_cmd =
  let run reduce ds =
    let instances = List.map parse_instance_arg ds in
    (match instances with
    | [] -> Printf.eprintf "need at least one instance\n"
    | _ ->
      let g = Glb.family instances in
      let g = if reduce then Core_instance.core g else g in
      print_instance g);
    0
  in
  let reduce =
    Arg.(value & flag & info [ "core" ] ~doc:"Reduce the result to its core.")
  in
  let ds = Arg.(non_empty & pos_all string [] & info [] ~docv:"INSTANCE") in
  Cmd.v
    (Cmd.info "glb"
       ~doc:
         "Greatest lower bound (certain information / max-description) of \
          the given instances.")
    (with_stats Term.(const run $ reduce $ ds))

(* lub *)
let lub_cmd =
  let run ds =
    let instances = List.map parse_instance_arg ds in
    print_instance (Lub.family instances);
    0
  in
  let ds = Arg.(non_empty & pos_all string [] & info [] ~docv:"INSTANCE") in
  Cmd.v
    (Cmd.info "lub" ~doc:"Least upper bound (disjoint union, nulls renamed).")
    (with_stats Term.(const run $ ds))

(* core *)
let core_cmd =
  let run d =
    print_instance (Core_instance.core (parse_instance_arg d));
    0
  in
  let d = instance_pos ~pos:0 ~doc:"Instance to reduce." in
  Cmd.v (Cmd.info "core" ~doc:"Core of a naive instance.") (with_stats Term.(const run $ d))

(* certain: CQ concrete syntax "ans(x,y) :- R(x,z), S(z,y)", shared with
   the batch and serve wire format *)
module Wire = Certdb_service.Wire

let parse_cq s =
  match Wire.parse_cq_result s with
  | Ok q -> q
  | Error msg ->
    Printf.eprintf "query parse error: %s\n" msg;
    exit 2

(* shared budget-multiplier flag (certain, batch, serve) *)
let max_attempts_arg =
  Arg.(
    value & opt int 1
    & info [ "max-attempts" ] ~docv:"N"
        ~doc:
          "Budget multiplier: the one budgeted attempt runs under the node \
           and backtrack budgets x 4^(N-1), the total that N escalating \
           attempts would buy.  The timeout is not scaled.")

(* the one place the CLI builds a budget policy *)
let policy_of_flags max_attempts =
  if max_attempts < 1 then begin
    Printf.eprintf "--max-attempts must be >= 1\n";
    exit 2
  end;
  Certdb_csp.Resilient.Policy.make ~max_attempts ()

(* shared search budget flags (certain, serve) *)
let limits_term =
  let serve = " For serve, the default for requests that set none." in
  let budget what =
    what
    ^ " The search runs once, under it x 4^(N-1) for --max-attempts N.  It \
       counts the search's branching decisions, so it does not bound the \
       acyclic and bounded-width routes, whose decisions the query's \
       width bounds instead (--timeout-ms does)."
    ^ serve
  in
  let nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-budget" ] ~docv:"N" ~doc:(budget "Search node budget."))
  in
  let backtracks =
    Arg.(
      value
      & opt (some int) None
      & info [ "backtrack-budget" ] ~docv:"N"
          ~doc:(budget "Backtrack budget."))
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            ("Wall-clock budget: one deadline for the search, counted \
              from its start.  The SAT route's fallback runs with the \
              time left; once none is left, it does not start."
            ^ serve))
  in
  Term.(
    const (fun nodes backtracks timeout_ms ->
        Certdb_csp.Engine.Limits.make ?nodes ?backtracks ?timeout_ms ())
    $ nodes $ backtracks $ timeout_ms)

(* shared solver-backend choice (certain, batch, serve) *)
module Sat_backend = Certdb_sat.Backend

let backend_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("csp", Sat_backend.Csp);
             ("sat", Sat_backend.Sat);
             ("auto", Sat_backend.Auto);
           ])
        Sat_backend.Csp
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Solver backend for Boolean certainty: csp (backtracking hom \
           search, the default), sat (CNF + CDCL with symmetry breaking \
           over interchangeable nulls), or auto (route per instance on the \
           planner's certificates; every route runs the backtracking \
           search, which breaks the symmetry of interchangeable nulls \
           itself).  Under sat, a search that trips its budget crosses to \
           the CSP engine within the time left; the CSP search answers its \
           lower bound directly.")

let certain_cmd =
  let run query degrade explain backend limits max_attempts d =
    let policy = policy_of_flags max_attempts in
    let d = parse_instance_arg d in
    let q = parse_cq query in
    (* --explain: root a trace around the evaluation and print its span
       tree (route, rung, timings) as one JSON line on stderr,
       leaving stdout untouched *)
    let code, tid =
      Trace.with_trace "certdb.certain" @@ fun tid ->
      let code =
        (* the planner routes on the query's certificates: non-Boolean
           CQs/UCQs to naive evaluation (Theorem 4), Boolean CQs to the
           cheapest sound decision procedure; --degrade only chooses how
           the graded answer is printed *)
        if q.Certdb_query.Cq.head <> [] then
          if degrade then begin
            Printf.eprintf "--degrade %s\n" Wire.boolean_only;
            2
          end
          else begin
            let u = Certdb_query.Ucq.make [ q ] in
            print_instance (Certdb_analysis.Plan.certain_answers u d);
            0
          end
        else
          match
            Certdb_analysis.Plan.certain ~policy ~limits ~backend q d
          with
          | `Exact b when degrade ->
            Printf.printf "exact: %b\n" b;
            if b then 0 else 1
          | `Lower_bound b when degrade ->
            Printf.printf "lower-bound: %b\n" b;
            if b then 0 else 1
          | `Exact b | `Lower_bound b ->
            (* ans() only when the answer certifies truth *)
            print_instance
              (if b then Instance.add_fact Instance.empty "ans" []
               else Instance.empty);
            0
      in
      (code, tid)
    in
    if explain then
      prerr_endline (Obs.Json.to_string (Trace.summary tid));
    code
  in
  let query =
    Arg.(
      required
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"CQ"
          ~doc:"Conjunctive query, e.g. 'ans(_x) :- R(_x,_y)'.")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Boolean query only: print the planner's graded answer, \
             'exact: B' or, when the search tripped its budget or the \
             deadline passed, 'lower-bound: false' (no witness within \
             budget); exit 1 unless it certifies truth.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the request's trace summary (plan route, resilient \
             rung, span timings) as one JSON line on stderr.")
  in
  let d = instance_pos ~pos:0 ~doc:"Incomplete instance." in
  Cmd.v
    (Cmd.info "certain"
       ~doc:
         "Certain answers of a conjunctive query through the planner; with \
          --degrade, the graded Boolean answer, never unknown.")
    (with_stats
       Term.(
         const run $ query $ degrade $ explain $ backend_arg
         $ limits_term $ max_attempts_arg $ d))

(* chase *)
let split_arrow s =
  let rec find i =
    if i + 1 >= String.length s then None
    else if s.[i] = '-' && s.[i + 1] = '>' then
      Some (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
    else find (i + 1)
  in
  find 0

(* "body -> head" with shared variable names meaning the same nulls: the
   head parse is seeded with the body's bindings *)
let parse_dependency_result s =
  match split_arrow (resolve_arg s) with
  | None -> Error "expected 'body -> head'"
  | Some (body_s, head_s) -> (
    match
      let body, bindings = Parse.instance body_s in
      let head, _ = Parse.instance ~bindings head_s in
      (body, head)
    with
    | pair -> Ok pair
    | exception Parse.Parse_error m -> Error m)

let parse_dependency s =
  match parse_dependency_result s with
  | Ok pair -> pair
  | Error msg ->
    Printf.eprintf "tgd parse error: %s\n" msg;
    exit 2

let parse_tgd s =
  let body, head = parse_dependency s in
  Certdb_exchange.Mapping.relational_rule ~body ~head

let parse_target_tgd s =
  let body, head = parse_dependency s in
  Certdb_exchange.Constraints.tgd ~body ~head

(* "body -> l = r": reuse the instance parser on a synthetic EQ(l, r)
   atom so both sides share the body's null bindings *)
let parse_egd_result s =
  match split_arrow (resolve_arg s) with
  | None -> Error "expected 'body -> left = right'"
  | Some (body_s, eq_s) -> (
    match String.index_opt eq_s '=' with
    | None -> Error "expected 'left = right' after ->"
    | Some i -> (
      let l = String.trim (String.sub eq_s 0 i) in
      let r =
        String.trim (String.sub eq_s (i + 1) (String.length eq_s - i - 1))
      in
      match
        let body, bindings = Parse.instance body_s in
        let eq, _ = Parse.instance ~bindings (Printf.sprintf "EQ(%s, %s)" l r) in
        match Instance.facts eq with
        | [ { args = [| left; right |]; _ } ] ->
          Certdb_exchange.Constraints.egd ~body ~left ~right
        | _ -> invalid_arg "egd: expected exactly two sides"
      with
      | egd -> Ok egd
      | exception Parse.Parse_error m -> Error m
      | exception Invalid_argument m -> Error m))

let parse_egd s =
  match parse_egd_result s with
  | Ok egd -> egd
  | Error msg ->
    Printf.eprintf "egd parse error: %s\n" msg;
    exit 2

let parse_fd_arg s =
  match Certdb_analysis.Fd.parse (resolve_arg s) with
  | Ok f -> f
  | Error msg ->
    Printf.eprintf "fd parse error: %s\n" msg;
    exit 2

let chase_cmd =
  let module Fd = Certdb_analysis.Fd in
  let run tgds target_tgds target_egds target_fds d =
    let source = parse_instance_arg d in
    let mapping = List.map parse_tgd tgds in
    let solution = Certdb_exchange.Universal.chase_relational mapping source in
    if target_tgds = [] && target_egds = [] && target_fds = [] then begin
      print_instance solution;
      0
    end
    else begin
      let fds = List.map parse_fd_arg target_fds in
      let fd_egds =
        let schema = Instance.schema solution in
        List.concat_map
          (fun (f : Fd.fd) ->
            match Schema.arity schema f.Fd.rel with
            | Some arity -> Fd.to_egds ~arity f
            | None ->
              Printf.eprintf
                "target-fd %s: relation %s not in the canonical solution\n"
                (Fd.to_string f) f.Fd.rel;
              exit 2)
          fds
      in
      let constraints =
        Certdb_exchange.Constraints.make
          ~tgds:(List.map parse_target_tgd target_tgds)
          ~egds:(List.map parse_egd target_egds @ fd_egds)
          ()
      in
      (* no explicit round cap: weakly acyclic target constraints run
         with the certified derived bound (exchange.chase.certified) *)
      match Certdb_exchange.Constraints.chase solution constraints with
      | chased ->
        print_instance chased;
        (* the chase enforced each FD as egds; validate the result
           against the certificate analysis — the verdict must not be
           "violated" (a clash would have failed the chase), and the
           grade is printed so scripts can pin it *)
        let grades =
          List.map (fun f -> (f, Fd.grade (Fd.check chased f))) fds
        in
        List.iter
          (fun (f, g) ->
            Printf.printf "target-fd %s: %s\n" (Fd.to_string f)
              (Fd.grade_name g))
          grades;
        if List.for_all (fun (_, g) -> g <> Fd.Violated) grades then 0 else 1
      | exception Certdb_exchange.Constraints.Chase_failure msg ->
        Printf.eprintf "chase failed: %s\n" msg;
        1
    end
  in
  let tgds =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "tgd" ] ~docv:"TGD"
          ~doc:
            "Source-to-target dependency, e.g. 'S(_x,_y) -> T(_x,_z); \
             T(_z,_y)'.  Repeatable.")
  in
  let target_tgds =
    Arg.(
      value
      & opt_all string []
      & info [ "target-tgd" ] ~docv:"TGD"
          ~doc:
            "Target tgd chased into the canonical solution.  Weakly \
             acyclic sets run with the certified round bound.  Repeatable.")
  in
  let target_egds =
    Arg.(
      value
      & opt_all string []
      & info [ "target-egd" ] ~docv:"EGD"
          ~doc:
            "Target egd, e.g. 'T(_x,_y); T(_x,_z) -> _y = _z'.  Repeatable.")
  in
  let target_fds =
    Arg.(
      value
      & opt_all string []
      & info [ "target-fd" ] ~docv:"FD"
          ~doc:
            "Target functional dependency, e.g. 'T: 1 -> 2' (1-based \
             positions), enforced as egds and validated against its \
             certificate after the chase.  Repeatable.")
  in
  let d = instance_pos ~pos:0 ~doc:"Source instance." in
  Cmd.v
    (Cmd.info "chase"
       ~doc:
         "Chase a source instance: canonical universal solution, \
          optionally followed by the target-constraint chase.")
    (with_stats
       Term.(const run $ tgds $ target_tgds $ target_egds $ target_fds $ d))

(* certain-fo: Boolean FO certainty *)
let certain_fo_cmd =
  let run query mode d =
    let d = parse_instance_arg d in
    let f =
      try Certdb_query.Fo_parse.formula (resolve_arg query)
      with Certdb_query.Fo_parse.Parse_error msg ->
        Printf.eprintf "formula parse error: %s\n" msg;
        exit 2
    in
    let result =
      match mode with
      | `Naive -> Certdb_query.Certain.naive_holds f d
      | `Cwa -> Certdb_query.Certain.certain_holds_cwa f d
      | `Owa ->
        if Certdb_query.Fo.is_existential f then
          Certdb_query.Certain.certain_existential f d
        else begin
          Printf.eprintf
            "owa certainty is only exact for existential sentences; use \
             --mode cwa or --mode naive\n";
          exit 2
        end
    in
    Printf.printf "%b\n" result;
    if result then 0 else 1
  in
  let query =
    Arg.(
      required
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"FO"
          ~doc:"Sentence, e.g. 'exists x. R(x,1) and not S(x)'.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("owa", `Owa); ("cwa", `Cwa); ("naive", `Naive) ]) `Owa
      & info [ "mode" ]
          ~doc:
            "owa: exact certainty for existential sentences; cwa: certainty \
             over groundings; naive: evaluate with nulls as values.")
  in
  let d = instance_pos ~pos:0 ~doc:"Incomplete instance." in
  Cmd.v
    (Cmd.info "certain-fo"
       ~doc:"Certain truth of a Boolean first-order sentence.")
    (with_stats Term.(const run $ query $ mode $ d))

(* tree commands *)
let parse_tree_arg s =
  try fst (Certdb_xml.Tree_parse.tree (resolve_arg s)) with
  | Certdb_xml.Tree_parse.Parse_error msg ->
    Printf.eprintf "tree parse error: %s\n" msg;
    exit 2

let tree_pos ~pos:p ~doc =
  Arg.(required & pos p (some string) None & info [] ~docv:"TREE" ~doc)

let tree_leq_cmd =
  let run t1 t2 =
    let t1 = parse_tree_arg t1 and t2 = parse_tree_arg t2 in
    let result = Certdb_xml.Tree_hom.leq t1 t2 in
    Printf.printf "%b\n" result;
    if result then 0 else 1
  in
  let t1 = tree_pos ~pos:0 ~doc:"Less informative tree." in
  let t2 = tree_pos ~pos:1 ~doc:"More informative tree." in
  Cmd.v
    (Cmd.info "tree-leq"
       ~doc:"Information ordering on XML trees (homomorphism existence).")
    (with_stats Term.(const run $ t1 $ t2))

let tree_glb_cmd =
  let run ts =
    let trees = List.map parse_tree_arg ts in
    (match Certdb_xml.Tree_glb.family_reduced trees with
    | Some g -> print_endline (Certdb_xml.Tree_parse.to_string g)
    | None -> print_endline "(no glb: root labels differ)");
    0
  in
  let ts = Arg.(non_empty & pos_all string [] & info [] ~docv:"TREE") in
  Cmd.v
    (Cmd.info "tree-glb"
       ~doc:
         "Certain information (max-description) of a set of XML trees: the \
          glb in the tree class.")
    (with_stats Term.(const run $ ts))

let tree_member_cmd =
  let run t candidate =
    let t = parse_tree_arg t and candidate = parse_tree_arg candidate in
    if not (Certdb_xml.Tree.is_complete candidate) then begin
      Printf.eprintf "the second tree must be complete\n";
      2
    end
    else begin
      (* trees have treewidth 1: under the Codd interpretation the
         Theorem 6 bounded-width search decides membership in PTIME *)
      let db = Certdb_xml.Tree.to_gdb t in
      let result =
        if Certdb_gdm.Gdb.codd db then
          Certdb_gdm.Membership.codd_leq db (Certdb_xml.Tree.to_gdb candidate)
        else Certdb_xml.Tree_hom.mem candidate t
      in
      Printf.printf "%b\n" result;
      if result then 0 else 1
    end
  in
  let t = tree_pos ~pos:0 ~doc:"Incomplete tree T." in
  let candidate = tree_pos ~pos:1 ~doc:"Complete candidate tree." in
  Cmd.v
    (Cmd.info "tree-member" ~doc:"Membership: is the complete tree in [[T]]?")
    (with_stats Term.(const run $ t $ candidate))

(* batch: JSONL of independent budgeted problems, fanned out over a pool
   of domains (Csp.Engine.Batch).  One JSON object per input line:

     {"op":"leq","d1":"R(1,_x)","d2":"R(1,2)","node_budget":1000}
     {"op":"member","d":"R(1,_x)","r":"R(1,2)"}
     {"op":"certain","query":"ans() :- R(_x,_y)","d":"R(1,_u)"}

   Optional fields: "id" (echoed; defaults to the line index),
   "node_budget", "backtrack_budget", "timeout_ms", and "backend" on
   certain lines.  Output is JSONL in input order regardless of --jobs,
   one of status sat / unsat / unknown / error.  leq and member run
   once under the budgets scaled by --max-attempts, and an unknown
   carries the tripped limit as "reason".  A certain line must be
   Boolean and is decided by the planner, as certain and serve decide
   it: an exhausted search's lower bound is "grade":"lower-bound", with
   status sat when it certifies truth and unknown otherwise. *)
module Json = Obs.Json
module Engine = Certdb_csp.Engine
module Server = Certdb_service.Server
module Supervisor = Certdb_service.Supervisor
module Client = Certdb_service.Client

let batch_cmd =
  let run jobs max_attempts on_error backend file =
    let policy = policy_of_flags max_attempts in
    let cancel, failure_policy =
      match on_error with
      | `Continue -> (None, Engine.Batch.Continue)
      | `Fail_fast ->
        let c = Engine.Cancel.create () in
        (Some c, Engine.Batch.Fail_fast c)
    in
    (* Stream the input line by line instead of slurping the file: lines
       are parsed in the calling domain — the parser mints fresh nulls
       and ids deterministically — and solved in input-order chunks on
       the worker pool, so memory is bounded by the chunk size, not the
       file size.  Under --on-error fail-fast every task's limits carry
       the shared cancel token: in-flight searches stop early, and once
       the token is tripped later chunks drain as skipped rows. *)
    let process ic =
      let chunk_size = max 64 (8 * jobs) in
      let saw_bad = ref false in
      let next_idx = ref 0 in
      let flush_chunk pending =
        let tasks = List.rev pending in
        let results =
          Engine.Batch.map_result ~jobs ~on_error:failure_policy
            (Wire.run_task ~policy) tasks
        in
        List.iter2
          (fun (idx, (id, op, _)) result ->
            let row =
              match result with
              | Ok row -> row
              | Error (Engine.Batch.Raised { exn; _ }) ->
                Wire.row ~idx ~id ~op
                  (Wire.error_fields (Wire.describe_exn exn))
              | Error Engine.Batch.Skipped ->
                Wire.row ~idx ~id ~op [ ("status", Json.String "skipped") ]
            in
            (match Json.member "status" row with
            | Some (Json.String ("error" | "skipped")) -> saw_bad := true
            | _ -> ());
            print_endline (Json.to_string row))
          tasks results
      in
      let rec loop pending n =
        match In_channel.input_line ic with
        | None -> if pending <> [] then flush_chunk pending
        | Some line ->
          let line = String.trim line in
          if line = "" then loop pending n
          else begin
            let idx = !next_idx in
            incr next_idx;
            let task = (idx, Wire.parse_task ?cancel ~backend idx line) in
            if n + 1 >= chunk_size then begin
              flush_chunk (task :: pending);
              loop [] 0
            end
            else loop (task :: pending) (n + 1)
          end
      in
      loop [] 0;
      if !saw_bad then 1 else 0
    in
    if file = "-" then process stdin
    else
      match In_channel.with_open_text file process with
      | code -> code
      | exception Sys_error msg ->
        Printf.eprintf "cannot read %s: %s\n" file msg;
        exit 2
  in
  let jobs =
    Arg.(
      value
      & opt int (Engine.Batch.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains (default: the recommended domain count).")
  in
  let on_error =
    Arg.(
      value
      & opt (enum [ ("continue", `Continue); ("fail-fast", `Fail_fast) ]) `Continue
      & info [ "on-error" ] ~docv:"POLICY"
          ~doc:
            "continue: isolate task failures as structured error records; \
             fail-fast: stop popping tasks after the first failure and \
             cancel in-flight searches (unstarted tasks are reported as \
             skipped).")
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL input file, or - for stdin.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve a JSONL stream of independent budgeted problems on a \
          domain pool; output is JSONL in input order.")
    (with_stats
       Term.(
         const run $ jobs $ max_attempts_arg $ on_error
         $ backend_arg $ file))

(* serve: the long-running query server (lib/service).  JSONL over stdio
   or a Unix socket; named database registry; semantic cache keyed by
   core-canonical query form x database fingerprint. *)
(* --metrics-file: a writer domain re-renders the OpenMetrics exposition
   every interval, writing to a temp file and renaming over the target so
   a scraper never reads a torn exposition *)
let write_metrics_file path =
  let body = Openmetrics.expose (Obs.snapshot ()) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc body;
  close_out oc;
  Sys.rename tmp path

let start_metrics_writer ~path ~interval_ms =
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rec loop () =
          if not (Atomic.get stop) then begin
            write_metrics_file path;
            (* sleep in short slices so shutdown stays prompt *)
            let remaining = ref (Float.max interval_ms 1.0) in
            while (not (Atomic.get stop)) && !remaining > 0.0 do
              let slice = Float.min 50.0 !remaining in
              Unix.sleepf (slice /. 1000.0);
              remaining := !remaining -. slice
            done;
            loop ()
          end
        in
        loop ();
        (* one final exposition so the file reflects the full run *)
        write_metrics_file path)
  in
  fun () ->
    Atomic.set stop true;
    Domain.join writer

let serve_cmd =
  let run socket cache_capacity no_cache canon_budget jobs backend
      max_attempts default_limits slow_ms metrics_file
      metrics_interval_ms trace_buffer preload conns queue_capacity
      request_timeout_ms max_line_bytes backlog retry_after_ms =
    let policy = policy_of_flags max_attempts in
    Option.iter Trace.set_capacity trace_buffer;
    let config =
      Server.Config.make
        ~cache_capacity:(if no_cache then 0 else cache_capacity)
        ~canon_budget ~policy ~default_limits ~jobs ?slow_ms ~backend ()
    in
    let server = Server.create ~config () in
    List.iter
      (fun spec ->
        match String.index_opt spec '=' with
        | None ->
          Printf.eprintf "--load expects NAME=INSTANCE\n";
          exit 2
        | Some i ->
          let name = String.sub spec 0 i in
          let source =
            resolve_arg (String.sub spec (i + 1) (String.length spec - i - 1))
          in
          (match Server.load server ~name ~source with
          | Ok _ -> ()
          | Error m ->
            Printf.eprintf "--load %s: parse error: %s\n" name m;
            exit 2))
      preload;
    let stop_metrics =
      Option.map
        (fun path ->
          start_metrics_writer ~path ~interval_ms:metrics_interval_ms)
        metrics_file
    in
    Fun.protect
      ~finally:(fun () -> Option.iter (fun stop -> stop ()) stop_metrics)
      (fun () ->
        match socket with
        | None -> (
          match Server.serve ~max_line_bytes server stdin stdout with
          | `Shutdown | `Eof -> ())
        | Some path ->
          let config =
            Supervisor.Config.make ~conns ~queue_capacity ?request_timeout_ms
              ~max_line_bytes ~backlog ~retry_after_ms ()
          in
          Supervisor.run ~config server ~path);
    0
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of stdio: concurrent \
             connections on a supervised worker pool with admission \
             control; a client's shutdown request (or SIGTERM) drains \
             the server.")
  in
  let conns =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N"
          ~doc:"Concurrent connections (worker domains) on the socket.")
  in
  let queue_capacity =
    Arg.(
      value & opt int 16
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Accepted connections allowed to wait for a worker; beyond \
             it, new connections are shed with an overloaded row \
             carrying retry_after_ms.")
  in
  let request_timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request read deadline on socket connections; a \
             connection idle past it is answered with an error row and \
             closed, reclaiming its worker.")
  in
  let max_line_bytes =
    Arg.(
      value
      & opt int Wire.default_max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:
            "Request line cap; longer lines are drained (never buffered \
             whole) and answered with an error row.")
  in
  let backlog =
    Arg.(
      value & opt int 64
      & info [ "backlog" ] ~docv:"N"
          ~doc:"listen(2) backlog of the Unix socket.")
  in
  let retry_after_ms =
    Arg.(
      value & opt float 50.0
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:
            "Base retry_after_ms hint on overloaded (shed) rows; the \
             hint grows with queue pressure.")
  in
  let cache_capacity =
    Arg.(
      value & opt int 1024
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Semantic cache entries before LRU eviction.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the semantic cache entirely.")
  in
  let canon_budget =
    Arg.(
      value
      & opt int Certdb_service.Canon.default_budget
      & info [ "canon-budget" ] ~docv:"N"
          ~doc:
            "Query-canonicalisation search budget; queries exceeding it \
             bypass the cache.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Engine.Batch.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains for the batch verb.")
  in
  let preload =
    Arg.(
      value
      & opt_all string []
      & info [ "load" ] ~docv:"NAME=INSTANCE"
          ~doc:
            "Preload a named database before serving ('@file' reads the \
             instance from a file).  Repeatable.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold: any request at least this slow logs a \
             JSON row with its full span tree to stderr.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"PATH"
          ~doc:
            "Periodically write an OpenMetrics text exposition of all \
             metrics to PATH (atomic rename), for file-based scrapers.")
  in
  let metrics_interval_ms =
    Arg.(
      value & opt float 2000.0
      & info [ "metrics-interval-ms" ] ~docv:"MS"
          ~doc:"Interval between --metrics-file writes.")
  in
  let trace_buffer =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-buffer" ] ~docv:"N"
          ~doc:
            "Capacity of the trace ring buffer (completed spans retained \
             for the trace verb); default 8192.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the query server: JSONL requests (load / unload / query / \
          batch / stats / trace / metrics / ping / shutdown) over stdio \
          or a supervised concurrent Unix socket, with a semantic cache \
          keyed by core-canonical query form and database fingerprint.")
    (with_stats
       Term.(
         const run $ socket $ cache_capacity $ no_cache $ canon_budget $ jobs
         $ backend_arg $ max_attempts_arg $ limits_term
         $ slow_ms $ metrics_file $ metrics_interval_ms $ trace_buffer
         $ preload $ conns $ queue_capacity $ request_timeout_ms
         $ max_line_bytes $ backlog $ retry_after_ms))

(* stats: observability self-test.  Runs a small fixed workload through
   every instrumented subsystem (CSP engine, relational hom, glb,
   chase, naive evaluation, XML tree hom) and prints the snapshot; exits
   nonzero if a hot-path counter stayed at zero, so CI can use it as a
   telemetry smoke test. *)
let stats_cmd =
  let run json openmetrics =
    Obs.reset ();
    (* CSP solver: C4 -> C2 edge-preserving map (4 decisions minimum) *)
    let cycle n =
      let s =
        List.fold_left
          (fun s v -> Certdb_csp.Structure.add_node s v)
          Certdb_csp.Structure.empty
          (List.init n Fun.id)
      in
      List.fold_left
        (fun s v -> Certdb_csp.Structure.add_edge s "E" v ((v + 1) mod n))
        s (List.init n Fun.id)
    in
    ignore
      (Certdb_csp.Solver.find_hom ~source:(cycle 4) ~target:(cycle 2) ());
    (* relational: ordering, glb, lub on a fixed pair *)
    let d = parse_instance_arg "R(1,_x); R(_x,2)"
    and d' = parse_instance_arg "R(1,9); R(9,2)" in
    ignore (Hom.find d d');
    ignore (Glb.glb d d');
    ignore (Lub.pair d d');
    (* chase + naive evaluation *)
    let tgd = parse_tgd "S(_x,_y) -> T(_x,_z); T(_z,_y)" in
    ignore
      (Certdb_exchange.Universal.chase_relational [ tgd ]
         (parse_instance_arg "S(1,2)"));
    let q = parse_cq "ans(_x) :- R(_x,_y)" in
    ignore
      (Certdb_query.Certain.naive_eval_ucq
         (Certdb_query.Ucq.make [ q ])
         d);
    (* XML tree hom *)
    ignore
      (Certdb_xml.Tree_hom.leq
         (parse_tree_arg "r[a(_x)]")
         (parse_tree_arg "r[a(7)]"));
    let m = Obs.snapshot () in
    let lint_ok =
      if openmetrics then begin
        (* print the exposition and self-lint it, so CI rejects invalid
           or duplicate metric names the moment they appear *)
        let body = Openmetrics.expose m in
        print_string body;
        match Openmetrics.lint body with
        | Ok () -> true
        | Error msg ->
          Printf.eprintf "openmetrics lint: %s\n" msg;
          false
      end
      else begin
        if json then print_endline (Obs.json_string m)
        else Format.printf "%a%!" Obs.pp_metrics m;
        true
      end
    in
    let nonzero name =
      match Obs.find_counter m name with Some n when n > 0 -> true | _ -> false
    in
    let required =
      [
        "csp.solver.decisions"; "csp.solver.searches";
        "rel.glb.pairs"; "rel.lub.pairs"; "exchange.chase.steps";
        "query.naive_evals"; "xml.tree_hom.searches";
      ]
    in
    let missing = List.filter (fun n -> not (nonzero n)) required in
    if missing <> [] then
      Printf.eprintf "self-test: counters stayed at zero: %s\n"
        (String.concat ", " missing);
    if missing = [] && lint_ok then 0 else 1
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the snapshot as JSON instead of text.")
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Print the snapshot as an OpenMetrics text exposition and \
             lint it (exit 1 on invalid or duplicate metric names).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Observability self-test: run a fixed workload through the \
          instrumented hot paths and print the metrics snapshot.")
    Term.(const run $ json $ openmetrics)

(* trace: export the span ring buffer as Chrome trace-event JSON — load
   the output in about:tracing or Perfetto.  Either replay a JSONL
   request file in-process (the trace is produced locally) or ask a
   running server for its buffer over the Unix socket. *)
let trace_cmd =
  let dump_replay file =
    Trace.clear ();
    let server = Server.create () in
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let idx = ref 0 in
        try
          while true do
            let line = input_line ic in
            incr idx;
            if String.trim line <> "" then
              ignore (Server.handle_line server ~idx:!idx line)
          done
        with End_of_file -> ());
    Ok (Json.to_string (Trace.chrome (Trace.events ())))
  in
  let dump_socket path =
    (* the retrying client: timeouts, reconnects and shed rows are
       handled below the verb *)
    let client = Client.connect ~path () in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        match Client.request client [ ("op", Json.String "trace") ] with
        | Error m -> Error (Printf.sprintf "%s: %s" path m)
        | Ok j -> (
          match Json.member "chrome" j with
          | Some chrome -> Ok (Json.to_string chrome)
          | None ->
            Error
              (Printf.sprintf "response carries no trace: %s"
                 (Json.to_string j))))
  in
  let dump_run replay socket out =
    let result =
      match (replay, socket) with
      | Some file, None -> dump_replay file
      | None, Some path -> dump_socket path
      | _ -> Error "pass exactly one of --replay or --socket"
    in
    match result with
    | Error msg ->
      Printf.eprintf "trace dump: %s\n" msg;
      1
    | Ok body -> (
      match out with
      | None ->
        print_endline body;
        0
      | Some path ->
        let oc = open_out path in
        output_string oc body;
        output_char oc '\n';
        close_out oc;
        0)
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a JSONL request file through an in-process server and \
             dump the resulting trace.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Fetch the trace buffer from a running server over its Unix \
             socket (sends the trace verb).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the JSON to FILE instead of stdout.")
  in
  let dump_cmd =
    Cmd.v
      (Cmd.info "dump"
         ~doc:
           "Emit the span ring buffer as Chrome trace-event JSON \
            (about:tracing / Perfetto).")
      Term.(const dump_run $ replay $ socket $ out)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Request-scoped tracing: export recorded span trees.")
    [ dump_cmd ]

(* ping: liveness probe against a running serve --socket, through the
   retrying client, so it doubles as a health check under overload *)
let ping_cmd =
  let run socket timeout_ms retries =
    let config =
      Client.Config.make ~request_timeout_ms:timeout_ms ~max_retries:retries
        ()
    in
    let client = Client.connect ~config ~path:socket () in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        match Client.ping client with
        | Ok ms ->
          Printf.printf "pong %.1f ms\n" ms;
          0
        | Error m ->
          Printf.eprintf "ping: %s\n" m;
          1)
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of the server.")
  in
  let timeout_ms =
    Arg.(
      value & opt float 2000.0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-attempt response deadline.")
  in
  let retries =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retries beyond the first attempt.")
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:
         "Round-trip liveness probe against a running server (exit 0 on \
          pong, 1 when unreachable after the retry budget).")
    Term.(const run $ socket $ timeout_ms $ retries)

(* analyze: static classification with machine-checkable certificates,
   plus the planner's routing decision.  Exit code: 0 when every analyzed
   class is positive (safe / terminating), 1 when some class is negative
   (unsafe FO, diverging tgd set), 2 on parse errors. *)
module Safety = Certdb_analysis.Safety
module Monotone = Certdb_analysis.Monotone
module Hypergraph = Certdb_analysis.Hypergraph
module Wa = Certdb_analysis.Wa
module Plan = Certdb_analysis.Plan
module Fd = Certdb_analysis.Fd
module Independence = Certdb_analysis.Independence
module Footprint = Certdb_analysis.Footprint

let pos_str p = Format.asprintf "%a" Wa.pp_position p
let json_strings l = Json.List (List.map (fun s -> Json.String s) l)

(* ---- fd / independence / footprint certificate reports ---------------- *)

let tuple_str t =
  "(" ^ String.concat ", " (List.map Value.to_string (Array.to_list t)) ^ ")"

let value_pair_json (a, b) =
  json_strings [ Value.to_string a; Value.to_string b ]

let fd_cert_json = function
  | Fd.All_pairs_safe { pairs; x_incompatible; y_forced } ->
    Json.Obj
      [
        ("kind", Json.String "all-pairs-safe");
        ("pairs", Json.Int pairs);
        ("x_incompatible", Json.Int x_incompatible);
        ("y_forced", Json.Int y_forced);
      ]
  | Fd.Completion_exists { merges } ->
    Json.Obj
      [
        ("kind", Json.String "completion-exists");
        ("merges", Json.List (List.map value_pair_json merges));
      ]
  | Fd.Violating_pair v ->
    Json.Obj
      [
        ("kind", Json.String "violating-pair");
        ("tuple1", Json.String (tuple_str v.Fd.v_tuple1));
        ("tuple2", Json.String (tuple_str v.Fd.v_tuple2));
        ("position", Json.Int (v.Fd.v_position + 1));
        ("unifier", Json.List (List.map value_pair_json v.Fd.v_unifier));
      ]
  | Fd.Forced_clash { chain; left; right } ->
    Json.Obj
      [
        ("kind", Json.String "forced-clash");
        ("left", Json.String (Value.to_string left));
        ("right", Json.String (Value.to_string right));
        ("chain", Json.Int (List.length chain));
      ]

(* the three-valued verdict as JSON fields, shared by both families *)
let graded_json cert_json = function
  | Fd.Certainly_satisfies c ->
    [ ("grade", Json.String "certain"); ("certificate", cert_json c) ]
  | Fd.Possibly_satisfies { sat; falsified } ->
    [
      ("grade", Json.String "possible");
      ("sat", cert_json sat);
      ("falsified", cert_json falsified);
    ]
  | Fd.Certainly_violates c ->
    [ ("grade", Json.String "violated"); ("certificate", cert_json c) ]

let fd_report d fds =
  let rows =
    List.map
      (fun f ->
        let v = Fd.check d f in
        (f, v, Fd.grade v))
      fds
  in
  ( List.for_all (fun (_, _, g) -> g <> Fd.Violated) rows,
    String.concat "\n"
      (List.map
         (fun (f, _, g) ->
           Printf.sprintf "fd %s: %s" (Fd.to_string f) (Fd.grade_name g))
         rows),
    ( "fds",
      Json.List
        (List.map
           (fun (f, v, _) ->
             Json.Obj
               (("fd", Json.String (Fd.to_string f))
               :: graded_json fd_cert_json v))
           rows) ) )

let ind_cert_json = function
  | Independence.Product_holds { x_blocks; y_blocks; rows; canonical } ->
    Json.Obj
      [
        ("kind", Json.String "product-holds");
        ("x_blocks", Json.Int x_blocks);
        ("y_blocks", Json.Int y_blocks);
        ("rows", Json.Int rows);
        ("canonical", Json.Int canonical);
      ]
  | Independence.Missing_combination { m_x; m_y; m_valuation } ->
    Json.Obj
      [
        ("kind", Json.String "missing-combination");
        ("x", Json.String (tuple_str m_x));
        ("y", Json.String (tuple_str m_y));
        ("valuation", Json.List (List.map value_pair_json m_valuation));
      ]

let independence_report d atoms =
  let rows =
    List.map
      (fun a ->
        let v = Independence.check d a in
        (a, v, Fd.grade v))
      atoms
  in
  ( List.for_all (fun (_, _, g) -> g <> Fd.Violated) rows,
    String.concat "\n"
      (List.map
         (fun (a, _, g) ->
           Printf.sprintf "independence %s: %s" (Independence.to_string a)
             (Fd.grade_name g))
         rows),
    ( "independence",
      Json.List
        (List.map
           (fun (a, v, _) ->
             Json.Obj
               (("atom", Json.String (Independence.to_string a))
               :: graded_json ind_cert_json v))
           rows) ) )

let footprint_report ?constraints q =
  let fp = Footprint.of_cq q in
  let closed = Option.map (fun c -> Footprint.close_under_tgds c fp) constraints in
  let positions_json = function
    | Footprint.All -> Json.String "*"
    | Footprint.Only ps ->
      Json.List (List.map (fun p -> Json.Int (p + 1)) ps)
  in
  ( true,
    "footprint: " ^ Footprint.to_key fp
    ^ (match closed with
      | Some c -> "\nfootprint closed under tgds: " ^ Footprint.to_key c
      | None -> ""),
    ( "footprint",
      Json.Obj
        ([
           ( "rels",
             Json.List
               (List.map
                  (fun (r, p) ->
                    Json.Obj
                      [
                        ("rel", Json.String r); ("positions", positions_json p);
                      ])
                  fp.Footprint.rels) );
           ( "constants",
             json_strings (List.map Value.to_string fp.Footprint.constants) );
           ("key", Json.String (Footprint.to_key fp));
         ]
        @
        match closed with
        | None -> []
        | Some c -> [ ("closed_key", Json.String (Footprint.to_key c)) ]) ) )

(* a --fds/--independence argument is a file of one constraint per line
   ('#' comments); inline text (';'-separated, @FILE indirection) also
   works, matching every other certdb argument *)
let constraint_lines s =
  let text =
    if (not (String.length s > 0 && s.[0] = '@')) && Sys.file_exists s then
      match In_channel.with_open_text s In_channel.input_all with
      | contents -> contents
      | exception Sys_error msg ->
        Printf.eprintf "cannot read %s: %s\n" s msg;
        exit 2
    else resolve_arg s
  in
  String.split_on_char '\n' text
  |> List.concat_map (String.split_on_char ';')
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let parse_fds_arg s =
  List.map
    (fun line ->
      match Fd.parse line with
      | Ok f -> f
      | Error msg ->
        Printf.eprintf "fd parse error in %S: %s\n" line msg;
        exit 2)
    (constraint_lines s)

let parse_independence_arg s =
  List.map
    (fun line ->
      match Independence.parse line with
      | Ok a -> a
      | Error msg ->
        Printf.eprintf "independence parse error in %S: %s\n" line msg;
        exit 2)
    (constraint_lines s)

let safety_report f =
  match Safety.analyze f with
  | Safety.Safe { range_restricted; derivation } ->
    ( true,
      Printf.sprintf "safety: safe (range-restricted: %s; derivation: %d steps)"
        (match range_restricted with
        | [] -> "(sentence)"
        | vs -> String.concat ", " vs)
        (List.length derivation),
      ( "safety",
        Json.Obj
          [
            ("class", Json.String "safe");
            ("range_restricted", json_strings range_restricted);
            ( "derivation",
              Json.List
                (List.map
                   (fun (s : Safety.step) ->
                     Json.Obj
                       [
                         ("formula", Json.String s.formula);
                         ("range_restricted", json_strings s.range_restricted);
                       ])
                   derivation) );
          ] ) )
  | Safety.Unsafe { variable; context } ->
    ( false,
      Printf.sprintf "safety: unsafe (variable %s escapes in '%s')" variable
        context,
      ( "safety",
        Json.Obj
          [
            ("class", Json.String "unsafe");
            ("variable", Json.String variable);
            ("context", Json.String context);
          ] ) )

let monotone_report f =
  match Monotone.analyze f with
  | Monotone.Monotone ->
    ( true,
      "monotonicity: monotone (existential-positive)",
      ("monotonicity", Json.Obj [ ("class", Json.String "monotone") ]) )
  | Monotone.Not_syntactically_monotone { construct; offender } ->
    let cname =
      match construct with
      | `Negation -> "negation"
      | `Implication -> "implication"
      | `Universal -> "universal"
    in
    ( true,
      Printf.sprintf "monotonicity: not syntactically monotone (%s in '%s')"
        cname offender,
      ( "monotonicity",
        Json.Obj
          [
            ("class", Json.String "not-syntactically-monotone");
            ("construct", Json.String cname);
            ("offender", Json.String offender);
          ] ) )

let hypergraph_report q =
  let hg = Hypergraph.analyze q in
  let width = hg.Hypergraph.width_estimate in
  match hg.Hypergraph.certificate with
  | Hypergraph.Acyclic { steps } ->
    ( true,
      Printf.sprintf
        "hypergraph: acyclic (GYO reduction: %d steps); width estimate: %d"
        (List.length steps) width,
      ( "hypergraph",
        Json.Obj
          [
            ("class", Json.String "acyclic");
            ( "gyo_steps",
              Json.List
                (List.map
                   (function
                     | Hypergraph.Remove_vertex { vertex; edge } ->
                       Json.Obj
                         [
                           ("step", Json.String "remove-vertex");
                           ("vertex", Json.String vertex);
                           ("edge", Json.Int edge);
                         ]
                     | Hypergraph.Absorb { edge; into } ->
                       Json.Obj
                         [
                           ("step", Json.String "absorb");
                           ("edge", Json.Int edge);
                           ("into", Json.Int into);
                         ])
                   steps) );
            ("width_estimate", Json.Int width);
          ] ),
      hg )
  | Hypergraph.Cyclic { residual } ->
    ( true,
      Printf.sprintf "hypergraph: cyclic (residual: %s); width estimate: %d"
        (String.concat ", "
           (List.map
              (fun (i, vs) ->
                Printf.sprintf "#%d{%s}" i (String.concat "," vs))
              residual))
        width,
      ( "hypergraph",
        Json.Obj
          [
            ("class", Json.String "cyclic");
            ( "residual",
              Json.List
                (List.map
                   (fun (i, vs) ->
                     Json.Obj
                       [ ("atom", Json.Int i); ("vars", json_strings vs) ])
                   residual) );
            ("width_estimate", Json.Int width);
          ] ),
      hg )

let plan_report q =
  let dec = Plan.route_cq q in
  let route = Plan.route_to_string dec.Plan.route in
  ( true,
    "plan: " ^ route,
    ("plan", Json.Obj [ ("route", Json.String route) ]) )

let wa_report ?instance c =
  match Wa.analyze ?instance c with
  | Wa.Terminates { round_bound; max_rank; ranks } ->
    ( true,
      Printf.sprintf
        "weak-acyclicity: terminates (max rank %d, round bound %d, %d \
         positions)"
        max_rank round_bound (List.length ranks),
      ( "weak_acyclicity",
        Json.Obj
          [
            ("class", Json.String "terminates");
            ("max_rank", Json.Int max_rank);
            ("round_bound", Json.Int round_bound);
            ( "ranks",
              Json.Obj
                (List.map (fun (p, r) -> (pos_str p, Json.Int r)) ranks) );
          ] ) )
  | Wa.Diverges { cycle; special = u, v } ->
    ( false,
      Printf.sprintf
        "weak-acyclicity: diverges (special edge %s -> %s; cycle: %s)"
        (pos_str u) (pos_str v)
        (String.concat " -> " (List.map pos_str cycle)),
      ( "weak_acyclicity",
        Json.Obj
          [
            ("class", Json.String "diverges");
            ("special", json_strings [ pos_str u; pos_str v ]);
            ("cycle", json_strings (List.map pos_str cycle));
          ] ) )

let parse_formula_arg s =
  try Certdb_query.Fo_parse.formula (resolve_arg s)
  with Certdb_query.Fo_parse.Parse_error msg ->
    Printf.eprintf "formula parse error: %s\n" msg;
    exit 2

(* the shipped example certificates (mirrored in examples/analyze/ and
   exercised by the cram tests): re-verify that each classifier still
   produces the expected class, and that the planner's routed answer
   agrees with the naive oracle on a routed instance *)
let analyze_self_test () =
  let fo = Certdb_query.Fo_parse.formula in
  let dep s = parse_target_tgd s in
  let constraints ts = Certdb_exchange.Constraints.make ~tgds:ts () in
  let fd_str s =
    match Fd.parse s with Ok f -> f | Error m -> failwith m
  in
  let ind_str s =
    match Independence.parse s with Ok a -> a | Error m -> failwith m
  in
  let checks =
    [
      ( "safe formula is Safe",
        lazy
          (match Safety.analyze (fo "exists x. R(x) and not S(x)") with
          | Safety.Safe _ -> true
          | Safety.Unsafe _ -> false) );
      ( "unrestricted variable is Unsafe with the culprit",
        lazy
          (match Safety.analyze (fo "exists x, y. R(x)") with
          | Safety.Unsafe { variable = "y"; _ } -> true
          | _ -> false) );
      ( "existential-positive formula is Monotone",
        lazy (Monotone.analyze (fo "exists x. R(x) or S(x)") = Monotone.Monotone) );
      ( "negation reported as the offender",
        lazy
          (match Monotone.analyze (fo "exists x. R(x) and not S(x)") with
          | Monotone.Not_syntactically_monotone { construct = `Negation; _ } ->
            true
          | _ -> false) );
      ( "path CQ is GYO-acyclic and routed to the acyclic join",
        lazy
          (let q = parse_cq "ans() :- R(_x,_y), S(_y,_z)" in
           match
             ((Hypergraph.analyze q).Hypergraph.certificate, Plan.route_cq q)
           with
           | Hypergraph.Acyclic _, { Plan.route = Plan.Acyclic_join; _ } ->
             true
           | _ -> false) );
      ( "triangle CQ is cyclic with a residual certificate",
        lazy
          (let q = parse_cq "ans() :- R(_x,_y), R(_y,_z), R(_z,_x)" in
           match (Hypergraph.analyze q).Hypergraph.certificate with
           | Hypergraph.Cyclic { residual = _ :: _ } -> true
           | _ -> false) );
      ( "weakly acyclic tgd set terminates with a positive bound",
        lazy
          (match Wa.analyze (constraints [ dep "R(_x,_y) -> S(_y,_z)" ]) with
          | Wa.Terminates { round_bound; _ } -> round_bound > 0
          | Wa.Diverges _ -> false) );
      ( "diverging tgd set yields a special-edge cycle",
        lazy
          (match Wa.analyze (constraints [ dep "R(_x,_y) -> R(_y,_z)" ]) with
          | Wa.Diverges { special = ("R", _), ("R", _); cycle = _ :: _ } ->
            true
          | _ -> false) );
      ( "planner-routed certainty agrees with the naive oracle",
        lazy
          (let q = parse_cq "ans() :- R(_x,_y), R(_y,_x)" in
           let d = parse_instance_arg "R(1,2); R(2,1); R(3,_u)" in
           let routed =
             match Plan.certain q d with `Exact b | `Lower_bound b -> b
           in
           routed = Certdb_query.Certain.certain_cq_via_naive q d) );
      ( "strongly satisfied fd is certain and agrees with the oracle",
        lazy
          (let d = parse_instance_arg "R(1,2); R(3,_x)" in
           let f = fd_str "R: 1 -> 2" in
           Fd.grade (Fd.check d f) = Fd.Certain && Fd.brute_force d f = Fd.Certain) );
      ( "weakly-but-not-strongly satisfied fd is possible, with witnesses",
        lazy
          (let d = parse_instance_arg "R(1,_x); R(1,3)" in
           let f = fd_str "R: 1 -> 2" in
           match Fd.check d f with
           | Fd.Possibly_satisfies
               {
                 sat = Fd.Completion_exists _;
                 falsified = Fd.Violating_pair _;
               } ->
             Fd.brute_force d f = Fd.Possible
           | _ -> false) );
      ( "constant-clashing fd is violated with a forced-equality chain",
        lazy
          (let d = parse_instance_arg "R(1,2); R(1,3)" in
           let f = fd_str "R: 1 -> 2" in
           match Fd.check d f with
           | Fd.Certainly_violates (Fd.Forced_clash _) ->
             Fd.brute_force d f = Fd.Violated
           | _ -> false) );
      ( "fd verdicts agree with the completion oracle on random tables",
        lazy
          (let ok = ref true in
           for seed = 0 to 14 do
             let d =
               Codd.random_naive ~seed
                 ~schema:[ ("R", 2) ]
                 ~facts:4 ~null_prob:0.4 ~domain:3 ~null_pool:3 ()
             in
             List.iter
               (fun f ->
                 if Fd.grade (Fd.check d f) <> Fd.brute_force d f then
                   ok := false)
               [ fd_str "R: 1 -> 2"; fd_str "R: 2 -> 1" ]
           done;
           !ok) );
      ( "product relation certainly satisfies its independence atom",
        lazy
          (let d = parse_instance_arg "R(1,1); R(1,2); R(2,1); R(2,2)" in
           let a = ind_str "R: 1 | 2" in
           Fd.grade (Independence.check d a) = Fd.Certain
           && Independence.brute_force d a = Fd.Certain) );
      ( "null-completable independence atom is possible, with witnesses",
        lazy
          (let d = parse_instance_arg "R(1,1); R(2,2); R(_u,_v); R(_s,_t)" in
           let a = ind_str "R: 1 | 2" in
           Fd.grade (Independence.check d a) = Fd.Possible
           && Independence.brute_force d a = Fd.Possible) );
      ( "missing combination certainly violates its independence atom",
        lazy
          (let d = parse_instance_arg "R(1,1); R(2,2)" in
           let a = ind_str "R: 1 | 2" in
           match Independence.check d a with
           | Fd.Certainly_violates (Independence.Missing_combination _) ->
             Independence.brute_force d a = Fd.Violated
           | _ -> false) );
      ( "independence verdicts agree with the completion oracle on random \
         tables",
        lazy
          (let ok = ref true in
           for seed = 0 to 14 do
             let d =
               Codd.random_naive ~seed
                 ~schema:[ ("R", 2) ]
                 ~facts:3 ~null_prob:0.4 ~domain:2 ~null_pool:2 ()
             in
             let a = ind_str "R: 1 | 2" in
             if Fd.grade (Independence.check d a) <> Independence.brute_force d a
             then ok := false
           done;
           !ok) );
      ( "footprint records constrained positions and constants",
        lazy
          (let q = parse_cq "ans(_x) :- R(_x,_y), S(_x,1)" in
           Footprint.to_key (Footprint.of_cq q) = "R[1] S[1 2] # 1") );
      ( "footprint overlap separates touched entries from disjoint ones",
        lazy
          (let fp = Footprint.of_cq (parse_cq "ans(_x) :- R(_x,_y), S(_x,1)") in
           Footprint.overlaps fp (Footprint.touch_rel "R")
           && Footprint.overlaps fp (Footprint.touch_cols "R" [ 0 ])
           && (not (Footprint.overlaps fp (Footprint.touch_cols "R" [ 1 ])))
           && not (Footprint.overlaps fp (Footprint.touch_rel "T"))) );
      ( "tgd closure pulls body relations into the footprint",
        lazy
          (let fp = Footprint.of_cq (parse_cq "ans() :- T(_x,_x)") in
           let c =
             Certdb_exchange.Constraints.make
               ~tgds:[ dep "B(_x,_y) -> T(_x,_y)" ]
               ()
           in
           let closed = Footprint.close_under_tgds c fp in
           Footprint.overlaps closed (Footprint.touch_rel "B")
           && not (Footprint.overlaps fp (Footprint.touch_rel "B"))) );
      ( "key-fd planner route stays exact against the naive oracle",
        lazy
          (let q = parse_cq "ans() :- R(_x,_y), R(_y,_z), R(_z,_x)" in
           let f = fd_str "R: 1 -> 2" in
           let d = parse_instance_arg "R(1,2); R(2,3); R(3,1); R(4,_u)" in
           match Plan.route_cq ~width_threshold:0 ~fds:[ f ] q with
           | { Plan.route = Plan.Fd_naive _; _ } -> (
             match Plan.certain ~width_threshold:0 ~fds:[ f ] q d with
             | `Exact b -> b = Certdb_query.Certain.certain_cq_via_naive q d
             | `Lower_bound _ -> false)
           | _ -> false) );
    ]
  in
  let failed =
    List.filter_map
      (fun (name, check) ->
        let ok = try Lazy.force check with _ -> false in
        Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
        if ok then None else Some name)
      checks
  in
  if failed = [] then 0
  else begin
    Printf.eprintf "analyze --self-test: %d certificate(s) failed\n"
      (List.length failed);
    1
  end

let analyze_cmd =
  let run query fo tgds fds independence instance json self_test =
    if self_test then analyze_self_test ()
    else begin
      let instance = Option.map parse_instance_arg instance in
      let constraints =
        match tgds with
        | [] -> None
        | ts ->
          Some
            (Certdb_exchange.Constraints.make
               ~tgds:(List.map parse_target_tgd ts)
               ())
      in
      let need_instance what =
        match instance with
        | Some d -> d
        | None ->
          Printf.eprintf "analyze %s needs --instance\n" what;
          exit 2
      in
      let sections = ref [] in
      let add (ok, human, field) = sections := (ok, human, field) :: !sections in
      (match fo with
      | Some fs ->
        let f = parse_formula_arg fs in
        add (safety_report f);
        add (monotone_report f)
      | None -> ());
      (match query with
      | Some qs ->
        let q = parse_cq (resolve_arg qs) in
        let f = Certdb_query.Cq.to_fo q in
        add (safety_report f);
        add (monotone_report f);
        let ok, human, field, _hg = hypergraph_report q in
        add (ok, human, field);
        add (plan_report q);
        add (footprint_report ?constraints q)
      | None -> ());
      (match constraints with
      | None -> ()
      | Some c -> add (wa_report ?instance c));
      (match fds with
      | [] -> ()
      | specs ->
        let d = need_instance "--fds" in
        add (fd_report d (List.concat_map parse_fds_arg specs)));
      (match independence with
      | [] -> ()
      | specs ->
        let d = need_instance "--independence" in
        add (independence_report d (List.concat_map parse_independence_arg specs)));
      match List.rev !sections with
      | [] ->
        Printf.eprintf
          "nothing to analyze: pass --query, --fo, --tgd, --fds, or \
           --independence\n";
        2
      | sections ->
        if json then
          print_endline
            (Json.to_string
               (Json.Obj (List.map (fun (_, _, field) -> field) sections)))
        else
          List.iter (fun (_, human, _) -> print_endline human) sections;
        if List.for_all (fun (ok, _, _) -> ok) sections then 0 else 1
    end
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"CQ"
          ~doc:
            "Conjunctive query to classify (safety, monotonicity, \
             hypergraph, plan).")
  in
  let fo =
    Arg.(
      value
      & opt (some string) None
      & info [ "fo" ] ~docv:"FO"
          ~doc:"First-order sentence to classify (safety, monotonicity).")
  in
  let tgds =
    Arg.(
      value
      & opt_all string []
      & info [ "tgd" ] ~docv:"TGD"
          ~doc:"Tgd of the dependency set to classify (weak acyclicity). \
                Repeatable.")
  in
  let fds =
    Arg.(
      value
      & opt_all string []
      & info [ "fds" ] ~docv:"FILE"
          ~doc:
            "Functional dependencies to grade over the completions of \
             --instance, one 'R: 1 2 -> 3' per line (1-based positions, \
             '#' comments); the argument is a file name or inline \
             ';'-separated text.  Repeatable.")
  in
  let independence =
    Arg.(
      value
      & opt_all string []
      & info [ "independence" ] ~docv:"FILE"
          ~doc:
            "Independence atoms to grade over the completions of \
             --instance, one 'R: 1 | 2' per line (1-based positions, '#' \
             comments); the argument is a file name or inline \
             ';'-separated text.  Repeatable.")
  in
  let instance =
    Arg.(
      value
      & opt (some string) None
      & info [ "instance" ] ~docv:"INSTANCE"
          ~doc:
            "Instance the weak-acyclicity round bound is derived against \
             (default: empty) and that --fds / --independence verdicts \
             are graded over.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSON object (class + certificate per analysis).")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Re-verify the shipped example certificates (including the \
             fd/independence brute-force cross-checks) and exit.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis with certificates: FO safety and monotonicity, \
          CQ hypergraph acyclicity/treewidth with the planner route and \
          dependency footprint, weak acyclicity of tgd sets with the \
          derived chase bound, and graded fd/independence verdicts over \
          incomplete instances.")
    (with_stats
       Term.(
         const run $ query $ fo $ tgds $ fds $ independence $ instance $ json
         $ self_test))

(* sat: direct access to the SAT backend.  'sat dimacs' prints the CNF of
   the Boolean-CQ certainty instance (the same encoding the CDCL core
   solves) for cross-checking against external DIMACS solvers. *)
let sat_dimacs_cmd =
  let run query no_symmetry d =
    let d = parse_instance_arg d in
    let q = parse_cq query in
    if q.Certdb_query.Cq.head <> [] then begin
      Printf.eprintf "sat dimacs applies to Boolean queries (empty head)\n";
      2
    end
    else begin
      print_string
        (Certdb_query.Certain.certain_cq_dimacs ~symmetry:(not no_symmetry) q
           d);
      0
    end
  in
  let query =
    Arg.(
      required
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"CQ"
          ~doc:"Boolean conjunctive query, e.g. 'ans() :- R(_x,_y)'.")
  in
  let no_symmetry =
    Arg.(
      value & flag
      & info [ "no-symmetry" ]
          ~doc:
            "Omit the symmetry-breaking ordering clauses over \
             interchangeable query variables.")
  in
  let d = instance_pos ~pos:0 ~doc:"Incomplete instance." in
  Cmd.v
    (Cmd.info "dimacs"
       ~doc:
         "Print the CNF of the Prop. 2 certainty instance D_Q ⊑ D in \
          DIMACS format (selector + tuple-support variables; \
          satisfiable iff the query is certainly true, 0-ary facts \
          aside — see the zero_ok comment).")
    (with_stats Term.(const run $ query $ no_symmetry $ d))

let sat_cmd =
  Cmd.group
    (Cmd.info "sat"
       ~doc:"The SAT backend: CNF export of certainty instances.")
    [ sat_dimacs_cmd ]

let main_cmd =
  let doc = "certain answers over incomplete databases (PODS'11 reproduction)" in
  Cmd.group
    (Cmd.info "certdb" ~version:"1.0.0" ~doc)
    [
      leq_cmd; cwa_cmd; member_cmd; glb_cmd; lub_cmd; core_cmd; certain_cmd;
      certain_fo_cmd; chase_cmd; analyze_cmd; tree_leq_cmd; tree_glb_cmd;
      tree_member_cmd; batch_cmd; serve_cmd; sat_cmd; stats_cmd; trace_cmd;
      ping_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
