module Engine = Certdb_csp.Engine

type choice = Csp | Sat | Auto

let choice_to_string = function Csp -> "csp" | Sat -> "sat" | Auto -> "auto"

let choice_of_string = function
  | "csp" -> Some Csp
  | "sat" -> Some Sat
  | "auto" -> Some Auto
  | _ -> None

let choice_names = [ "csp"; "sat"; "auto" ]

module Cnf = Encode.Make (Solver.Cdcl)

let encode ?(config = Engine.Config.default) ?symmetry ~source ~target () =
  Cnf.make ?restrict:config.Engine.Config.restrict ?symmetry ~source ~target
    ()

let solve ?(config = Engine.Config.default) ?symmetry ~source ~target () =
  let t = encode ~config ?symmetry ~source ~target () in
  Cnf.solve ~limits:config.Engine.Config.limits t

let satisfiable ?(config = Engine.Config.default) ?symmetry ~source ~target ()
    =
  let t = encode ~config ?symmetry ~source ~target () in
  Cnf.satisfiable ~limits:config.Engine.Config.limits t

let decider ?symmetry () =
  {
    Certdb_csp.Decider.name = "sat";
    satisfiable =
      (fun config source target ->
        satisfiable ~config ?symmetry ~source ~target ());
  }

module Recorded = Encode.Make (Dimacs.Recorder)

let dimacs ?restrict ?symmetry ?(comments = []) ~source ~target () =
  let config = Engine.Config.make ?restrict () in
  let t =
    Recorded.make ?restrict:config.Engine.Config.restrict ?symmetry ~source
      ~target ()
  in
  let st = Recorded.stats t in
  let comments =
    comments
    @ [
        Printf.sprintf
          "sel_vars=%d tuple_vars=%d clauses=%d sym_classes=%d \
           largest_class=%d"
          st.Encode.sel_vars st.Encode.tuple_vars st.Encode.clauses
          st.Encode.sym_classes st.Encode.largest_class;
      ]
  in
  Dimacs.to_string ~comments (Recorded.solver t)
