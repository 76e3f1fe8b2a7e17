type t = {
  name : string;
  satisfiable :
    Engine.Config.t -> Structure.t -> Structure.t -> unit Engine.outcome;
}

let engine =
  {
    name = "csp";
    satisfiable =
      (fun config source target ->
        Engine.satisfiable ~config ~source ~target ());
  }

let reference =
  {
    name = "reference";
    satisfiable =
      (fun config source target ->
        Engine.Reference.satisfiable ~config ~source ~target ());
  }

(* the clock and the cancel token bound it; its polynomial decision
   bound stands in for the node and backtrack budgets *)
let btw =
  {
    name = "btw";
    satisfiable =
      (fun config source target ->
        let limits =
          { config.limits with Engine.Limits.nodes = None; backtracks = None }
        in
        let decomposition = Some (fst (Treewidth.estimate source)) in
        Engine.satisfiable
          ~config:{ config with limits; decomposition }
          ~source ~target ());
  }
