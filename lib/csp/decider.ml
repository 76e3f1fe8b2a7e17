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

let components ~jobs =
  {
    name = "components";
    satisfiable =
      (fun config source target ->
        Engine.Components.satisfiable ~config ~jobs ~source ~target ());
  }

let reference =
  {
    name = "reference";
    satisfiable =
      (fun config source target ->
        Engine.Reference.satisfiable ~config ~source ~target ());
  }

let btw =
  {
    name = "btw";
    satisfiable =
      (fun config source target ->
        Bounded_tw.satisfiable
          ~decomposition:(fst (Treewidth.estimate source))
          ~config ~source ~target ());
  }
