module Engine = Certdb_csp.Engine

module Recorder = struct
  let name = "recorder"

  type t = { mutable nvars : int; mutable rev_clauses : int array list }

  let create () = { nvars = 0; rev_clauses = [] }
  let reserve _ _ = ()

  let new_var s =
    s.nvars <- s.nvars + 1;
    s.nvars

  let nvars s = s.nvars

  let add_clause s lits =
    Array.iter
      (fun l ->
        if l = 0 || abs l > s.nvars then
          invalid_arg (Printf.sprintf "Sat.Dimacs: literal %d out of range" l))
      lits;
    s.rev_clauses <- lits :: s.rev_clauses

  let solve ?assumptions:_ ?limits:_ _ =
    Engine.Unknown (Engine.Crashed "sat.recorder")

  let model_value _ _ = false
  let conflicts _ = 0
  let clauses s = List.rev s.rev_clauses
end

let pp ?(comments = []) ppf (r : Recorder.t) =
  List.iter (fun c -> Format.fprintf ppf "c %s@." c) comments;
  let cs = Recorder.clauses r in
  Format.fprintf ppf "p cnf %d %d@." (Recorder.nvars r) (List.length cs);
  List.iter
    (fun lits ->
      Array.iter (fun l -> Format.fprintf ppf "%d " l) lits;
      Format.fprintf ppf "0@.")
    cs

let to_string ?comments r = Format.asprintf "%a" (pp ?comments) r
