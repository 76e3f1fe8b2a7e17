module Int_set = Structure.Int_set
module Int_map = Structure.Int_map
module Obs = Certdb_obs.Obs
module Fault = Certdb_obs.Fault

type hom = Engine.hom

let naive_decisions = Obs.counter "csp.solver.naive.decisions"
let is_hom = Engine.is_hom

let config_of restrict =
  match restrict with
  | None -> Engine.Config.default
  | Some r -> Engine.Config.with_restrict r Engine.Config.default

(* No limit is set in the unlimited-budget shims, so the only [Unknown]
   they can see is an injected crash: it escapes as the fault itself. *)
let definitive = function
  | Engine.Sat x -> Some x
  | Engine.Unsat -> None
  | Engine.Unknown (Engine.Crashed p) -> raise (Fault.Injected p)
  | Engine.Unknown r ->
    invalid_arg ("Solver.definitive: " ^ Engine.reason_to_string r)

let find_hom ?restrict ~source ~target () =
  definitive (Engine.solve ~config:(config_of restrict) ~source ~target ())

let exists_hom ?restrict ~source ~target () =
  Option.is_some
    (definitive
       (Engine.satisfiable ~config:(config_of restrict) ~source ~target ()))

(* Naive lexicographic backtracking without propagation, kept as the
   ablation baseline and as an independent oracle for the engine's
   property tests. *)
let find_hom_naive ?restrict ~source ~target () =
  let cstrs = Engine.constraints_of source in
  let vars = Array.of_list (Structure.nodes source) in
  let candidates = Engine.initial_candidates ?restrict ~source ~target () in
  let consistent assignment =
    List.for_all
      (fun (c : Engine.cstr) ->
        (not (Array.for_all (fun u -> Int_map.mem u assignment) c.vars))
        || Structure.mem_tuple target c.rel
             (Array.map (fun u -> Int_map.find u assignment) c.vars))
      cstrs
  in
  let n = Array.length vars in
  let rec go i assignment =
    if i = n then Some assignment
    else
      Int_set.fold
        (fun b acc ->
          match acc with
          | Some _ -> acc
          | None ->
            Obs.incr naive_decisions;
            let assignment' = Int_map.add vars.(i) b assignment in
            if consistent assignment' then go (i + 1) assignment' else None)
        (Int_map.find vars.(i) candidates)
        None
  in
  go 0 Int_map.empty

let iter_homs ?restrict ~source ~target f =
  match Engine.iter ~config:(config_of restrict) ~source ~target f with
  | `Exhausted | `Stopped -> ()
  | `Interrupted r -> ignore (definitive (Engine.Unknown r))

let count_homs ?restrict ~source ~target () =
  definitive (Engine.count ~config:(config_of restrict) ~source ~target ())
  |> Option.get

(* Onto: the image of [source] under [h] contains every node and every
   tuple of [target] (the image is inside [target] since [h] is a hom). *)
let find_onto_hom ?(limits = Engine.Limits.unlimited) ?restrict ~source
    ~target () =
  let found = ref None in
  let config = Engine.Config.make ~limits ?restrict () in
  match
    Engine.iter ~config ~source ~target (fun h ->
        let image = Structure.map_nodes source (fun v -> Int_map.find v h) in
        if Structure.is_substructure target image then begin
          found := Some h;
          `Stop
        end
        else `Continue)
  with
  | `Exhausted | `Stopped -> (
    match !found with Some h -> Engine.Sat h | None -> Engine.Unsat)
  | `Interrupted r -> Engine.Unknown r
