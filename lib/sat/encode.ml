module Engine = Certdb_csp.Engine
module Structure = Certdb_csp.Structure
module Domains = Certdb_csp.Domains
module Bitset = Domains.Bitset

type stats = {
  sel_vars : int;
  tuple_vars : int;
  clauses : int;
  sym_classes : int;
  largest_class : int;
}

module Make (Solv : Solver.S) = struct
  type t = {
    solver : Solv.t;
    compiled : Engine.Compiled.t;
    sel : int array array; (* dense var -> dense target node -> ext var *)
    source : Structure.t;
    target : Structure.t;
    stats : stats;
  }

  (* Positions of a constraint that repeat an earlier position's
     variable point at that first occurrence; the rest at themselves. *)
  let first_occurrences cvars =
    Array.map
      (fun v ->
        let q = ref 0 in
        while cvars.(!q) <> v do
          incr q
        done;
        !q)
      cvars

  (* Indices of the target tuples that can support the constraint: every
     position's node is in its variable's domain, and a repeated variable
     sees the same node at each of its positions. *)
  let supports (c : Engine.Compiled.t) (cc : Engine.Compiled.ccstr) first
      (crel : Structure.crel) =
    let ar = Array.length cc.cvars in
    let keep = Array.make crel.count 0 in
    let n = ref 0 in
    for ti = 0 to crel.count - 1 do
      let base = ti * ar in
      let ok = ref true in
      for p = 0 to ar - 1 do
        let w = crel.flat.(base + p) in
        if
          (not (Bitset.mem c.init.(cc.cvars.(p)) w))
          || crel.flat.(base + first.(p)) <> w
        then ok := false
      done;
      if !ok then begin
        keep.(!n) <- ti;
        incr n
      end
    done;
    Array.sub keep 0 !n

  let make ?restrict ?(symmetry = true) ~source ~target () =
    let c = Engine.compile ?restrict ~source ~target () in
    let solver = Solv.create () in
    let nclauses = ref 0 in
    let add cl =
      incr nclauses;
      Solv.add_clause solver cl
    in
    (* The supporting tuples of every constraint with positions, found
       first so that the variable count is exact before the first
       allocation: one selector per domain element, one support variable
       per supporting tuple. *)
    let firsts =
      Array.map
        (fun (cc : Engine.Compiled.ccstr) -> first_occurrences cc.cvars)
        c.cstrs
    in
    let tuples =
      Array.mapi
        (fun i (cc : Engine.Compiled.ccstr) ->
          match cc.tgt with
          | Some crel when Array.length cc.cvars > 0 ->
            supports c cc firsts.(i) crel
          | _ -> [||])
        c.cstrs
    in
    let count f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
    Solv.reserve solver
      (count Bitset.count c.init + count Array.length tuples);
    (* Selector variables over each variable's initial bitset domain. *)
    let sel =
      Array.init c.nvars (fun v ->
          let row = Array.make c.cap 0 in
          Bitset.iter (fun w -> row.(w) <- Solv.new_var solver) c.init.(v);
          row)
    in
    let sel_vars = Solv.nvars solver in
    (* A 0-ary source fact missing from the target refutes the instance
       before any variable choice. *)
    if not c.zero_ok then add [||];
    (* At least one value; at most one (pairwise) — exactly-one makes
       models decode to functions. *)
    for v = 0 to c.nvars - 1 do
      let xs =
        Array.of_list
          (List.map (fun w -> sel.(v).(w)) (Bitset.to_list c.init.(v)))
      in
      (* the backend owns what it is given; the pairs below read [xs] *)
      add (Array.copy xs);
      let n = Array.length xs in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          add [| -xs.(i); -xs.(j) |]
        done
      done
    done;
    (* Per source fact: at least one supporting target tuple, each
       implying the selectors of its positions, last distinct position
       first; the support clause lists the tuples' variables newest
       first. *)
    Array.iteri
      (fun i (cc : Engine.Compiled.ccstr) ->
        let ar = Array.length cc.cvars in
        if ar > 0 then
          match cc.tgt with
          | None -> add [||]
          | Some crel ->
            let first = firsts.(i) and ts = tuples.(i) in
            let nt = Array.length ts in
            let ys = Array.make nt 0 in
            Array.iteri
              (fun k ti ->
                let y = Solv.new_var solver in
                ys.(nt - 1 - k) <- y;
                let base = ti * ar in
                for p = ar - 1 downto 0 do
                  if first.(p) = p then
                    add [| -y; sel.(cc.cvars.(p)).(crel.flat.(base + p)) |]
                done)
              ts;
            add ys)
      c.cstrs;
    let tuple_vars = Solv.nvars solver - sel_vars in
    (* Ordering clauses over interchangeable variables: within a class
       (ascending var ids) force h(v_i) <= h(v_{i+1}) on dense target
       ids.  Sound because any class permutation is a source
       automorphism. *)
    let classes =
      if symmetry then Engine.Compiled.interchangeable_classes c else [||]
    in
    Array.iter
      (fun cls ->
        for i = 0 to Array.length cls - 2 do
          let a = cls.(i) and b = cls.(i + 1) in
          Bitset.iter
            (fun w ->
              Bitset.iter
                (fun w' ->
                  if w' < w then add [| -sel.(a).(w); -sel.(b).(w') |])
                c.init.(b))
            c.init.(a)
        done)
      classes;
    let largest_class =
      Array.fold_left (fun acc c -> max acc (Array.length c)) 0 classes
    in
    {
      solver;
      compiled = c;
      sel;
      source;
      target;
      stats =
        {
          sel_vars;
          tuple_vars;
          clauses = !nclauses;
          sym_classes = Array.length classes;
          largest_class;
        };
    }

  let stats t = t.stats
  let solver t = t.solver

  let decode t =
    let c = t.compiled in
    let h = ref Structure.Int_map.empty in
    let total = ref true in
    for v = 0 to c.nvars - 1 do
      let chosen = ref (-1) in
      Bitset.iter
        (fun w ->
          if !chosen < 0 && Solv.model_value t.solver t.sel.(v).(w) then
            chosen := w)
        c.init.(v);
      if !chosen < 0 then total := false
      else
        h :=
          Structure.Int_map.add c.csrc.node_ids.(v)
            c.ctgt.node_ids.(!chosen)
            !h
    done;
    if !total then Some !h else None

  let solve ?limits t =
    match Solv.solve ?limits t.solver with
    | Engine.Unsat -> Engine.Unsat
    | Engine.Unknown r -> Engine.Unknown r
    | Engine.Sat () -> (
      match decode t with
      | Some h when Engine.is_hom ~source:t.source ~target:t.target h ->
        Engine.Sat h
      | _ -> Engine.Unknown (Engine.Crashed "sat.decode"))

  let satisfiable ?limits t =
    match solve ?limits t with
    | Engine.Sat _ -> Engine.Sat ()
    | Engine.Unsat -> Engine.Unsat
    | Engine.Unknown r -> Engine.Unknown r
end
