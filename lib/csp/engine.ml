module Int_set = Structure.Int_set
module Int_map = Structure.Int_map
module Obs = Certdb_obs.Obs
module Trace = Certdb_obs.Trace
module Fault = Certdb_obs.Fault

type hom = int Int_map.t

(* Observability: the engine owns the solver-side hot-path counters (the
   legacy csp.solver.* names are kept so dashboards and the certdb stats
   self-test keep working across the Solver -> Engine migration). *)
let decisions = Obs.counter "csp.solver.decisions"
let backtracks_c = Obs.counter "csp.solver.backtracks"
let fc_prunes = Obs.counter "csp.solver.fc_prunes"
let wipeouts = Obs.counter "csp.solver.wipeouts"
let mrv_selects = Obs.counter "csp.solver.mrv_selects"
let solutions = Obs.counter "csp.solver.solutions"
let searches = Obs.counter "csp.solver.searches"
let unknowns = Obs.counter "csp.engine.unknowns"
let exists_skipped_vars = Obs.counter "csp.engine.exists_skipped_vars"
let components_splits = Obs.counter "csp.components.splits"
let components_count = Obs.gauge "csp.components.count"

type reason =
  | Node_budget
  | Backtrack_budget
  | Deadline
  | Cancelled
  | Crashed of string

let reason_to_string = function
  | Node_budget -> "node-budget"
  | Backtrack_budget -> "backtrack-budget"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"
  | Crashed point -> "crashed:" ^ point

type 'a outcome = Sat of 'a | Unsat | Unknown of reason

let map_outcome f = function
  | Sat x -> Sat (f x)
  | Unsat -> Unsat
  | Unknown r -> Unknown r

type decision = [ `True | `False | `Unknown of reason ]

let decision_of_outcome = function
  | Sat _ -> `True
  | Unsat -> `False
  | Unknown r -> `Unknown r

module Cancel = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let cancel t = Atomic.set t true
  let cancelled t = Atomic.get t
end

module Limits = struct
  type t = {
    nodes : int option;
    backtracks : int option;
    timeout_ms : float option;
    cancel : Cancel.t option;
  }

  let unlimited = { nodes = None; backtracks = None; timeout_ms = None; cancel = None }

  let make ?nodes ?backtracks ?timeout_ms ?cancel () =
    { nodes; backtracks; timeout_ms; cancel }

  let is_unlimited l =
    l.nodes = None && l.backtracks = None && l.timeout_ms = None
    && l.cancel = None
end

module Budget = struct
  exception Interrupted of reason

  (* How many node ticks between wall-clock polls: [Obs.now_ms] costs a
     syscall, an atomic cancellation probe does not, so the cancel token
     is checked at every tick and the clock only periodically. *)
  let clock_interval = 64

  type t = {
    mutable nodes_left : int; (* max_int encodes "unlimited" *)
    mutable backtracks_left : int;
    timeout_ms : float; (* relative ms allowance; infinity = none *)
    (* The wall clock ([Obs.now_ms], normally [Unix.gettimeofday]) is not
       monotone: an NTP step backwards would disarm an absolute deadline
       for as long as the step was large.  Instead the tracker accumulates
       only the positive deltas between successive polls, so elapsed time
       never decreases and forward progress after a backward step still
       counts against the allowance. *)
    mutable last_now_ms : float;
    mutable elapsed_ms : float;
    cancel : Cancel.t option;
    mutable until_clock_check : int;
  }

  let start (l : Limits.t) =
    let timeout_ms = Option.value ~default:infinity l.timeout_ms in
    {
      nodes_left = Option.value ~default:max_int l.nodes;
      backtracks_left = Option.value ~default:max_int l.backtracks;
      timeout_ms;
      last_now_ms = (if timeout_ms < infinity then Obs.now_ms () else 0.);
      elapsed_ms = 0.;
      cancel = l.cancel;
      until_clock_check = clock_interval;
    }

  (* A tracker for unlimited limits never mutates (nodes_left stays at
     max_int, the clock is never polled), so this shared one is safe to
     use from any number of domains at once. *)
  let unlimited = start Limits.unlimited

  let check_clocks b =
    (match b.cancel with
    | Some c when Cancel.cancelled c -> raise (Interrupted Cancelled)
    | _ -> ());
    if b.timeout_ms < infinity then begin
      b.until_clock_check <- b.until_clock_check - 1;
      if b.until_clock_check <= 0 then begin
        b.until_clock_check <- clock_interval;
        let now = Obs.now_ms () in
        if now > b.last_now_ms then
          b.elapsed_ms <- b.elapsed_ms +. (now -. b.last_now_ms);
        b.last_now_ms <- now;
        if b.elapsed_ms > b.timeout_ms then raise (Interrupted Deadline)
      end
    end

  let tick_node b =
    Fault.hit "csp.search.node";
    if b.nodes_left <> max_int then begin
      if b.nodes_left <= 0 then raise (Interrupted Node_budget);
      b.nodes_left <- b.nodes_left - 1
    end;
    check_clocks b

  let tick_backtrack b =
    Obs.incr backtracks_c;
    if b.backtracks_left <> max_int then begin
      if b.backtracks_left <= 0 then raise (Interrupted Backtrack_budget);
      b.backtracks_left <- b.backtracks_left - 1
    end

  let run limits f =
    let b = start limits in
    match f b with
    | Some x -> Sat x
    | None -> Unsat
    | exception Interrupted r ->
      Obs.incr unknowns;
      Unknown r
    | exception Fault.Injected point ->
      (* an injected crash inside a budgeted search degrades to Unknown:
         the search died, but that is still not evidence of Unsat *)
      Obs.incr unknowns;
      Unknown (Crashed point)
end

module Config = struct
  type t = { limits : Limits.t; restrict : Domains.t option }

  let default = { limits = Limits.unlimited; restrict = None }
  let make ?(limits = Limits.unlimited) ?restrict () = { limits; restrict }
  let with_restrict restrict t = { t with restrict = Some restrict }
end

let is_hom ~source ~target h =
  List.for_all
    (fun v ->
      match Int_map.find_opt v h with
      | None -> false
      | Some w ->
        Structure.mem_node target w && Structure.same_label source v target w)
    (Structure.nodes source)
  && Structure.fold_tuples
       (fun rel t ok ->
         ok
         && Structure.mem_tuple target rel
              (Array.map (fun v -> Int_map.find v h) t))
       source true

(* Constraints of the CSP: one per source fact. *)
type cstr = { rel : string; vars : int array }

let constraints_of source =
  Structure.fold_tuples
    (fun rel t acc -> { rel; vars = t } :: acc)
    source []

let constraints_by_var cstrs =
  List.fold_left
    (fun m c ->
      Array.fold_left
        (fun m v ->
          Int_map.update v
            (function Some cs -> Some (c :: cs) | None -> Some [ c ])
            m)
        m c.vars)
    Int_map.empty cstrs

let initial_candidates ?restrict ~source ~target () =
  List.fold_left
    (fun m v ->
      let base =
        List.fold_left
          (fun s w ->
            if Structure.same_label source v target w then Int_set.add w s
            else s)
          Int_set.empty (Structure.nodes target)
      in
      let cands =
        match restrict with
        | None -> base
        | Some r -> (
          match Domains.find r v with
          | None -> base
          | Some s -> Int_set.inter base s)
      in
      Int_map.add v cands m)
    Int_map.empty (Structure.nodes source)

exception Stop

(* {1 The compiled instance}

   One compile per (source, target, restrict) triple: both structures'
   columnar views ({!Structure.columnar}), dense variable and value ids,
   per-variable initial candidate bitsets (label-compatible targets
   intersected with the restriction), and the constraint list with its
   per-variable index and the matching target relation resolved by
   interned (rel_id, arity), and the connected components the existence
   search solves one at a time.  Shared by the search core, the
   bounded-treewidth DP and the CNF encoder. *)

module Compiled = struct
  module Bitset = Domains.Bitset

  type ccstr = {
    cvars : int array; (* dense source vars, one per position *)
    tgt : Structure.crel option; (* target tuples of the same (rel, arity) *)
  }

  type t = {
    csrc : Structure.columnar;
    ctgt : Structure.columnar;
    nvars : int;
    cap : int; (* number of target nodes *)
    words : int;
    init : Bitset.bs array; (* per dense var *)
    cstrs : ccstr array;
    by_var : ccstr list array;
    zero_ok : bool; (* every 0-ary source fact occurs in the target *)
    max_arity : int;
    comp : int array; (* per dense var: its component, -1 if pinned or free *)
    ncomps : int;
  }

  let find_crel (c : Structure.columnar) rel_id arity =
    let n = Array.length c.Structure.crels in
    let rec go i =
      if i >= n then None
      else
        let cr = c.Structure.crels.(i) in
        if cr.Structure.rel_id = rel_id && cr.Structure.arity = arity then
          Some cr
        else go (i + 1)
    in
    go 0

  (* Components: union-find over the constrained variables, joining the
     variables of each constraint.  A pinned variable (an initial row of
     exactly one candidate, a query constant) joins nothing: forward
     checking leaves its row {c} or wipes it out at the choice that
     broke it, so it carries no choice from one component to another.
     Classes are numbered by their smallest member; the union keeps the
     smaller root, so a root is numbered before the rest of its class. *)
  let components ~nvars ~init ~cstrs ~by_var =
    let pinned = Array.map (fun row -> Bitset.count row = 1) init in
    let parent = Array.init nvars Fun.id in
    let rec find v =
      if parent.(v) = v then v
      else begin
        let r = find parent.(v) in
        parent.(v) <- r;
        r
      end
    in
    Array.iter
      (fun c ->
        let first = ref (-1) in
        Array.iter
          (fun v ->
            if not pinned.(v) then
              if !first < 0 then first := v
              else
                let a = find !first and b = find v in
                if a <> b then parent.(max a b) <- min a b)
          c.cvars)
      cstrs;
    let comp = Array.make (max 1 nvars) (-1) in
    let ncomps = ref 0 in
    for v = 0 to nvars - 1 do
      if by_var.(v) <> [] && not pinned.(v) then begin
        let r = find v in
        if r = v then begin
          comp.(v) <- !ncomps;
          incr ncomps
        end
        else comp.(v) <- comp.(r)
      end
    done;
    (comp, !ncomps)

  let make ?restrict ~source ~target () =
    let csrc = Structure.columnar source in
    let ctgt = Structure.columnar target in
    let nvars = Array.length csrc.Structure.node_ids in
    let cap = Array.length ctgt.Structure.node_ids in
    let words = max 1 (Bitset.words_for cap) in
    (* targets grouped by label id, as bitsets *)
    let by_label = Hashtbl.create 8 in
    Array.iteri
      (fun w l ->
        let bs =
          match Hashtbl.find_opt by_label l with
          | Some bs -> bs
          | None ->
            let bs = Bitset.create cap in
            Hashtbl.replace by_label l bs;
            bs
        in
        Bitset.set bs w)
      ctgt.Structure.node_labels;
    let empty_row = Bitset.create cap in
    let init =
      Array.init nvars (fun v ->
          let base =
            match Hashtbl.find_opt by_label csrc.Structure.node_labels.(v) with
            | Some bs -> Bitset.copy bs
            | None -> Bitset.copy empty_row
          in
          (match restrict with
          | None -> ()
          | Some r -> (
            match Domains.find r csrc.Structure.node_ids.(v) with
            | None -> ()
            | Some s ->
              let mask = Bitset.create cap in
              Int_set.iter
                (fun raw ->
                  match Hashtbl.find_opt ctgt.Structure.dense_of raw with
                  | Some w -> Bitset.set mask w
                  | None -> ())
                s;
              ignore (Bitset.inter_into ~dst:base mask)));
          base)
    in
    let cstrs = ref [] in
    let zero_ok = ref true in
    let max_arity = ref 1 in
    Array.iter
      (fun (cr : Structure.crel) ->
        if cr.Structure.arity = 0 then begin
          if
            cr.Structure.count > 0
            && not
                 (match find_crel ctgt cr.Structure.rel_id 0 with
                 | Some tr -> tr.Structure.count > 0
                 | None -> false)
          then zero_ok := false
        end
        else begin
          if cr.Structure.arity > !max_arity then max_arity := cr.Structure.arity;
          let tgt = find_crel ctgt cr.Structure.rel_id cr.Structure.arity in
          for i = cr.Structure.count - 1 downto 0 do
            let cvars =
              Array.sub cr.Structure.flat (i * cr.Structure.arity)
                cr.Structure.arity
            in
            cstrs := { cvars; tgt } :: !cstrs
          done
        end)
      csrc.Structure.crels;
    let cstrs = Array.of_list !cstrs in
    let by_var = Array.make (max 1 nvars) [] in
    for i = Array.length cstrs - 1 downto 0 do
      let c = cstrs.(i) in
      let seen = ref [] in
      Array.iter
        (fun v ->
          if not (List.mem v !seen) then begin
            seen := v :: !seen;
            by_var.(v) <- c :: by_var.(v)
          end)
        c.cvars
    done;
    let comp, ncomps = components ~nvars ~init ~cstrs ~by_var in
    {
      csrc;
      ctgt;
      nvars;
      cap;
      words;
      init;
      cstrs;
      by_var;
      zero_ok = !zero_ok;
      max_arity = !max_arity;
      comp;
      ncomps;
    }

  let with_init cp init =
    let comp, ncomps =
      components ~nvars:cp.nvars ~init ~cstrs:cp.cstrs ~by_var:cp.by_var
    in
    { cp with init; comp; ncomps }
end

(* The budgeted backtracking core over the compiled instance: MRV
   variable selection with forward checking, the engine's only search.
   Its semantics (variable/value order, MRV tie-breaking, forward-check
   pruning, budget ticks) mirror {!Reference.run_search} — the search
   tree and the csp.solver.* counters it drives are preserved, up to the
   component split below — but domains are bitset rows with trail-based
   undo and support scans run over the target's per-position tuple
   index instead of [Tuple_set] traversals.

   With [exists] (the existence searches, which stop at one solution),
   variables occurring in no constraint are excluded from branching
   (their only obligation is a non-empty candidate set, checked up
   front) and reported to [on_solution], and the search solves the
   compiled components one at a time: MRV picks a component's first
   variable among all unassigned ones, then only inside that component
   (and among the pinned variables, which belong to none) until it is
   complete.  If the search below a completed component finds no
   solution, no other values for that component can help — the rest
   shares no constraint with it — so the whole search is exhausted.
   One budget covers every component.  On a source with one component
   the search is the unsplit one until that component completes; only
   the pinned variables can be left, and if they fail the cut ends the
   search where the unsplit one would retry the component in vain.
   Enumeration needs every combination, so it searches the whole
   instance. *)
exception Component_exhausted

let run_search_compiled ~budget ~exists (cp : Compiled.t) on_solution =
  let module Bitset = Domains.Bitset in
  let module Dense = Domains.Dense in
  Obs.incr searches;
  if exists && cp.Compiled.ncomps >= 2 then begin
    Obs.incr components_splits;
    Obs.set_int components_count cp.Compiled.ncomps
  end;
  let nvars = cp.Compiled.nvars in
  if not cp.Compiled.zero_ok then `Exhausted
  else if
    Array.exists (fun row -> Bitset.is_empty row) cp.Compiled.init
  then `Exhausted
  else begin
    let branch, free =
      let b = ref [] and f = ref [] in
      for v = nvars - 1 downto 0 do
        if (not exists) || cp.Compiled.by_var.(v) <> [] then b := v :: !b
        else f := v :: !f
      done;
      (!b, !f)
    in
    let order = Array.of_list branch in
    let n_branch = Array.length order in
    let comp =
      if exists then cp.Compiled.comp else Array.make (max 1 nvars) (-1)
    in
    (* unassigned variables left per component, and the component being
       completed (-1: none is partly assigned) *)
    let left = Array.make (max 1 cp.Compiled.ncomps) 0 in
    Array.iter
      (fun v -> if comp.(v) >= 0 then left.(comp.(v)) <- left.(comp.(v)) + 1)
      order;
    let cur = ref (-1) in
    let m = Dense.create ~vars:(max 1 nvars) ~cap:cp.Compiled.cap in
    Array.iteri (fun v row -> Dense.set_row m v row) cp.Compiled.init;
    let assignment = Array.make (max 1 nvars) (-1) in
    (* trail bookkeeping: each decision saves a modified row at most once *)
    let stamp = ref 0 in
    let saved_stamp = Array.make (max 1 nvars) (-1) in
    let scratch =
      Array.init (max 1 cp.Compiled.max_arity) (fun _ ->
          Array.make cp.Compiled.words 0)
    in
    let slot_val = Array.make (max 1 cp.Compiled.max_arity) (-1) in
    (* does the fully-assigned constraint [c] hold? *)
    let check_full (c : Compiled.ccstr) =
      match c.Compiled.tgt with
      | None -> false
      | Some tr ->
        let arity = tr.Structure.arity in
        let w0 = assignment.(c.Compiled.cvars.(0)) in
        let cands = tr.Structure.by_pos.(0).(w0) in
        let ok = ref false in
        let k = ref 0 in
        let nc = Array.length cands in
        while (not !ok) && !k < nc do
          let idx = cands.(!k) in
          let all = ref true in
          for p = 1 to arity - 1 do
            if
              !all
              && tr.Structure.flat.((idx * arity) + p)
                 <> assignment.(c.Compiled.cvars.(p))
            then all := false
          done;
          if !all then ok := true;
          incr k
        done;
        !ok
    in
    (* forward-check [c] after assigning [v <- b]: one scan over the
       target tuples matching [b] at [v]'s position, accumulating
       per-slot support bitsets, then a row-wise [land] per unassigned
       variable.  Prunes exactly what per-value support probing would. *)
    let propagate_cstr trail (c : Compiled.ccstr) v b =
      let arity = Array.length c.Compiled.cvars in
      (* slot k <-> k-th distinct unassigned variable of c *)
      let nslots = ref 0 in
      let slots = Array.make arity (-1) in
      (* slots.(p) = slot of the variable at position p, or -1 if assigned *)
      let slot_vars = Array.make arity (-1) in
      for p = 0 to arity - 1 do
        let u = c.Compiled.cvars.(p) in
        if assignment.(u) >= 0 then slots.(p) <- -1
        else begin
          (* first occurrence of u? *)
          let rec first q =
            if q >= p then -1
            else if c.Compiled.cvars.(q) = u then slots.(q)
            else first (q + 1)
          in
          match first 0 with
          | -1 ->
            let k = !nslots in
            incr nslots;
            slots.(p) <- k;
            slot_vars.(k) <- u;
            Bitset.clear scratch.(k)
          | k -> slots.(p) <- k
        end
      done;
      let nslots = !nslots in
      (match c.Compiled.tgt with
      | None -> ()
      | Some tr ->
        (* position of v in c (first occurrence) to narrow the scan *)
        let rec pos_of p =
          if c.Compiled.cvars.(p) = v then p else pos_of (p + 1)
        in
        let pv = pos_of 0 in
        let cands = tr.Structure.by_pos.(pv).(b) in
        Array.iter
          (fun idx ->
            for k = 0 to nslots - 1 do
              slot_val.(k) <- -1
            done;
            let consistent = ref true in
            let p = ref 0 in
            while !consistent && !p < arity do
              let u = c.Compiled.cvars.(!p) in
              let tv = tr.Structure.flat.((idx * arity) + !p) in
              (if assignment.(u) >= 0 then begin
                 if tv <> assignment.(u) then consistent := false
               end
               else
                 let k = slots.(!p) in
                 if slot_val.(k) = -1 then slot_val.(k) <- tv
                 else if slot_val.(k) <> tv then consistent := false);
              incr p
            done;
            if !consistent then
              for k = 0 to nslots - 1 do
                Bitset.set scratch.(k) slot_val.(k)
              done)
          cands);
      let ok = ref true in
      for k = 0 to nslots - 1 do
        let u = slot_vars.(k) in
        if saved_stamp.(u) <> !stamp then begin
          saved_stamp.(u) <- !stamp;
          trail := (u, Dense.save_row m u, Dense.count m u) :: !trail
        end;
        let cleared = Dense.inter_row m u scratch.(k) in
        Obs.add fc_prunes cleared;
        if Dense.count m u = 0 then begin
          Obs.incr wipeouts;
          ok := false
        end
      done;
      !ok
    in
    let n_assigned = ref 0 in
    let rec go () =
      if !n_assigned = n_branch then begin
        Obs.incr solutions;
        if on_solution assignment m free = `Stop then raise Stop
      end
      else begin
        Obs.incr mrv_selects;
        let cur0 = !cur in
        let v =
          let best = ref (-1) in
          Array.iter
            (fun v ->
              if
                assignment.(v) < 0
                && (cur0 < 0 || comp.(v) = cur0 || comp.(v) < 0)
              then
                if !best < 0 || Dense.count m v < Dense.count m !best then
                  best := v)
            order;
          !best
        in
        let c = comp.(v) in
        List.iter
          (fun b ->
            Budget.tick_node budget;
            Obs.incr decisions;
            assignment.(v) <- b;
            incr n_assigned;
            incr stamp;
            let trail = ref [] in
            let ok = ref true in
            List.iter
              (fun (c : Compiled.ccstr) ->
                if !ok then
                  if
                    Array.for_all
                      (fun u -> assignment.(u) >= 0)
                      c.Compiled.cvars
                  then begin
                    if not (check_full c) then ok := false
                  end
                  else if not (propagate_cstr trail c v b) then ok := false)
              cp.Compiled.by_var.(v);
            (try
               if not !ok then Budget.tick_backtrack budget
               else if c >= 0 && left.(c) = 1 then begin
                 (* [v] completes its component *)
                 left.(c) <- 0;
                 cur := -1;
                 go ();
                 raise Component_exhausted
               end
               else begin
                 if c >= 0 then begin
                   left.(c) <- left.(c) - 1;
                   cur := c
                 end;
                 go ();
                 if c >= 0 then left.(c) <- left.(c) + 1
               end
             with e ->
               (* unwind the trail even on Stop/Interrupted so sibling
                  state stays coherent for enumerating callers *)
               List.iter
                 (fun (u, row, cnt) -> Dense.restore_row m u row cnt)
                 !trail;
               assignment.(v) <- -1;
               decr n_assigned;
               raise e);
            List.iter
              (fun (u, row, cnt) -> Dense.restore_row m u row cnt)
              !trail;
            assignment.(v) <- -1;
            decr n_assigned)
          (Dense.row_to_list m v);
        cur := cur0
      end
    in
    try
      go ();
      `Exhausted
    with
    | Stop -> `Stopped
    | Component_exhausted -> `Exhausted
  end

(* {1 Public entry points} *)

let compile ?restrict ~source ~target () =
  Compiled.make ?restrict ~source ~target ()

let hom_of_assignment (cp : Compiled.t) assignment =
  let h = ref Int_map.empty in
  Array.iteri
    (fun v b ->
      if b >= 0 then
        h :=
          Int_map.add
            cp.Compiled.csrc.Structure.node_ids.(v)
            cp.Compiled.ctgt.Structure.node_ids.(b)
            !h)
    assignment;
  !h

let solve_cp limits cp =
  Budget.run limits (fun budget ->
      let found = ref None in
      (match
         run_search_compiled ~budget ~exists:true cp
           (fun assignment m free_vars ->
             (* unconstrained variables: any label-compatible candidate
                works, so extend greedily without search *)
             let h = hom_of_assignment cp assignment in
             let h =
               List.fold_left
                 (fun h v ->
                   Obs.incr decisions;
                   let b = List.hd (Domains.Dense.row_to_list m v) in
                   Int_map.add
                     cp.Compiled.csrc.Structure.node_ids.(v)
                     cp.Compiled.ctgt.Structure.node_ids.(b)
                     h)
                 h free_vars
             in
             found := Some h;
             `Stop)
       with
      | `Exhausted | `Stopped -> ());
      !found)

let solve ?(config = Config.default) ~source ~target () =
  Trace.with_span "csp.engine.solve" @@ fun () ->
  solve_cp config.limits
    (Compiled.make ?restrict:config.restrict ~source ~target ())

let solve_compiled ?(limits = Limits.unlimited) cp = solve_cp limits cp

let satisfiable ?(config = Config.default) ~source ~target () =
  Trace.with_span "csp.engine.satisfiable" @@ fun () ->
  let cp = Compiled.make ?restrict:config.restrict ~source ~target () in
  Budget.run config.limits (fun budget ->
      let found = ref false in
      (match
         run_search_compiled ~budget ~exists:true cp
           (fun _ _ free_vars ->
             Obs.add exists_skipped_vars (List.length free_vars);
             found := true;
             `Stop)
       with
      | `Exhausted | `Stopped -> ());
      if !found then Some () else None)

let iter ?(config = Config.default) ~source ~target f =
  Trace.with_span "csp.engine.iter" @@ fun () ->
  let cp = Compiled.make ?restrict:config.restrict ~source ~target () in
  let budget = Budget.start config.limits in
  match
    run_search_compiled ~budget ~exists:false cp
      (fun assignment _ _ -> f (hom_of_assignment cp assignment))
  with
  | `Exhausted -> `Exhausted
  | `Stopped -> `Stopped
  | exception Budget.Interrupted r ->
    Obs.incr unknowns;
    `Interrupted r
  | exception Fault.Injected point ->
    Obs.incr unknowns;
    `Interrupted (Crashed point)

let count ?(config = Config.default) ~source ~target () =
  let n = ref 0 in
  match
    iter ~config ~source ~target (fun _ ->
        incr n;
        `Continue)
  with
  | `Exhausted | `Stopped -> Sat !n
  | `Interrupted r -> Unknown r

(* {1 The reference core}

   The pre-columnar map/set implementation of the same MRV +
   forward-checking search: it is the ablation baseline of bench e24,
   and the independent oracle the property tests compare the bitset
   core against.  Same [Config.t], same budget semantics, same
   counters. *)

module Reference = struct
  (* [supports target assignment c w b] iff some target tuple of [c.rel]
     is consistent with [assignment] extended by [w ↦ b] on the variables
     of [c]. *)
  let supports target assignment c w b =
    List.exists
      (fun tt ->
        Array.length tt = Array.length c.vars
        && (let ok = ref true in
            Array.iteri
              (fun i v ->
                if !ok then
                  if v = w then (if tt.(i) <> b then ok := false)
                  else
                    match Int_map.find_opt v assignment with
                    | Some img -> if tt.(i) <> img then ok := false
                    | None -> ())
              c.vars;
            !ok))
      (Structure.tuples_of target c.rel)

  let run_search ~(config : Config.t) ~budget ~skip_free ~source ~target
      on_solution =
    Obs.incr searches;
    let cstrs = constraints_of source in
    let by_var = constraints_by_var cstrs in
    let cstrs_of v =
      match Int_map.find_opt v by_var with Some cs -> cs | None -> []
    in
    let all_vars = Structure.nodes source in
    let branch_vars, free_vars =
      if skip_free then
        List.partition (fun v -> Int_map.mem v by_var) all_vars
      else (all_vars, [])
    in
    let rec go assignment candidates unassigned =
      match unassigned with
      | [] ->
        Obs.incr solutions;
        if on_solution assignment candidates free_vars = `Stop then raise Stop
      | _ ->
        Obs.incr mrv_selects;
        let v =
          List.fold_left
            (fun best v ->
              let card v = Int_set.cardinal (Int_map.find v candidates) in
              match best with
              | None -> Some v
              | Some b -> if card v < card b then Some v else best)
            None unassigned
          |> Option.get
        in
        let rest = List.filter (fun w -> w <> v) unassigned in
        Int_set.iter
          (fun b ->
            Budget.tick_node budget;
            Obs.incr decisions;
            let assignment' = Int_map.add v b assignment in
            (* prune the domains of neighbors through constraints on v *)
            let ok = ref true in
            let candidates' =
              List.fold_left
                (fun cands c ->
                  if not !ok then cands
                  else if
                    (* fully assigned constraint: check directly *)
                    Array.for_all (fun u -> Int_map.mem u assignment') c.vars
                  then
                    if
                      Structure.mem_tuple target c.rel
                        (Array.map
                           (fun u -> Int_map.find u assignment')
                           c.vars)
                    then cands
                    else begin
                      ok := false;
                      cands
                    end
                  else
                    Array.fold_left
                      (fun cands u ->
                        if Int_map.mem u assignment' then cands
                        else
                          let dom = Int_map.find u cands in
                          let dom' =
                            Int_set.filter
                              (fun b' -> supports target assignment' c u b')
                              dom
                          in
                          Obs.add fc_prunes
                            (Int_set.cardinal dom - Int_set.cardinal dom');
                          if Int_set.is_empty dom' then begin
                            Obs.incr wipeouts;
                            ok := false
                          end;
                          Int_map.add u dom' cands)
                      cands c.vars)
                candidates (cstrs_of v)
            in
            if !ok then go assignment' candidates' rest
            else Budget.tick_backtrack budget)
          (Int_map.find v candidates)
    in
    let candidates =
      initial_candidates ?restrict:config.restrict ~source ~target ()
    in
    if Int_map.for_all (fun _ d -> not (Int_set.is_empty d)) candidates then (
      try
        go Int_map.empty candidates branch_vars;
        `Exhausted
      with Stop -> `Stopped)
    else `Exhausted

  let solve ?(config = Config.default) ~source ~target () =
    Trace.with_span "csp.engine.reference.solve" @@ fun () ->
    Budget.run config.limits (fun budget ->
        let found = ref None in
        (match
           run_search ~config ~budget ~skip_free:true ~source ~target
             (fun assignment candidates free_vars ->
               let h =
                 List.fold_left
                   (fun h v ->
                     Obs.incr decisions;
                     Int_map.add v
                       (Int_set.min_elt (Int_map.find v candidates))
                       h)
                   assignment free_vars
               in
               found := Some h;
               `Stop)
         with
        | `Exhausted | `Stopped -> ());
        !found)

  let satisfiable ?(config = Config.default) ~source ~target () =
    Trace.with_span "csp.engine.reference.satisfiable" @@ fun () ->
    Budget.run config.limits (fun budget ->
        let found = ref false in
        (match
           run_search ~config ~budget ~skip_free:true ~source ~target
             (fun _ _ free_vars ->
               Obs.add exists_skipped_vars (List.length free_vars);
               found := true;
               `Stop)
         with
        | `Exhausted | `Stopped -> ());
        if !found then Some () else None)
end

(* {1 The domain-parallel batch layer} *)

module Batch = struct
  let runs = Obs.counter "csp.batch.runs"
  let tasks_total = Obs.counter "csp.batch.tasks"
  let errors_total = Obs.counter "csp.batch.errors"
  let skipped_total = Obs.counter "csp.batch.skipped"
  let worker_tasks wid = Obs.counter (Printf.sprintf "csp.batch.worker%d.tasks" wid)

  let default_jobs () = max 1 (Domain.recommended_domain_count ())

  type error =
    | Raised of { exn : exn; backtrace : Printexc.raw_backtrace }
    | Skipped

  type failure_policy = Continue | Fail_fast of Cancel.t

  let map_result ?jobs ?(on_error = Continue) f xs =
    let n = List.length xs in
    let jobs =
      match jobs with Some j -> max 1 j | None -> default_jobs ()
    in
    let jobs = min jobs (max 1 n) in
    Obs.incr runs;
    let input = Array.of_list xs in
    (* each slot is written by exactly one worker; Domain.join publishes
       the writes to the coordinating domain *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let stop = match on_error with Continue -> None | Fail_fast c -> Some c in
    let stopped () =
      match stop with Some c -> Cancel.cancelled c | None -> false
    in
    (* capture the coordinator's trace context before spawning: each task
       span joins the submitting request's trace (worker domains have a
       fresh span stack, so without this the nesting would silently drop);
       with no enclosing trace every task roots its own. *)
    let ctx = Trace.capture () in
    let work wid () =
      let mine = worker_tasks wid in
      let rec loop () =
        if not (stopped ()) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let r =
              try
                (* deterministic fault point: keyed to the task index, not
                   the pop order, so a schedule poisons the same tasks at
                   any [jobs] *)
                Trace.with_context ctx (fun () ->
                    Trace.with_span "csp.batch.task"
                      ~labels:
                        [
                          ("worker", string_of_int wid);
                          ("task", string_of_int i);
                        ]
                      (fun () ->
                        Fault.hit_k "csp.batch.task" (i + 1);
                        Ok (f input.(i))))
              with e ->
                Error (Raised { exn = e; backtrace = Printexc.get_raw_backtrace () })
            in
            (match (r, stop) with
            | Error _, Some c ->
              Obs.incr errors_total;
              Cancel.cancel c
            | Error _, None -> Obs.incr errors_total
            | Ok _, _ -> ());
            results.(i) <- Some r;
            Obs.incr mine;
            Obs.incr tasks_total;
            loop ()
          end
        end
      in
      loop ()
    in
    if jobs = 1 then work 0 ()
    else begin
      let workers =
        List.init (jobs - 1) (fun k -> Domain.spawn (work (k + 1)))
      in
      work 0 ();
      List.iter Domain.join workers
    end;
    (* under Fail_fast, tasks never popped after the trip are reported as
       Skipped — slots already claimed keep their real result *)
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None ->
           Obs.incr skipped_total;
           Error Skipped)

  let map ?jobs f xs =
    map_result ?jobs ~on_error:Continue f xs
    |> List.map (function
         | Ok r -> r
         | Error (Raised { exn; backtrace }) ->
           Printexc.raise_with_backtrace exn backtrace
         | Error Skipped -> assert false (* Continue never skips *))

  type task = {
    config : Config.t;
    source : Structure.t;
    target : Structure.t;
  }

  let solve_all ?jobs tasks =
    map ?jobs
      (fun t -> solve ~config:t.config ~source:t.source ~target:t.target ())
      tasks
end
