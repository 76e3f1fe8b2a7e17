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
let memo_hits = Obs.counter "csp.solver.memo_hits"
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
  type t = {
    limits : Limits.t;
    restrict : Domains.t option;
    decomposition : Treewidth.t option;
  }

  let default =
    { limits = Limits.unlimited; restrict = None; decomposition = None }

  let make ?(limits = Limits.unlimited) ?restrict ?decomposition () =
    { limits; restrict; decomposition }
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
   search solves one at a time.  Shared by the search core and the CNF
   encoder. *)

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

  let of_columnar ?restrict ~source:csrc ~target:ctgt () =
    let nvars = Array.length csrc.Structure.node_ids in
    let cap = Array.length ctgt.Structure.node_ids in
    let words = max 1 (Bitset.words_for cap) in
    (* targets grouped by label id, as bitsets; runs of one label (an
       unlabeled structure is one run) look the table up once *)
    let by_label = Hashtbl.create 8 in
    let last = ref None in
    let label_row l =
      match !last with
      | Some (l', bs) when l' = l -> Some bs
      | _ ->
        let bs = Hashtbl.find_opt by_label l in
        Option.iter (fun bs -> last := Some (l, bs)) bs;
        bs
    in
    Array.iteri
      (fun w l ->
        let bs =
          match label_row l with
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
            match label_row csrc.Structure.node_labels.(v) with
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

  let make ?restrict ~source ~target () =
    of_columnar ?restrict ~source:(Structure.columnar source)
      ~target:(Structure.columnar target) ()

  (* Two variables are interchangeable when they have one label and one
     initial row, and swapping them maps the source's facts onto
     themselves.  A swap that does moves each occurrence of [a] at a
     (relation, position) to one of [b] there, so both have as many
     occurrences at each; a sum of per-(relation, position) hashes over
     the occurrences is a cheap necessary condition, and only variables
     that agree on it and on their label meet a swap test.  The test
     looks each swapped fact up in the source's per-position index, so
     an instance without symmetry builds no table.  Classes grow
     greedily from their smallest member, as transpositions with it.
     [same_init a b] compares the initial rows of two variables of one
     label. *)
  let classes ~same_init (src : Structure.columnar) =
    let n = Array.length src.Structure.node_ids in
    let occ = Array.make (max 1 n) 0 in
    Array.iteri
      (fun ri (cr : Structure.crel) ->
        for p = 0 to cr.Structure.arity - 1 do
          let h = Hashtbl.hash (ri, p) in
          for ti = 0 to cr.Structure.count - 1 do
            let x = cr.Structure.flat.((ti * cr.Structure.arity) + p) in
            occ.(x) <- occ.(x) + h
          done
        done)
      src.Structure.crels;
    let label = src.Structure.node_labels in
    let order = Array.init n Fun.id in
    let by_sig a b =
      let d = Int.compare label.(a) label.(b) in
      if d <> 0 then d else Int.compare occ.(a) occ.(b)
    in
    (* ascending ids within a run of equal signatures *)
    Array.stable_sort by_sig order;
    let sw a b x = if x = a then b else if x = b then a else x in
    (* is the fact [ti] of [cr], with [a] and [b] swapped, a fact? *)
    let swapped_mem (cr : Structure.crel) a b ti =
      let ar = cr.Structure.arity and flat = cr.Structure.flat in
      let base = ti * ar in
      let bucket = cr.Structure.by_pos.(0).(sw a b flat.(base)) in
      let found = ref false and i = ref 0 in
      while (not !found) && !i < Array.length bucket do
        let base' = bucket.(!i) * ar in
        let p = ref 1 in
        while !p < ar && flat.(base' + !p) = sw a b flat.(base + !p) do
          incr p
        done;
        if !p = ar then found := true;
        incr i
      done;
      !found
    in
    let swap_ok a b =
      same_init a b
      && Array.for_all
           (fun (cr : Structure.crel) ->
             Array.for_all
               (fun idx ->
                 Array.for_all (swapped_mem cr a b) idx.(a)
                 && Array.for_all (swapped_mem cr a b) idx.(b))
               cr.Structure.by_pos)
           src.Structure.crels
    in
    let used = Array.make (max 1 n) false in
    let classes = ref [] in
    let i = ref 0 in
    while !i < n do
      let j = ref (!i + 1) in
      while !j < n && by_sig order.(!i) order.(!j) = 0 do
        incr j
      done;
      for x = !i to !j - 1 do
        let v = order.(x) in
        if not used.(v) then begin
          let members = ref [ v ] in
          for y = x + 1 to !j - 1 do
            let u = order.(y) in
            if (not used.(u)) && swap_ok v u then begin
              used.(u) <- true;
              members := u :: !members
            end
          done;
          if List.length !members >= 2 then
            classes := Array.of_list (List.rev !members) :: !classes
        end
      done;
      i := !j
    done;
    let classes = Array.of_list !classes in
    Array.sort (fun a b -> Int.compare a.(0) b.(0)) classes;
    classes

  let interchangeable_classes c =
    classes ~same_init:(fun a b -> c.init.(a) = c.init.(b)) c.csrc

  (* Source and target are one structure, so the initial row of [v] is
     the nodes of its label, cut down to its restriction when it has
     one: the target half of the compiled instance is never built *)
  let endo_interchangeable_classes ?restrict src =
    let label = src.Structure.node_labels in
    let row v =
      match restrict with
      | None -> None
      | Some r ->
        Option.map
          (Int_set.filter (fun w ->
               match Hashtbl.find_opt src.Structure.dense_of w with
               | Some d -> label.(d) = label.(v)
               | None -> false))
          (Domains.find r src.Structure.node_ids.(v))
    in
    let label_size l =
      Array.fold_left (fun k l' -> if l' = l then k + 1 else k) 0 label
    in
    classes src ~same_init:(fun a b ->
        match (row a, row b) with
        | None, None -> true
        | Some x, Some y -> Int_set.equal x y
        | Some x, None | None, Some x -> Int_set.cardinal x = label_size label.(a))
end

(* {1 Clusters}

   The existence searches solve the source one cluster at a time.
   Clusters form a tree under a virtual root; each branching variable
   has one home, a cluster or the root, and a cluster's key is the set
   of variables it shares with the clusters above it.  Without a
   decomposition the clusters are the compiled components, all children
   of the root under empty keys, and the pinned variables stay at the
   root.  With a decomposition ({!Treewidth.t}) a cluster is a bag, a
   variable's home is the bag nearest the root that holds it (a bag
   that is home to none is skipped: its children hang from its nearest
   ancestor that is), and a cluster's key is its bag's variables homed
   above it — its separator, bag ∩ parent bag — less the pinned
   variables, which the search assigns before any cluster. *)

type clusters = {
  home : int array; (* per dense var: its cluster, or [root] *)
  cparent : int array; (* per cluster: its parent; root = its length *)
  keys : int array array; (* per cluster: its key's variables *)
  watch : int list array; (* per dense var: the clusters whose key holds it *)
  subtree : int array array; (* per cluster: the variables homed below it *)
  memo : bool; (* record goods and nogoods: clusters of a decomposition *)
}

let under_root ~nclusters home =
  {
    home;
    cparent = Array.make nclusters nclusters;
    keys = [||];
    watch = [||];
    subtree = [||];
    memo = false;
  }

let component_clusters (cp : Compiled.t) =
  let root = cp.Compiled.ncomps in
  under_root ~nclusters:root
    (Array.map (fun c -> if c >= 0 then c else root) cp.Compiled.comp)

let decomposition_clusters (cp : Compiled.t) (d : Treewidth.t) =
  let nvars = cp.Compiled.nvars in
  let root = Array.length d.Treewidth.bags in
  let bags =
    Array.map
      (fun b ->
        List.map
          (fun raw ->
            match Hashtbl.find_opt cp.Compiled.csrc.Structure.dense_of raw with
            | Some v -> v
            | None ->
              invalid_arg "Engine: a bag holds a node outside the source")
          (Int_set.elements b))
      d.Treewidth.bags
  in
  let children = Treewidth.children d in
  let rec pre i acc =
    List.fold_left (fun acc j -> pre j acc) (i :: acc) children.(i)
  in
  (* bags in reverse preorder: every bag after its descendants *)
  let rev_pre =
    List.fold_left (fun acc r -> pre r acc) [] (Treewidth.roots d)
  in
  (* per variable, the bags that hold it in preorder: the first is its home *)
  let in_bags = Array.make (max 1 nvars) [] in
  List.iter
    (fun i -> List.iter (fun v -> in_bags.(v) <- i :: in_bags.(v)) bags.(i))
    rev_pre;
  Array.iter
    (fun (c : Compiled.ccstr) ->
      let inside i =
        Array.for_all (fun u -> List.mem i in_bags.(u)) c.Compiled.cvars
      in
      if not (List.exists inside in_bags.(c.Compiled.cvars.(0))) then
        invalid_arg "Engine: the decomposition leaves a fact in no bag")
    cp.Compiled.cstrs;
  let home =
    Array.mapi
      (fun v bags ->
        match bags with
        | i :: _
          when cp.Compiled.by_var.(v) <> []
               && Domains.Bitset.count cp.Compiled.init.(v) <> 1 ->
          i
        | _ -> root)
      in_bags
  in
  let homed = Array.make root [] in
  for v = nvars - 1 downto 0 do
    if home.(v) < root then homed.(home.(v)) <- v :: homed.(home.(v))
  done;
  let cparent = Array.make root root and below = Array.make root [] in
  List.iter
    (fun i ->
      let p = d.Treewidth.parent.(i) in
      if p >= 0 then
        cparent.(i) <- (if homed.(p) <> [] then p else cparent.(p)))
    (List.rev rev_pre);
  List.iter
    (fun i ->
      below.(i) <-
        List.concat (homed.(i) :: List.map (fun j -> below.(j)) children.(i)))
    rev_pre;
  let keys =
    Array.mapi
      (fun i b ->
        if homed.(i) = [] then [||]
        else
          Array.of_list
            (List.filter (fun v -> home.(v) < root && home.(v) <> i) b))
      bags
  in
  let watch = Array.make (max 1 nvars) [] in
  Array.iteri
    (fun j key -> Array.iter (fun u -> watch.(u) <- j :: watch.(u)) key)
    keys;
  { home; cparent; keys; watch; subtree = Array.map Array.of_list below;
    memo = true }

(* The budgeted backtracking core over the compiled instance: MRV
   variable selection with forward checking, the engine's only search.
   Its semantics (variable/value order, MRV tie-breaking, forward-check
   pruning, budget ticks) mirror {!Reference.run_search} — the search
   tree and the csp.solver.* counters it drives are preserved, up to the
   clusters — but domains are bitset rows with trail-based undo and
   support scans run over the target's per-position tuple index instead
   of [Tuple_set] traversals.

   With [exists] (the existence searches, which stop at one solution),
   variables occurring in no constraint are excluded from branching
   (their only obligation is a non-empty candidate set, checked up
   front) and reported to [on_solution], and the search runs over the
   clusters under one budget.  MRV picks among the unassigned variables
   of the open cluster and the root; once the open cluster's own are
   assigned, among its children's, and picking one opens that child.  A
   subtree that completes closes, and the search goes on from the
   nearest incomplete ancestor.  If nothing after it succeeds, no other
   values for the closed subtree can help — the rest reaches it only
   through its assigned key — so the search cuts back to where it was
   opened, never re-entering it.  Without a decomposition MRV opens a
   component among all unassigned variables, and the cut after one
   completes ends the search.

   With a decomposition, forward checking from outside a subtree
   reaches it only through its key (running intersection), so what the
   search does below a cluster depends only on its key's values.  A
   memo per cluster records, under those values, a good — the subtree's
   assignment, which a later opening under the same key copies in — or
   a nogood, which makes the opening a dead end.  Each (cluster, key
   values) pair is therefore searched at most once, and the decisions
   stay below Σ_bags 2·|B|^|bag| for a target of |B| ≥ 2 nodes.  Two
   more nogoods cost no search: forward checking that empties the row of
   a variable below an unopened cluster whose key is assigned, and a
   value that would complete a key the memo holds as a nogood, which is
   skipped without a decision.  [csp.solver.memo_hits] counts both
   kinds of hit.

   Enumeration needs every combination, so it searches the whole
   instance under the root alone. *)
exception Cut of int

(* {1 Lex-leader symmetry breaking}

   Any permutation of a class of interchangeable variables
   ({!Compiled.interchangeable_classes}) is an automorphism of the source
   that keeps every initial row, so a homomorphism exists iff one sorted
   along the class on dense target ids does: h(x_1) <= h(x_2) <= ...
   (the lex-leader constraint of Crawford, Ginsberg, Luks & Roy, KR
   1996).  The existence search imposes it on consecutive members in one
   component only — a pair across components would tie together what it
   solves apart — and forward-checks it: after [v <- b], values below [b]
   leave [next.(v)]'s row and values above [b] leave [prev.(v)]'s. *)
type lex = { next : int array; prev : int array (* -1: none *) }

(* the chain of consecutive class members [a], [b] that [linked a b]
   admits *)
let lex_chain ~linked (cp : Compiled.t) classes =
  let n = max 1 cp.Compiled.nvars in
  let next = Array.make n (-1) and prev = Array.make n (-1) in
  let any = ref false in
  Array.iter
    (fun cls ->
      for i = 0 to Array.length cls - 2 do
        let a = cls.(i) and b = cls.(i + 1) in
        if linked a b then begin
          next.(a) <- b;
          prev.(b) <- a;
          any := true
        end
      done)
    classes;
  if !any then Some { next; prev } else None

let lex_order (cp : Compiled.t) =
  let comp = cp.Compiled.comp in
  lex_chain cp (Compiled.interchangeable_classes cp) ~linked:(fun a b ->
      comp.(a) >= 0 && comp.(a) = comp.(b))

type memo_entry = Good of int array | Nogood

(* [f ()], then [restore ()] however [f] ends *)
let protect restore f =
  match f () with
  | () -> restore ()
  | exception e ->
    restore ();
    raise e

let run_search_compiled ~budget ~exists ?decomposition ?lex (cp : Compiled.t)
    on_solution =
  let module Bitset = Domains.Bitset in
  let module Dense = Domains.Dense in
  Obs.incr searches;
  let nvars = cp.Compiled.nvars in
  let cl =
    match decomposition with
    | Some d when exists -> decomposition_clusters cp d
    | _ when exists -> component_clusters cp
    | _ -> under_root ~nclusters:0 (Array.make (max 1 nvars) 0)
  in
  if exists && (not cl.memo) && cp.Compiled.ncomps >= 2 then begin
    Obs.incr components_splits;
    Obs.set_int components_count cp.Compiled.ncomps
  end;
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
    let home = cl.home and cparent = cl.cparent in
    let root = Array.length cparent in
    (* per cluster: unassigned home variables, and those plus the
       children not yet complete; a cluster is live if it homes any *)
    let left = Array.make (root + 1) 0 in
    Array.iter (fun v -> left.(home.(v)) <- left.(home.(v)) + 1) order;
    let pending = Array.copy left in
    Array.iteri
      (fun c p -> if left.(c) > 0 then pending.(p) <- pending.(p) + 1)
      cparent;
    let memo =
      if cl.memo then Array.init root (fun _ -> Hashtbl.create 8) else [||]
    in
    let cur = ref root in
    let m = Dense.create ~vars:(max 1 nvars) ~cap:cp.Compiled.cap in
    Array.iteri (fun v row -> Dense.set_row m v row) cp.Compiled.init;
    let assignment = Array.make (max 1 nvars) (-1) in
    let assigned u = assignment.(u) >= 0 in
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
    (* the memo: cluster [j]'s key values, reading [b] for [v] *)
    let keybuf =
      Array.map (fun key -> Array.make (Array.length key) 0) cl.keys
    in
    let key_with j v b =
      let key = cl.keys.(j) and buf = keybuf.(j) in
      for i = 0 to Array.length key - 1 do
        buf.(i) <- (if key.(i) = v then b else assignment.(key.(i)))
      done;
      buf
    in
    let store j entry =
      Hashtbl.replace memo.(j) (Array.copy (key_with j (-1) 0)) entry
    in
    let assigned_but v j =
      Array.for_all (fun u -> u = v || assigned u) cl.keys.(j)
    in
    (* clusters under search: those on the path from the root to [cur] *)
    let opened = Array.make (root + 1) false in
    (* forward checking emptied [u]'s row: the nearest unopened cluster
       above [u] whose key is assigned is a nogood under it, since [u]'s
       row depends on nothing else *)
    let wiped u =
      let rec up j =
        if j <> root && not opened.(j) then
          if assigned_but (-1) j then store j Nogood else up cparent.(j)
      in
      if cl.memo then up home.(u)
    in
    (* forward-check [c] after assigning [v <- b]: one scan over the
       target tuples matching [b] at [v]'s position, accumulating
       per-slot support bitsets, then a row-wise [land] per unassigned
       variable.  Prunes exactly what per-value support probing would. *)
    let slots = Array.make (max 1 cp.Compiled.max_arity) (-1) in
    let slot_vars = Array.make (max 1 cp.Compiled.max_arity) (-1) in
    let propagate_cstr trail (c : Compiled.ccstr) v b =
      let cvars = c.Compiled.cvars in
      let arity = Array.length cvars in
      (* slot k <-> k-th distinct unassigned variable of c; slots.(p) =
         slot of the variable at position p, or -1 if assigned *)
      let nslots = ref 0 in
      for p = 0 to arity - 1 do
        let u = cvars.(p) in
        if assignment.(u) >= 0 then slots.(p) <- -1
        else begin
          (* an earlier occurrence of u holds its slot *)
          let q = ref 0 in
          while cvars.(!q) <> u do
            incr q
          done;
          if !q < p then slots.(p) <- slots.(!q)
          else begin
            let k = !nslots in
            incr nslots;
            slots.(p) <- k;
            slot_vars.(k) <- u;
            Bitset.clear scratch.(k)
          end
        end
      done;
      let nslots = !nslots in
      (match c.Compiled.tgt with
      | None -> ()
      | Some tr ->
        (* position of v in c (first occurrence) to narrow the scan *)
        let pv = ref 0 in
        while cvars.(!pv) <> v do
          incr pv
        done;
        let cands = tr.Structure.by_pos.(!pv).(b) in
        let flat = tr.Structure.flat in
        for i = 0 to Array.length cands - 1 do
          let base = cands.(i) * arity in
          for k = 0 to nslots - 1 do
            slot_val.(k) <- -1
          done;
          let consistent = ref true in
          let p = ref 0 in
          while !consistent && !p < arity do
            let u = cvars.(!p) in
            let tv = flat.(base + !p) in
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
            done
        done);
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
          wiped u;
          ok := false
        end
      done;
      !ok
    in
    (* [u]'s row narrowed to [lo, hi], saved on [trail] first *)
    let clip trail u ~lo ~hi =
      if saved_stamp.(u) <> !stamp then begin
        saved_stamp.(u) <- !stamp;
        trail := (u, Dense.save_row m u, Dense.count m u) :: !trail
      end;
      Obs.add fc_prunes (Dense.clip_row m u ~lo ~hi);
      Dense.count m u > 0
      || begin
        Obs.incr wipeouts;
        false
      end
    in
    (* forward-check the lex-leader pairs on [v]: an assigned partner
       already holds, since its own assignment clipped [v]'s row *)
    let lex_ok trail v b =
      match lex with
      | None -> true
      | Some l ->
        let s = l.next.(v) and p = l.prev.(v) in
        (s < 0 || assigned s || clip trail s ~lo:b ~hi:(cp.Compiled.cap - 1))
        && (p < 0 || assigned p || clip trail p ~lo:0 ~hi:b)
    in
    let n_assigned = ref 0 in
    (* [v <- b], checked or forward-checked against each constraint on
       [v] and its lex-leader pairs; the rows it narrows are saved on
       [trail] *)
    let assign trail v b =
      assignment.(v) <- b;
      incr n_assigned;
      incr stamp;
      List.for_all
        (fun (c : Compiled.ccstr) ->
          if Array.for_all assigned c.Compiled.cvars then check_full c
          else propagate_cstr trail c v b)
        cp.Compiled.by_var.(v)
      && lex_ok trail v b
    in
    let unassign trail v =
      List.iter (fun (u, row, cnt) -> Dense.restore_row m u row cnt) !trail;
      assignment.(v) <- -1;
      decr n_assigned
    in
    let record c =
      if cl.memo then
        store c (Good (Array.map (fun u -> assignment.(u)) cl.subtree.(c)))
    in
    let rec go () =
      if !n_assigned = n_branch then begin
        Obs.incr solutions;
        if on_solution assignment m free = `Stop then raise Stop
      end
      else begin
        Obs.incr mrv_selects;
        let cur0 = !cur in
        let opening = cur0 = root || left.(cur0) = 0 in
        let v =
          let best = ref (-1) in
          Array.iter
            (fun v ->
              let h = home.(v) in
              if
                assignment.(v) < 0
                && (h = cur0 || h = root || (opening && cparent.(h) = cur0))
              then
                if !best < 0 || Dense.count m v < Dense.count m !best then
                  best := v)
            order;
          !best
        in
        let h = home.(v) in
        if h = cur0 || h = root then branch v else open_cluster h v
      end
    (* open [h], a child of the open cluster, at its variable [v] *)
    and open_cluster h v =
      let cur0 = !cur in
      match
        if cl.memo then Hashtbl.find_opt memo.(h) (key_with h (-1) 0)
        else None
      with
      | Some Nogood -> Obs.incr memo_hits
      | Some (Good vals) -> (
        Obs.incr memo_hits;
        let vars = cl.subtree.(h) in
        Array.iteri (fun i u -> assignment.(u) <- vals.(i)) vars;
        n_assigned := !n_assigned + Array.length vars;
        try
          protect
            (fun () ->
              Array.iter (fun u -> assignment.(u) <- -1) vars;
              n_assigned := !n_assigned - Array.length vars)
            (fun () -> close h)
        with Cut c when c = h -> ())
      | None -> (
        cur := h;
        opened.(h) <- true;
        try
          protect
            (fun () ->
              cur := cur0;
              opened.(h) <- false)
            (fun () -> branch v);
          if cl.memo then store h Nogood
        with Cut c when c = h -> ())
    (* try every value of [v], a variable of the open cluster or the root *)
    and branch v =
      let h = home.(v) in
      (* the clusters whose key [v] completes: a value that makes one of
         those keys a known nogood is a dead end without a decision *)
      let completes =
        if cl.memo then List.filter (assigned_but v) cl.watch.(v) else []
      in
      let nogood b =
        List.exists
          (fun j ->
            match Hashtbl.find_opt memo.(j) (key_with j v b) with
            | Some Nogood -> true
            | _ -> false)
          completes
      in
      List.iter
        (fun b ->
          if completes <> [] && nogood b then Obs.incr memo_hits
          else decide v h b)
        (Dense.row_to_list m v)
    (* the decision [v <- b], [v] homed at [h], and the search below it *)
    and decide v h b =
      Budget.tick_node budget;
      Obs.incr decisions;
      let trail = ref [] in
      let ok = assign trail v b in
      (* unwind the trail even on Stop/Interrupted so sibling state stays
         coherent for enumerating callers *)
      protect (fun () -> unassign trail v) @@ fun () ->
      if not ok then begin
        Obs.incr backtracks_c;
        Budget.tick_backtrack budget
      end
      else if h = root then go ()
      else begin
        left.(h) <- left.(h) - 1;
        pending.(h) <- pending.(h) - 1;
        protect
          (fun () ->
            left.(h) <- left.(h) + 1;
            pending.(h) <- pending.(h) + 1)
          (fun () ->
            if pending.(h) = 0 then begin
              record h;
              close h
            end
            else go ())
      end
    (* [h]'s subtree is complete and recorded: close the ancestors it
       completes, go on from the nearest incomplete one, and if nothing
       after succeeds, cut back to where the outermost closed cluster
       was opened *)
    and close h =
      let rec up c =
        let p = cparent.(c) in
        pending.(p) <- pending.(p) - 1;
        if p <> root && pending.(p) = 0 then begin
          record p;
          up p
        end
        else c
      in
      let a = up h in
      let cur0 = !cur in
      cur := cparent.(a);
      let rec down c =
        let p = cparent.(c) in
        pending.(p) <- pending.(p) + 1;
        if c <> a then down p
      in
      protect
        (fun () ->
          cur := cur0;
          down h)
        go;
      raise (Cut a)
    in
    (* with clusters of a decomposition, the pinned variables first *)
    let pinned_ok =
      (not cl.memo)
      || Array.for_all
           (fun v ->
             home.(v) < root
             || assign (ref []) v (List.hd (Dense.row_to_list m v)))
           order
    in
    try
      if pinned_ok then go ();
      `Exhausted
    with
    | Stop -> `Stopped
    | Cut _ -> `Exhausted
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

let solve_cp ?decomposition limits cp =
  Budget.run limits (fun budget ->
      let found = ref None in
      (match
         run_search_compiled ~budget ~exists:true ?decomposition cp
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
  solve_cp ?decomposition:config.decomposition config.limits
    (Compiled.make ?restrict:config.restrict ~source ~target ())


let satisfiable ?(config = Config.default) ~source ~target () =
  Trace.with_span "csp.engine.satisfiable" @@ fun () ->
  let cp = Compiled.make ?restrict:config.restrict ~source ~target () in
  let lex =
    match config.decomposition with None -> lex_order cp | Some _ -> None
  in
  Budget.run config.limits (fun budget ->
      let found = ref false in
      (match
         run_search_compiled ~budget ~exists:true
           ?decomposition:config.decomposition ?lex cp
           (fun _ _ free_vars ->
             Obs.add exists_skipped_vars (List.length free_vars);
             found := true;
             `Stop)
       with
      | `Exhausted | `Stopped -> ());
      if !found then Some () else None)

(* Enumeration searches the whole instance under the root, so every
   pair of consecutive class members takes the lex-leader constraint *)
let first_compiled ~budget ~classes cp ~accept =
  let lex = lex_chain cp classes ~linked:(fun _ _ -> true) in
  let found = ref None in
  (match
     run_search_compiled ~budget ~exists:false ?lex cp (fun assignment _ _ ->
         if accept assignment then begin
           found := Some (Array.copy assignment);
           `Stop
         end
         else `Continue)
   with
  | `Exhausted | `Stopped -> ());
  !found

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
            else begin
              Obs.incr backtracks_c;
              Budget.tick_backtrack budget
            end)
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
