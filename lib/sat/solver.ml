module Engine = Certdb_csp.Engine
module Obs = Certdb_obs.Obs
module Fault = Certdb_obs.Fault

let conflict_fault_point = "csp.sat.conflict"

(* Observability: one family of counters for every backend. *)
let c_solves = Obs.counter "csp.sat.solves"
let c_decisions = Obs.counter "csp.sat.decisions"
let c_conflicts = Obs.counter "csp.sat.conflicts"
let c_propagations = Obs.counter "csp.sat.propagations"
let c_learned = Obs.counter "csp.sat.learned"
let c_restarts = Obs.counter "csp.sat.restarts"

module type S = sig
  type t

  val name : string
  val create : unit -> t
  val reserve : t -> int -> unit
  val new_var : t -> int
  val nvars : t -> int
  val add_clause : t -> int array -> unit

  val solve :
    ?assumptions:int list ->
    ?limits:Engine.Limits.t ->
    t ->
    unit Engine.outcome

  val model_value : t -> int -> bool
  val conflicts : t -> int
end

(* Ascending in-place sort.  Encoders emit clauses as runs — the
   support clauses newest variable first — so a descending array is
   reversed first, an ascending one is left alone, and only the rest is
   sorted: by insertion when short, by the library sort beyond.
   [Int.compare] is total, so every path yields the same array. *)
let sort_lits (a : int array) =
  let n = Array.length a in
  if n > 1 && a.(0) > a.(n - 1) then
    for i = 0 to (n / 2) - 1 do
      let x = a.(i) in
      a.(i) <- a.(n - 1 - i);
      a.(n - 1 - i) <- x
    done;
  let sorted = ref true in
  for i = 1 to n - 1 do
    if a.(i - 1) > a.(i) then sorted := false
  done;
  if not !sorted then
    if n > 16 then Array.sort Int.compare a
    else
      for i = 1 to n - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done

module Cdcl = struct
  let name = "cdcl"

  (* Internal literals: variable [v] (0-based) is [2*v] positive,
     [2*v + 1] negated.  External literals are DIMACS-style [±(v+1)].

     A clause of three or more literals is the array its producer
     handed to [add_clause]; its id is its index in [clauses].  Watch
     lists live in one int arena, a segment per literal.  Until the
     first [solve] the watches are only recorded, in order, and counted
     per literal; the first [solve] then lays every segment out at its
     exact size in one arena.  From then on a push to a full segment
     moves it to the arena's end at twice the capacity.  Every
     per-variable array has length [cap]; the per-literal ones
     [2 * cap].

     A watch is [cid lsl 1] for a clause of three or more literals and
     [(other lsl 1) lor 1] for a binary clause, which never moves its
     watches: visiting it reads the other literal's value and nothing
     else.  A binary clause's order of literals is never observable —
     propagation puts the falsified one second before using it — so
     it is not kept.  Reasons follow suit: [-1] for none, a clause id,
     or [-2 - l] for a binary clause whose other literal is the false
     [l]. *)
  type t = {
    mutable nvars : int;
    mutable cap : int;
    mutable clauses : int array array; (* id -> lits; learnt included *)
    mutable nclauses : int;
    mutable watching : bool; (* watch lists are laid out *)
    mutable pend : int array;
        (* before that: (list literal, watch) pairs, in push order *)
    mutable npend : int;
    mutable warena : int array; (* watch segments *)
    mutable warena_size : int;
    mutable wstart : int array; (* lit -> its segment's offset *)
    mutable wsize : int array; (* lit -> watches in its segment *)
    mutable wcap : int array;
        (* lit -> its segment's capacity; before the layout, its count *)
    mutable lval : int array; (* lit -> 1 true / -1 false / 0 unassigned *)
    mutable level : int array; (* var -> decision level *)
    mutable reason : int array; (* var -> why it is assigned, as above *)
    mutable activity : float array;
    mutable polarity : bool array; (* phase saving *)
    mutable seen : bool array; (* conflict-analysis scratch *)
    mutable learnt_buf : int array; (* conflict-analysis scratch *)
    mutable trail : int array; (* assigned lits, in order *)
    mutable trail_size : int;
    mutable trail_lim : int array; (* trail size when level [i+1] opened *)
    mutable dlevel : int; (* current decision level *)
    mutable qhead : int;
    mutable bumped : bool array; (* var -> activity was ever bumped *)
    mutable zbits : int array;
        (* unassigned never-bumped variables, 32 per word *)
    mutable zlow : int; (* words below [zlow] are empty *)
    mutable heap : int array;
        (* bumped variables, least first under [before]; holds every
           unassigned bumped variable *)
    mutable heap_size : int;
    mutable heap_pos : int array; (* var -> index in [heap], or -1 *)
    mutable var_inc : float;
    mutable unsat : bool; (* a level-0 conflict is permanent *)
    mutable model : int array; (* value snapshot of the last Sat *)
    mutable n_conflicts : int;
    mutable props : int; (* propagations not yet added to the counter *)
    mutable bin_confl : int * int;
        (* the last binary conflict's literals, in clause order *)
  }

  (* The pending-watch buffer only lives from [create] to the first
     [solve], so each domain keeps one spare: a solver takes it when
     created (nobody else can then use it) and hands its own back once
     its watches are laid out.  Serving one instance after another then
     allocates no new buffer: a buffer grown afresh per request doubles
     through large blocks, and the allocator kept ~1 MB more resident on
     the serve benchmark's miss workload.  Spares past [spare_max] words
     are dropped rather than kept. *)
  let spare_pend = Domain.DLS.new_key (fun () -> [||])
  let spare_max = 1 lsl 16

  let create () =
    let pend = Domain.DLS.get spare_pend in
    Domain.DLS.set spare_pend [||];
    {
      nvars = 0;
      cap = 0;
      clauses = [||];
      nclauses = 0;
      watching = false;
      pend;
      npend = 0;
      warena = [||];
      warena_size = 0;
      wstart = [||];
      wsize = [||];
      wcap = [||];
      lval = [||];
      level = [||];
      reason = [||];
      activity = [||];
      polarity = [||];
      seen = [||];
      learnt_buf = [||];
      trail = [||];
      trail_size = 0;
      trail_lim = [||];
      dlevel = 0;
      qhead = 0;
      bumped = [||];
      zbits = [||];
      zlow = 0;
      heap = [||];
      heap_size = 0;
      heap_pos = [||];
      var_inc = 1.0;
      unsat = false;
      model = [||];
      n_conflicts = 0;
      props = 0;
      bin_confl = (0, 0);
    }

  let nvars s = s.nvars
  let conflicts s = s.n_conflicts

  let grow a n d =
    let b = Array.make n d in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* [a], or a copy at least twice as long, with room for [need] words
     past [used]; the copy is a plain loop, which stores ints without
     the generic blit's write barrier. *)
  let room (a : int array) used need =
    if used + need <= Array.length a then a
    else begin
      let len = max 64 (max (2 * Array.length a) (used + need)) in
      let b = Array.make len 0 in
      for i = 0 to used - 1 do
        b.(i) <- a.(i)
      done;
      b
    end

  let set_cap s cap =
    s.cap <- cap;
    s.lval <- grow s.lval (2 * cap) 0;
    s.bumped <- grow s.bumped cap false;
    s.zbits <- grow s.zbits ((cap + 31) lsr 5) 0;
    s.level <- grow s.level cap 0;
    s.reason <- grow s.reason cap (-1);
    s.activity <- grow s.activity cap 0.0;
    s.polarity <- grow s.polarity cap false;
    s.seen <- grow s.seen cap false;
    s.learnt_buf <- grow s.learnt_buf cap 0;
    s.trail <- grow s.trail cap 0;
    s.trail_lim <- grow s.trail_lim cap 0;
    s.heap <- grow s.heap cap 0;
    s.heap_pos <- grow s.heap_pos cap (-1);
    s.wstart <- grow s.wstart (2 * cap) 0;
    s.wsize <- grow s.wsize (2 * cap) 0;
    s.wcap <- grow s.wcap (2 * cap) 0

  let reserve s n =
    if s.nvars + n > s.cap then set_cap s (s.nvars + n)

  (* --- the branching order ---

     VSIDS picks the unassigned variable of highest activity, the lowest
     variable on ties: the order a linear scan for the first maximum
     visits them in.  A variable never bumped has activity 0, so among
     those the pick is simply the lowest unassigned one; they sit in a
     bitset, searched word by word from the lowest non-empty word.
     Bumped variables sit in a binary heap keyed on (activity desc,
     variable asc).  Every unassigned variable is in exactly one of the
     two; an assigned one leaves the bitset at once and the heap lazily,
     when it is met at the top. *)

  let before s a b =
    let x = s.activity.(a) and y = s.activity.(b) in
    x > y || (x = y && a < b)

  let zero_add s v =
    let w = v lsr 5 in
    s.zbits.(w) <- s.zbits.(w) lor (1 lsl (v land 31));
    if w < s.zlow then s.zlow <- w

  let zero_remove s v =
    let w = v lsr 5 in
    s.zbits.(w) <- s.zbits.(w) land lnot (1 lsl (v land 31))

  (* the lowest unassigned never-bumped variable, or -1 *)
  let zero_min s =
    let nw = Array.length s.zbits in
    while s.zlow < nw && s.zbits.(s.zlow) = 0 do
      s.zlow <- s.zlow + 1
    done;
    if s.zlow = nw then -1
    else begin
      let x = s.zbits.(s.zlow) in
      let b = ref (x land -x) and i = ref 0 in
      while !b > 1 do
        b := !b lsr 1;
        incr i
      done;
      (s.zlow lsl 5) + !i
    end

  let heap_place s i v =
    s.heap.(i) <- v;
    s.heap_pos.(v) <- i

  let sift_up s i =
    let v = s.heap.(i) in
    let i = ref i in
    while !i > 0 && before s v s.heap.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      heap_place s !i s.heap.(p);
      i := p
    done;
    heap_place s !i v

  let sift_down s i =
    let v = s.heap.(i) in
    let n = s.heap_size in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c = if r < n && before s s.heap.(r) s.heap.(l) then r else l in
        if before s s.heap.(c) v then begin
          heap_place s !i s.heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap_place s !i v

  let heap_insert s v =
    if s.heap_pos.(v) < 0 then begin
      heap_place s s.heap_size v;
      s.heap_size <- s.heap_size + 1;
      sift_up s (s.heap_size - 1)
    end

  let heap_pop s =
    s.heap_pos.(s.heap.(0)) <- -1;
    s.heap_size <- s.heap_size - 1;
    if s.heap_size > 0 then begin
      heap_place s 0 s.heap.(s.heap_size);
      sift_down s 0
    end

  let new_var s =
    let v = s.nvars in
    if v = s.cap then set_cap s (max 16 (2 * s.cap));
    s.nvars <- v + 1;
    zero_add s v;
    v + 1

  let lit_of_ext s l =
    let v = abs l - 1 in
    if l = 0 || v >= s.nvars then
      invalid_arg (Printf.sprintf "Sat.Solver: literal %d out of range" l);
    (2 * v) lor (if l < 0 then 1 else 0)

  let lit_value s l = s.lval.(l)

  let enqueue s l reason =
    s.lval.(l) <- 1;
    s.lval.(l lxor 1) <- -1;
    zero_remove s (l lsr 1);
    s.level.(l lsr 1) <- s.dlevel;
    s.reason.(l lsr 1) <- reason;
    s.trail.(s.trail_size) <- l;
    s.trail_size <- s.trail_size + 1

  let watch_push s l cid =
    let n = s.wsize.(l) in
    if n = s.wcap.(l) then begin
      let cap = if n = 0 then 4 else 2 * n in
      let start = s.warena_size in
      s.warena <- room s.warena start cap;
      let w = s.warena and old = s.wstart.(l) in
      for i = 0 to n - 1 do
        w.(start + i) <- w.(old + i)
      done;
      s.warena_size <- start + cap;
      s.wstart.(l) <- start;
      s.wcap.(l) <- cap
    end;
    s.warena.(s.wstart.(l) + n) <- cid;
    s.wsize.(l) <- n + 1

  let add_watch s l w =
    if s.watching then watch_push s l w
    else begin
      let n = s.npend in
      s.pend <- room s.pend n 2;
      s.pend.(n) <- l;
      s.pend.(n + 1) <- w;
      s.npend <- n + 2;
      s.wcap.(l) <- s.wcap.(l) + 1
    end

  (* Watch a clause (at least two literals) through its first two and
     return the reason it gives its first literal.  A clause watching
     [l] lives in the list of [l lxor 1]: it must be revisited when the
     negation of [l] becomes true. *)
  let watch_clause s (c : int array) =
    if Array.length c = 2 then begin
      add_watch s (c.(0) lxor 1) ((c.(1) lsl 1) lor 1);
      add_watch s (c.(1) lxor 1) ((c.(0) lsl 1) lor 1);
      -2 - c.(1)
    end
    else begin
      let cid = s.nclauses in
      if cid = Array.length s.clauses then
        s.clauses <- grow s.clauses (max 16 (2 * cid)) [||];
      s.clauses.(cid) <- c;
      s.nclauses <- cid + 1;
      add_watch s (c.(0) lxor 1) (cid lsl 1);
      add_watch s (c.(1) lxor 1) (cid lsl 1);
      cid
    end

  (* Lay the recorded watches out: each literal's segment gets exactly
     its count ([wcap]), the arena room for as many again. *)
  let start_watching s =
    if not s.watching then begin
      s.watching <- true;
      let off = ref 0 in
      for l = 0 to (2 * s.nvars) - 1 do
        s.wstart.(l) <- !off;
        off := !off + s.wcap.(l)
      done;
      s.warena <- room s.warena 0 (2 * !off);
      s.warena_size <- !off;
      let w = s.warena in
      let i = ref 0 in
      while !i < s.npend do
        let l = s.pend.(!i) in
        w.(s.wstart.(l) + s.wsize.(l)) <- s.pend.(!i + 1);
        s.wsize.(l) <- s.wsize.(l) + 1;
        i := !i + 2
      done;
      let n = Array.length s.pend in
      if n <= spare_max && n > Array.length (Domain.DLS.get spare_pend) then
        Domain.DLS.set spare_pend s.pend;
      s.pend <- [||];
      s.npend <- 0
    end

  (* Clauses may only be added at decision level 0 (the solver always
     returns there between [solve] calls), so simplification against the
     root-level assignment keeps the watch invariant sound.  The array is
     normalised in place: sorted, duplicates and root-false literals
     dropped; a complementary pair (adjacent once sorted, [2v] then
     [2v+1]) or a root-true literal makes it a tautology. *)
  let add_clause s lits =
    if not s.unsat then begin
      assert (s.dlevel = 0);
      let n = Array.length lits in
      for i = 0 to n - 1 do
        lits.(i) <- lit_of_ext s lits.(i)
      done;
      sort_lits lits;
      let kept = ref 0 and taut = ref false and i = ref 0 in
      while (not !taut) && !i < n do
        let l = lits.(!i) in
        let prev = if !i > 0 then lits.(!i - 1) else -1 in
        if l = prev then ()
        else if l = prev lxor 1 then taut := true
        else begin
          let x = lit_value s l in
          if x > 0 then taut := true
          else if x = 0 then begin
            lits.(!kept) <- l;
            incr kept
          end
        end;
        incr i
      done;
      if not !taut then
        match !kept with
        | 0 -> s.unsat <- true
        | 1 -> enqueue s lits.(0) (-1)
        | k ->
          let lits = if k = n then lits else Array.sub lits 0 k in
          ignore (watch_clause s lits)
    end

  (* Two-watched-literal unit propagation; returns the conflicting clause
     id, [-2] for a binary conflict (its literals in [bin_confl]), or
     [-1].  A push to another literal's list may move the watch arena,
     so it is always reached through [s.warena]; the segment of [p]
     itself stays put (no clause moves its watch onto a false
     literal). *)
  let propagate s =
    let confl = ref (-1) in
    while !confl = -1 && s.qhead < s.trail_size do
      let p = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      s.props <- s.props + 1;
      let base = s.wstart.(p) and n = s.wsize.(p) in
      let np = p lxor 1 in
      let j = ref 0 in
      let i = ref 0 in
      while !i < n && !confl = -1 do
        let w = s.warena.(base + !i) in
        incr i;
        if w land 1 = 1 then begin
          (* binary: the clause is (other, np) *)
          s.warena.(base + !j) <- w;
          incr j;
          let other = w lsr 1 in
          let x = lit_value s other in
          if x = 0 then enqueue s other (-2 - np)
          else if x < 0 then begin
            s.bin_confl <- (other, np);
            confl := -2
          end
        end
        else begin
          let cid = w lsr 1 in
          let c = s.clauses.(cid) in
          (* normalize: the falsified watch sits at c.(1) *)
          if c.(0) = np then begin
            c.(0) <- c.(1);
            c.(1) <- np
          end;
          if lit_value s c.(0) > 0 then begin
            (* satisfied: keep watching *)
            s.warena.(base + !j) <- w;
            incr j
          end
          else begin
            (* look for a non-false literal to watch instead *)
            let len = Array.length c in
            let k = ref 2 in
            while !k < len && lit_value s c.(!k) < 0 do
              incr k
            done;
            if !k < len then begin
              c.(1) <- c.(!k);
              c.(!k) <- np;
              watch_push s (c.(1) lxor 1) w
            end
            else begin
              s.warena.(base + !j) <- w;
              incr j;
              if lit_value s c.(0) < 0 then confl := cid
              else enqueue s c.(0) cid
            end
          end
        end
      done;
      if !confl <> -1 then begin
        (* a conflict leaves the rest of the watch list untouched *)
        while !i < n do
          s.warena.(base + !j) <- s.warena.(base + !i);
          incr j;
          incr i
        done;
        s.qhead <- s.trail_size
      end;
      s.wsize.(p) <- !j
    done;
    !confl

  let var_bump s v =
    s.activity.(v) <- s.activity.(v) +. s.var_inc;
    if not s.bumped.(v) then begin
      s.bumped.(v) <- true;
      if s.lval.(2 * v) = 0 then begin
        zero_remove s v;
        heap_insert s v
      end
    end;
    if s.activity.(v) > 1e100 then begin
      for u = 0 to s.nvars - 1 do
        s.activity.(u) <- s.activity.(u) *. 1e-100
      done;
      s.var_inc <- s.var_inc *. 1e-100;
      (* rescaling may round distinct activities to ties: re-heapify so
         the heap order stays the scan order *)
      for i = (s.heap_size / 2) - 1 downto 0 do
        sift_down s i
      done
    end
    else if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

  let cancel_until s lvl =
    if s.dlevel > lvl then begin
      let cut = s.trail_lim.(lvl) in
      for i = s.trail_size - 1 downto cut do
        let l = s.trail.(i) in
        let v = l lsr 1 in
        s.polarity.(v) <- l land 1 = 0;
        s.lval.(l) <- 0;
        s.lval.(l lxor 1) <- 0;
        if s.bumped.(v) then heap_insert s v else zero_add s v
      done;
      s.trail_size <- cut;
      s.qhead <- cut;
      s.dlevel <- lvl
    end

  (* First-UIP conflict analysis.  Returns (learnt clause with the
     asserting literal first and the lower-level literals after it, last
     found first; backjump level). *)
  let analyze s confl =
    let buf = s.learnt_buf in
    let nbuf = ref 0 in
    let btlevel = ref 0 in
    let counter = ref 0 in
    let p = ref (-1) in
    let cid = ref confl in
    let idx = ref (s.trail_size - 1) in
    let cur = s.dlevel in
    let visit q =
      if q <> !p then begin
        let v = q lsr 1 in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= cur then incr counter
          else begin
            buf.(!nbuf) <- q;
            incr nbuf;
            if s.level.(v) > !btlevel then btlevel := s.level.(v)
          end
        end
      end
    in
    if confl = -2 then begin
      let a, b = s.bin_confl in
      visit a;
      visit b
    end;
    let continue = ref true in
    while !continue do
      if !cid >= 0 then begin
        let c = s.clauses.(!cid) in
        for k = 0 to Array.length c - 1 do
          visit c.(k)
        done
      end
      else if !p >= 0 then (* a binary reason: [p], then its false literal *)
        visit (-2 - !cid);
      (* next seen literal on the trail *)
      while not s.seen.(s.trail.(!idx) lsr 1) do
        decr idx
      done;
      p := s.trail.(!idx);
      decr idx;
      let v = !p lsr 1 in
      s.seen.(v) <- false;
      decr counter;
      if !counter = 0 then continue := false else cid := s.reason.(v)
    done;
    let n = !nbuf in
    let learnt = Array.make (n + 1) (!p lxor 1) in
    for k = 0 to n - 1 do
      learnt.(n - k) <- buf.(k);
      s.seen.(buf.(k) lsr 1) <- false
    done;
    (learnt, !btlevel)

  (* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
  let rec luby i =
    (* i = 2^k - 1 ends a block with value 2^(k-1); otherwise recurse
       into the repeated prefix *)
    let rec pow2 k acc = if acc >= i + 1 then (k, acc) else pow2 (k + 1) (2 * acc) in
    let k, p = pow2 0 1 in
    if p = i + 1 then float_of_int (1 lsl (k - 1)) else luby (i - (p / 2) + 1)

  let restart_base = 64

  exception Unsat_under_assumptions

  let new_level s =
    s.trail_lim.(s.dlevel) <- s.trail_size;
    s.dlevel <- s.dlevel + 1

  let rec heap_min s =
    if s.heap_size = 0 then -1
    else
      let v = s.heap.(0) in
      if s.lval.(2 * v) = 0 then v
      else begin
        heap_pop s;
        heap_min s
      end

  (* The unassigned variable of highest activity (lowest id on ties),
     or -1 when the assignment is total. *)
  let pick_branch s =
    let h = heap_min s and z = zero_min s in
    if h < 0 then z else if z < 0 || before s h z then h else z

  let solve ?(assumptions = []) ?(limits = Engine.Limits.unlimited) s =
    Obs.incr c_solves;
    if s.unsat then Engine.Unsat
    else begin
      let assumps = Array.of_list (List.map (lit_of_ext s) assumptions) in
      start_watching s;
      Engine.Budget.run limits (fun budget ->
          Fun.protect
            ~finally:(fun () ->
              cancel_until s 0;
              Obs.add c_propagations s.props;
              s.props <- 0)
            (fun () ->
              let sat = ref None in
              let restarts = ref 0 in
              let conflict_limit = ref (float_of_int restart_base *. luby 1) in
              let conflicts_here = ref 0 in
              (try
                 while !sat = None do
                   let confl = propagate s in
                   if confl <> -1 then begin
                     (* conflict *)
                     s.n_conflicts <- s.n_conflicts + 1;
                     incr conflicts_here;
                     Obs.incr c_conflicts;
                     Fault.hit conflict_fault_point;
                     Engine.Budget.tick_backtrack budget;
                     if s.dlevel = 0 then begin
                       s.unsat <- true;
                       raise Unsat_under_assumptions
                     end;
                     let learnt, btlevel = analyze s confl in
                     cancel_until s btlevel;
                     Obs.incr c_learned;
                     s.var_inc <- s.var_inc /. 0.95;
                     if Array.length learnt = 1 then enqueue s learnt.(0) (-1)
                     else begin
                       (* watch the asserting literal and a max-level one *)
                       let best = ref 1 in
                       for k = 2 to Array.length learnt - 1 do
                         if
                           s.level.(learnt.(k) lsr 1)
                           > s.level.(learnt.(!best) lsr 1)
                         then best := k
                       done;
                       let tmp = learnt.(1) in
                       learnt.(1) <- learnt.(!best);
                       learnt.(!best) <- tmp;
                       enqueue s learnt.(0) (watch_clause s learnt)
                     end
                   end
                   else if
                     float_of_int !conflicts_here >= !conflict_limit
                   then begin
                     (* Luby restart: back to the root, keep the learnt
                        clauses and phases *)
                     conflicts_here := 0;
                     incr restarts;
                     Obs.incr c_restarts;
                     conflict_limit :=
                       float_of_int restart_base *. luby (!restarts + 1);
                     cancel_until s 0
                   end
                   else begin
                     (* re-assert assumptions, then branch *)
                     let rec next_assumption i =
                       if i >= Array.length assumps then `Done
                       else
                         let l = assumps.(i) in
                         match lit_value s l with
                         | v when v > 0 -> next_assumption (i + 1)
                         | v when v < 0 -> `Conflicting
                         | _ -> `Decide l
                     in
                     match next_assumption 0 with
                     | `Conflicting -> raise Unsat_under_assumptions
                     | `Decide l ->
                       new_level s;
                       enqueue s l (-1)
                     | `Done -> (
                       match pick_branch s with
                       | -1 ->
                         (* full assignment: a model *)
                         s.model <-
                           Array.init s.nvars (fun v -> s.lval.(2 * v));
                         sat := Some true
                       | v ->
                         (* decisions are the SAT side of the node budget;
                            the tick also polls the cancel token and the
                            deadline *)
                         Engine.Budget.tick_node budget;
                         Obs.incr c_decisions;
                         new_level s;
                         enqueue s
                           ((2 * v) lor (if s.polarity.(v) then 0 else 1))
                           (-1))
                   end
                 done;
                 Some ()
               with Unsat_under_assumptions -> None)))
    end

  let model_value s v =
    let v = v - 1 in
    v >= 0 && v < Array.length s.model && s.model.(v) > 0

  let root_value s v =
    let l = 2 * (v - 1) in
    if v < 1 || v > s.nvars || s.lval.(l) = 0 || s.level.(v - 1) > 0 then None
    else Some (s.lval.(l) > 0)

  let inconsistent s = s.unsat
end
