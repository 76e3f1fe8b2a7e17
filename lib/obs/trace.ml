module Json = Obs.Json

let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ids are process-unique across domains; a trace id is its root span's id *)
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

type kind = Span | Instant

type event = {
  trace_id : int;
  span_id : int;
  parent : int option;
  name : string;
  labels : (string * string) list;
  start_ms : float;
  dur_ms : float;
  domain : int;
  kind : kind;
}

(* The ring: writers claim a slot index with one fetch-and-add and store an
   immutable event behind an option pointer — no locks on the record path.
   Readers copy the array; a racing write can make the copy miss (or see a
   newer event in) a slot, which is acceptable for a diagnostic stream.
   [set_capacity]/[clear] swap the whole ring and are not meant to race
   with writers. *)
type ring = { slots : event option array; widx : int Atomic.t }

let make_ring n = { slots = Array.make (max 1 n) None; widx = Atomic.make 0 }
let ring = ref (make_ring 8192)
let capacity () = Array.length !ring.slots
let set_capacity n = ring := make_ring n
let clear () = set_capacity (capacity ())

let record_event ev =
  let r = !ring in
  let i = Atomic.fetch_and_add r.widx 1 in
  r.slots.(i mod Array.length r.slots) <- Some ev

let dropped () =
  let r = !ring in
  max 0 (Atomic.get r.widx - Array.length r.slots)

let events () =
  let r = !ring in
  let cap = Array.length r.slots in
  let w = Atomic.get r.widx in
  let copy = Array.copy r.slots in
  let first = if w <= cap then 0 else w - cap in
  let acc = ref [] in
  for i = w - 1 downto first do
    match copy.(i mod cap) with None -> () | Some ev -> acc := ev :: !acc
  done;
  !acc

let events_of tid = List.filter (fun ev -> ev.trace_id = tid) (events ())

(* Domain-local state: the stack of open frames, plus an ambient
   (trace, parent span) installed by [with_context] that seeds root spans
   opened on this domain — how Batch worker domains join the
   coordinator's trace. *)

type frame = {
  f_id : int;
  f_trace : int;
  f_parent : int option;
  f_name : string;
  f_start : float;
  mutable f_labels : (string * string) list;
}

type context = int * int option (* trace id, parent span id *)

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let ambient_key : context option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let head () = match !(Domain.DLS.get stack_key) with [] -> None | f :: _ -> Some f
let current_trace () = Option.map (fun f -> f.f_trace) (head ())
let current_span () = Option.map (fun f -> f.f_id) (head ())

let capture () =
  if not !enabled_flag then None
  else
    match head () with
    | Some f -> Some (f.f_trace, Some f.f_id)
    | None -> !(Domain.DLS.get ambient_key)

let with_context ctx f =
  match ctx with
  | None -> f ()
  | Some _ when not !enabled_flag -> f ()
  | Some _ ->
    let cell = Domain.DLS.get ambient_key in
    let saved = !cell in
    cell := ctx;
    Fun.protect ~finally:(fun () -> cell := saved) f

let annotate k v =
  if !enabled_flag then
    match head () with
    | None -> ()
    | Some f -> f.f_labels <- (k, v) :: List.remove_assoc k f.f_labels

let label k = Option.bind (head ()) (fun f -> List.assoc_opt k f.f_labels)

let close_frame fr stack =
  let now = Obs.now_ms () in
  record_event
    {
      trace_id = fr.f_trace;
      span_id = fr.f_id;
      parent = fr.f_parent;
      name = fr.f_name;
      labels = List.rev fr.f_labels;
      start_ms = fr.f_start;
      dur_ms = now -. fr.f_start;
      domain = (Domain.self () :> int);
      kind = Span;
    };
  (* tolerate mis-paired exits: pop up to and including this frame if
     it is still open, leave the stack alone otherwise *)
  let rec drop = function
    | f :: rest when f.f_id = fr.f_id -> Some rest
    | _ :: rest -> drop rest
    | [] -> None
  in
  match drop !stack with Some rest -> stack := rest | None -> ()

let run_frame ~trace ~parent ?(labels = []) name f =
  let stack = Domain.DLS.get stack_key in
  let fr =
    { f_id = (match trace with `Root id -> id | `Child _ -> fresh_id ());
      f_trace = (match trace with `Root id -> id | `Child t -> t);
      f_parent = parent; f_name = name; f_start = Obs.now_ms ();
      f_labels = labels }
  in
  stack := fr :: !stack;
  Fun.protect ~finally:(fun () -> close_frame fr stack) (fun () -> f fr)

let with_span ?labels name f =
  let timer = Obs.timer name in
  if not !enabled_flag then Obs.time timer f
  else
    Obs.time timer (fun () ->
        match head () with
        | Some parent ->
          run_frame ~trace:(`Child parent.f_trace) ~parent:(Some parent.f_id)
            ?labels name (fun _ -> f ())
        | None -> (
          match !(Domain.DLS.get ambient_key) with
          | Some (tid, psp) ->
            run_frame ~trace:(`Child tid) ~parent:psp ?labels name (fun _ ->
                f ())
          | None ->
            run_frame ~trace:(`Root (fresh_id ())) ~parent:None ?labels name
              (fun _ -> f ())))

let with_trace ?labels name f =
  let timer = Obs.timer name in
  if not !enabled_flag then Obs.time timer (fun () -> f (fresh_id ()))
  else
    Obs.time timer (fun () ->
        run_frame ~trace:(`Root (fresh_id ())) ~parent:None ?labels name
          (fun fr -> f fr.f_id))

let instant ?(labels = []) name =
  if !enabled_flag then begin
    let trace_id, parent =
      match capture () with
      | Some (tid, psp) -> (tid, psp)
      | None -> (fresh_id (), None)
    in
    record_event
      {
        trace_id;
        span_id = fresh_id ();
        parent;
        name;
        labels;
        start_ms = Obs.now_ms ();
        dur_ms = 0.;
        domain = (Domain.self () :> int);
        kind = Instant;
      }
  end

(* Exporters *)

let by_start evs =
  List.stable_sort (fun a b -> Float.compare a.start_ms b.start_ms) evs

let chrome evs =
  let t0 =
    List.fold_left (fun m ev -> Float.min m ev.start_ms) infinity evs
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let event_json ev =
    let args =
      ("trace_id", Json.Int ev.trace_id)
      :: ("span_id", Json.Int ev.span_id)
      :: (match ev.parent with
         | None -> []
         | Some p -> [ ("parent", Json.Int p) ])
      @ List.map (fun (k, v) -> (k, Json.String v)) ev.labels
    in
    Json.Obj
      ([
         ("name", Json.String ev.name);
         ("cat", Json.String "certdb");
         ("ph", Json.String (match ev.kind with Span -> "X" | Instant -> "i"));
         ("ts", Json.Float ((ev.start_ms -. t0) *. 1000.));
       ]
      @ (match ev.kind with
        | Span -> [ ("dur", Json.Float (ev.dur_ms *. 1000.)) ]
        | Instant -> [ ("s", Json.String "t") ])
      @ [
          ("pid", Json.Int 1);
          ("tid", Json.Int ev.domain);
          ("args", Json.Obj args);
        ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json (by_start evs)));
      ("displayTimeUnit", Json.String "ms");
    ]

(* headline labels hoisted to the top of a summary; numeric ones are
   rendered as JSON numbers when they parse *)
let headline_keys =
  [
    "route"; "rung"; "cache"; "nodes"; "backtracks"; "sat_decisions";
    "sat_conflicts";
  ]

let numeric_keys =
  [ "nodes"; "backtracks"; "sat_decisions"; "sat_conflicts" ]

let summary ?root tid =
  let evs = by_start (events_of tid) in
  let evs =
    match root with
    | None -> evs
    | Some rid ->
      (* subtree of [rid]: close over parent links *)
      let keep = Hashtbl.create 16 in
      Hashtbl.replace keep rid ();
      (* events are sorted by start; a parent starts before its children,
         so one forward pass reaches the whole subtree *)
      List.filter
        (fun ev ->
          ev.span_id = rid
          || match ev.parent with
             | Some p when Hashtbl.mem keep p ->
               Hashtbl.replace keep ev.span_id ();
               true
             | _ -> false)
        evs
  in
  let ids = Hashtbl.create 16 in
  List.iter (fun ev -> Hashtbl.replace ids ev.span_id ()) evs;
  let is_root ev =
    match ev.parent with None -> true | Some p -> not (Hashtbl.mem ids p)
  in
  let root_ev = List.find_opt is_root evs in
  let t0 = match root_ev with Some ev -> ev.start_ms | None -> 0. in
  let hoisted =
    List.filter_map
      (fun k ->
        List.find_map
          (fun ev ->
            Option.map
              (fun v ->
                let j =
                  if List.mem k numeric_keys then
                    match int_of_string_opt v with
                    | Some i -> Json.Int i
                    | None -> Json.String v
                  else Json.String v
                in
                (k, j))
              (List.assoc_opt k ev.labels))
          evs)
      headline_keys
  in
  let span_json ev =
    Json.Obj
      ([
         ("name", Json.String ev.name);
         ("id", Json.Int ev.span_id);
       ]
      @ (match ev.parent with
        | None -> []
        | Some p -> [ ("parent", Json.Int p) ])
      @ [
          ("start_ms", Json.Float (ev.start_ms -. t0));
          ("dur_ms", Json.Float ev.dur_ms);
        ]
      @
      match ev.labels with
      | [] -> []
      | kvs ->
        [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs)) ])
  in
  Json.Obj
    ([ ("trace_id", Json.Int tid) ]
    @ (match root_ev with
      | None -> []
      | Some ev ->
        [ ("root", Json.String ev.name); ("wall_ms", Json.Float ev.dur_ms) ])
    @ hoisted
    @ [ ("spans", Json.List (List.map span_json evs)) ])
