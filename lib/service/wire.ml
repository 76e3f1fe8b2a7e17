open Certdb_relational
module Json = Certdb_obs.Obs.Json
module Engine = Certdb_csp.Engine
module Resilient = Certdb_csp.Resilient
module Sat_backend = Certdb_sat.Backend

(* CQ concrete syntax: "ans(vars) :- atoms".  The body reuses the
   instance parser (atoms separated by ");" boundaries rewritten to
   ";"), so variables are the parser's named nulls. *)
exception Cq_syntax of string

let parse_cq_result s =
  match
    let fail msg = raise (Cq_syntax msg) in
    match String.index_opt s ':' with
    | None -> fail "expected 'ans(vars) :- atoms'"
    | Some i ->
      let head_part = String.trim (String.sub s 0 i) in
      let body_part =
        String.trim (String.sub s (i + 2) (String.length s - i - 2))
      in
      let head_vars =
        match String.index_opt head_part '(' with
        | Some j
          when String.length head_part > 0
               && head_part.[String.length head_part - 1] = ')' ->
          let inner =
            String.sub head_part (j + 1) (String.length head_part - j - 2)
          in
          if String.trim inner = "" then []
          else String.split_on_char ',' inner |> List.map String.trim
        | _ -> fail "malformed head"
      in
      (* body: atoms are comma-separated; rewrite ")," boundaries to ";"
         so the instance parser accepts them *)
      let buf = Buffer.create (String.length body_part) in
      String.iteri
        (fun idx c ->
          if c = ',' && idx > 0 && body_part.[idx - 1] = ')' then
            Buffer.add_char buf ';'
          else Buffer.add_char buf c)
        body_part;
      let body_inst, bindings =
        try Parse.instance (Buffer.contents buf)
        with Parse.Parse_error m -> fail m
      in
      (* named nulls become CQ variables *)
      let name_of_null v =
        List.find_map
          (fun (name, v') -> if Certdb_values.Value.equal v v' then Some name else None)
          bindings
      in
      let atoms =
        List.map
          (fun (f : Instance.fact) ->
            ( f.rel,
              List.map
                (fun v ->
                  match name_of_null v with
                  | Some name -> Certdb_query.Fo.Var name
                  | None -> Certdb_query.Fo.Val v)
                (Array.to_list f.args) ))
          (Instance.facts body_inst)
      in
      (* variables are written _x in atoms; heads may drop the
         underscore *)
      let normalize v =
        if String.length v > 0 && v.[0] = '_' then
          String.sub v 1 (String.length v - 1)
        else v
      in
      let head = List.map normalize head_vars in
      (try Certdb_query.Cq.make ~head atoms with Invalid_argument m -> fail m)
  with
  | q -> Ok q
  | exception Cq_syntax m -> Error m

let parse_instance_result s =
  match Parse.instance s with
  | d, _ -> Ok d
  | exception Parse.Parse_error m -> Error m

(* field accessors *)

let str_field k j =
  match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let int_field k j =
  match Json.member k j with Some (Json.Int n) -> Some n | _ -> None

let int_list_field k j =
  match Json.member k j with
  | Some (Json.List l) ->
    List.fold_left
      (fun acc e ->
        match (acc, e) with
        | Some ns, Json.Int n -> Some (n :: ns)
        | _ -> None)
      (Some []) l
    |> Option.map List.rev
  | _ -> None

let float_field k j =
  match Json.member k j with
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None

let bool_field k j =
  match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

let limits_of_json ?cancel ?(default = Engine.Limits.unlimited) j =
  let ( |? ) v d = match v with Some _ -> v | None -> d in
  {
    Engine.Limits.nodes = int_field "node_budget" j |? default.nodes;
    backtracks = int_field "backtrack_budget" j |? default.backtracks;
    timeout_ms = float_field "timeout_ms" j |? default.timeout_ms;
    cancel = cancel |? default.cancel;
  }

let backend_of_json ?(default = Sat_backend.Csp) j =
  match str_field "backend" j with
  | None -> Ok default
  | Some s -> (
    match Sat_backend.choice_of_string s with
    | Some b -> Ok b
    | None ->
      Error
        (Printf.sprintf "backend: %S is not one of %s" s
           (String.concat "/" Sat_backend.choice_names)))

let boolean_only =
  "applies to Boolean queries (empty head): the graded answer is a single \
   certified truth value"

(* response rows *)

let row ~idx ~id ~op fields =
  Json.Obj
    (("id", Json.String id)
    :: ("index", Json.Int idx)
    :: ("op", Json.String op)
    :: fields)

let error_fields msg =
  [ ("status", Json.String "error"); ("error", Json.String msg) ]

let overloaded_fields ~retry_after_ms =
  [
    ("status", Json.String "overloaded");
    ("retry_after_ms", Json.Float retry_after_ms);
  ]

(* bounded line IO *)

let default_max_line_bytes = 1 lsl 20

module Fd_reader = struct
  type t = {
    fd : Unix.file_descr;
    chunk : Bytes.t;
    mutable pending : string;
    mutable pos : int;  (* [pending]'s bytes before [pos] are consumed *)
    mutable discarding : int;
        (* > 0: bytes already dropped of an over-long line still being
           drained to its terminating newline *)
    final_line : bool;
  }

  let create ?(final_line = false) fd =
    {
      fd;
      chunk = Bytes.create 8192;
      pending = "";
      pos = 0;
      discarding = 0;
      final_line;
    }

  (* Select in <=100ms slices so a tripped [stop] flag (drain) is
     noticed promptly even under an indefinite timeout. *)
  let slice = 0.1

  let stopped = function Some s -> Atomic.get s | None -> false

  let rec wait_readable t ~deadline ~stop =
    if stopped stop then `Stopped
    else
      let now = Unix.gettimeofday () in
      match deadline with
      | Some d when now >= d -> `Timeout
      | _ -> (
        let dt =
          match deadline with
          | Some d -> Float.min slice (d -. now)
          | None -> slice
        in
        match Unix.select [ t.fd ] [] [] dt with
        | [], _, _ -> wait_readable t ~deadline ~stop
        | _ -> `Readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          wait_readable t ~deadline ~stop)

  (* Consume one buffered line (or the tail of an over-long line).
     [None] when no newline is buffered yet. *)
  let take_line t ~max =
    match String.index_from_opt t.pending t.pos '\n' with
    | Some i ->
      let start = t.pos and len = i - t.pos in
      t.pos <- i + 1;
      if t.discarding > 0 || len > max then begin
        let total = t.discarding + len in
        t.discarding <- 0;
        Some (`Oversized total)
      end
      else Some (`Line (String.sub t.pending start len))
    | None ->
      let left = String.length t.pending - t.pos in
      if t.discarding > 0 || left > max then begin
        t.discarding <- t.discarding + left;
        t.pending <- "";
        t.pos <- 0
      end;
      None

  (* A partial line at EOF is a last request under [final_line] and a
     torn one, dropped, otherwise. *)
  let at_eof t =
    let left = String.length t.pending - t.pos in
    if (not t.final_line) || (t.discarding = 0 && left = 0) then `Eof
    else begin
      let line = String.sub t.pending t.pos left and dropped = t.discarding in
      t.discarding <- 0;
      t.pending <- "";
      t.pos <- 0;
      if dropped > 0 then `Oversized (dropped + left) else `Line line
    end

  let read_line ?timeout_ms ?stop ~max t =
    let deadline =
      Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) timeout_ms
    in
    let rec go () =
      match take_line t ~max with
      | Some (`Line _ as r) -> r
      | Some (`Oversized _ as r) -> r
      | None -> (
        match wait_readable t ~deadline ~stop with
        | `Timeout -> `Timeout
        | `Stopped -> `Stopped
        | `Readable -> (
          match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
          | 0 -> at_eof t
          | n ->
            (* only a partial line is left to keep: no newline remains *)
            t.pending <-
              String.sub t.pending t.pos (String.length t.pending - t.pos)
              ^ Bytes.sub_string t.chunk 0 n;
            t.pos <- 0;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
            `Eof))
    in
    go ()
end

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let write_raw fd s =
  match write_all fd s 0 (String.length s) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let write_line fd line = write_raw fd (line ^ "\n")

let describe_exn = function
  | Certdb_obs.Fault.Injected point -> "injected fault at " ^ point
  | e -> Printexc.to_string e

(* batch tasks *)

type work =
  | Budgeted of
      Engine.Limits.t * (Engine.Limits.t -> (string * Json.t) list Engine.outcome)
  | Certain of {
      limits : Engine.Limits.t;
      backend : Sat_backend.choice;
      q : Certdb_query.Cq.t;
      d : Instance.t;
    }

type task = string * string * (work, string) result

let parse_task ?cancel ?backend idx line =
  match Json.of_string line with
  | exception Json.Parse_error m ->
    ("line-" ^ string_of_int idx, "?", Error ("json: " ^ m))
  | j ->
    let id = Option.value (str_field "id" j) ~default:(string_of_int idx) in
    let op = Option.value (str_field "op" j) ~default:"?" in
    let limits = limits_of_json ?cancel j in
    let field k =
      Option.to_result (str_field k j)
        ~none:(Printf.sprintf "missing field %S" k)
    in
    let instance k =
      Result.bind (field k) (fun s ->
          Result.map_error
            (Printf.sprintf "%s: parse error: %s" k)
            (parse_instance_result s))
    in
    let ( let* ) = Result.bind in
    let work =
      match op with
      | "leq" ->
        let* d1 = instance "d1" in
        let* d2 = instance "d2" in
        Ok
          (Budgeted
             ( limits,
               fun limits ->
                 match Hom.find_b ~limits d1 d2 with
                 | Engine.Sat h ->
                   Engine.Sat
                     [
                       ( "witness",
                         Json.String
                           (Format.asprintf "%a" Certdb_values.Valuation.pp h)
                       );
                     ]
                 | Engine.Unsat -> Engine.Unsat
                 | Engine.Unknown r -> Engine.Unknown r ))
      | "member" ->
        let* d = instance "d" in
        let* r = instance "r" in
        Ok
          (Budgeted
             ( limits,
               fun limits ->
                 match Semantics.mem_b ~limits r d with
                 | `True -> Engine.Sat []
                 | `False -> Engine.Unsat
                 | `Unknown reason -> Engine.Unknown reason ))
      | "certain" ->
        let* d = instance "d" in
        let* backend = backend_of_json ?default:backend j in
        let* qs = field "query" in
        let* q = Result.map_error (( ^ ) "query: ") (parse_cq_result qs) in
        if q.Certdb_query.Cq.head <> [] then Error ("certain " ^ boolean_only)
        else Ok (Certain { limits; backend; q; d })
      | other -> Error (Printf.sprintf "unknown op %S" other)
    in
    (id, op, work)

let status s = ("status", Json.String s)

let run_task ~policy (idx, (id, op, work)) =
  let fields =
    match work with
    | Error msg -> error_fields msg
    | Ok (Budgeted (limits, f)) -> (
      match (Resilient.run ~policy ~limits f).Resilient.outcome with
      | Engine.Sat extra -> status "sat" :: extra
      | Engine.Unsat -> [ status "unsat" ]
      | Engine.Unknown reason ->
        [
          status "unknown";
          ("reason", Json.String (Engine.reason_to_string reason));
        ]
      | exception e -> error_fields (describe_exn e))
    | Ok (Certain { limits; backend; q; d }) -> (
      (* the planner runs the one resilient attempt: no outer one *)
      match Certdb_analysis.Plan.certain ~policy ~limits ~backend q d with
      | `Exact true -> [ status "sat" ]
      | `Exact false -> [ status "unsat" ]
      | `Lower_bound false
        when Option.fold ~none:false ~some:Engine.Cancel.cancelled
               limits.Engine.Limits.cancel ->
        (* a cancelled row is not a graded answer: it answers as a
           cancelled [leq] or [member] row does *)
        [
          status "unknown";
          ("reason", Json.String (Engine.reason_to_string Engine.Cancelled));
        ]
      | `Lower_bound b ->
        [
          status (if b then "sat" else "unknown");
          ("grade", Json.String "lower-bound");
        ]
      | exception e -> error_fields (describe_exn e))
  in
  row ~idx ~id ~op fields
