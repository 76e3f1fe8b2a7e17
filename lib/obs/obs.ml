module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then
        (* shortest representation that survives a JSON round-trip and is
           a valid JSON number (no trailing '.', no 'inf'/'nan') *)
        Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
    | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    write buf j;
    Buffer.contents buf

  let pp ppf j = Format.pp_print_string ppf (to_string j)

  exception Parse_error of string

  (* Recursive-descent parser for the same document model; accepts any
     JSON text produced by [to_string] plus arbitrary whitespace.  Numbers
     parse as [Int] when they contain no '.', 'e' or 'E'. *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      if
        !pos + String.length word <= n
        && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "expected '%s'" word)
    in
    let utf8_of_code buf u =
      (* encode a BMP code point as UTF-8 *)
      if u < 0x80 then Buffer.add_char buf (Char.chr u)
      else if u < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                 advance ();
                 if !pos + 4 > n then fail "truncated \\u escape";
                 let hex = String.sub s !pos 4 in
                 let u =
                   try int_of_string ("0x" ^ hex)
                   with _ -> fail "bad \\u escape"
                 in
                 pos := !pos + 4;
                 utf8_of_code buf u
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
          | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let rec go () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          go ()
        | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let clock_ms = ref (fun () -> Unix.gettimeofday () *. 1000.)
let set_clock_ms f = clock_ms := f
let now_ms () = !clock_ms ()

(* The registry: one hashtable per metric kind, keyed by name.  Metric
   handles are the mutable cells themselves, so recording an event after
   the handle is obtained touches no hashtable.

   Domain safety (the Csp.Engine.Batch worker pool runs hom searches on
   several domains at once): counters are [Atomic.t], so concurrent
   increments from worker domains never lose events and per-domain counts
   add up; registry creation, timer samples and resets take a global
   mutex (they are rare compared to counter bumps).  Spans live in
   Trace, which records each one into the timer of its name. *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; mutable g_value : float }

(* Quantiles come from fixed log-scale buckets: bucket 0 holds samples up
   to [bucket_lo] ms, bucket [i >= 1] holds samples in
   [bucket_lo * ratio^(i-1), bucket_lo * ratio^i), and the last bucket is
   unbounded.  With ratio sqrt(2) and 64 buckets the range covers 1 µs to
   ~2.5 days with a worst-case relative error of sqrt(2) per estimate —
   bounded memory (one int array per timer), no reservoir, no sample
   retention, domain-safe under the registry mutex like every other
   timer field. *)
let n_buckets = 64
let bucket_lo = 0.001 (* ms *)
let bucket_log_ratio = 0.5 *. Float.log 2.

let bucket_of_ms ms =
  if ms <= bucket_lo then 0
  else
    let i = 1 + int_of_float (Float.log (ms /. bucket_lo) /. bucket_log_ratio) in
    if i >= n_buckets then n_buckets - 1 else i

(* geometric midpoint of bucket [i]'s bounds — the value reported for a
   quantile landing in that bucket *)
let bucket_mid i =
  if i = 0 then bucket_lo
  else bucket_lo *. Float.exp ((float_of_int i -. 0.5) *. bucket_log_ratio)

type timer = {
  t_name : string;
  mutable t_count : int;
  mutable t_total : float;
  mutable t_min : float;
  mutable t_max : float;
  t_buckets : int array;
}

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let timers : (string, timer) Hashtbl.t = Hashtbl.create 32

let counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = Atomic.make 0 } in
    Hashtbl.add counters name c;
    c

let incr c = if !enabled_flag then ignore (Atomic.fetch_and_add c.c_value 1)
let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let gauge name =
  locked @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0. } in
    Hashtbl.add gauges name g;
    g

let set g v = if !enabled_flag then g.g_value <- v
let set_int g n = set g (float_of_int n)
let gauge_value g = g.g_value

let timer name =
  locked @@ fun () ->
  match Hashtbl.find_opt timers name with
  | Some t -> t
  | None ->
    let t =
      { t_name = name; t_count = 0; t_total = 0.; t_min = infinity;
        t_max = neg_infinity; t_buckets = Array.make n_buckets 0 }
    in
    Hashtbl.add timers name t;
    t

let record_ms t ms =
  if !enabled_flag then
    locked @@ fun () ->
    t.t_count <- t.t_count + 1;
    t.t_total <- t.t_total +. ms;
    if ms < t.t_min then t.t_min <- ms;
    if ms > t.t_max then t.t_max <- ms;
    let b = bucket_of_ms ms in
    t.t_buckets.(b) <- t.t_buckets.(b) + 1

type timer_stats = {
  count : int;
  total_ms : float;
  min_ms : float;
  max_ms : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

(* Snapshots *)

type metrics = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stats) list;
}

let sorted_of_tbl tbl value =
  Hashtbl.fold (fun name x acc -> (name, value x) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* quantile q (0 < q <= 1) from the log buckets: the geometric midpoint
   of the bucket holding the sample of rank ceil(q * count), clamped into
   the exact observed [min, max] range *)
let quantile_of_buckets t q =
  if t.t_count = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.t_count))) in
    let rec find i seen =
      if i >= n_buckets then t.t_max
      else
        let seen = seen + t.t_buckets.(i) in
        if seen >= rank then bucket_mid i else find (i + 1) seen
    in
    Float.min t.t_max (Float.max t.t_min (find 0 0))
  end

let stats_of_timer t =
  {
    count = t.t_count;
    total_ms = t.t_total;
    min_ms = (if t.t_count = 0 then 0. else t.t_min);
    max_ms = (if t.t_count = 0 then 0. else t.t_max);
    mean_ms = (if t.t_count = 0 then 0. else t.t_total /. float_of_int t.t_count);
    p50_ms = quantile_of_buckets t 0.5;
    p95_ms = quantile_of_buckets t 0.95;
    p99_ms = quantile_of_buckets t 0.99;
  }

let snapshot () =
  locked @@ fun () ->
  {
    counters = sorted_of_tbl counters (fun c -> Atomic.get c.c_value);
    gauges = sorted_of_tbl gauges (fun g -> g.g_value);
    timers = sorted_of_tbl timers stats_of_timer;
  }

let reset () =
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.) gauges;
  Hashtbl.iter
    (fun _ t ->
      t.t_count <- 0;
      t.t_total <- 0.;
      t.t_min <- infinity;
      t.t_max <- neg_infinity;
      Array.fill t.t_buckets 0 n_buckets 0)
    timers

let find_counter m name = List.assoc_opt name m.counters
let find_gauge m name = List.assoc_opt name m.gauges
let find_timer m name = List.assoc_opt name m.timers

let pp_metrics ppf m =
  let width =
    List.fold_left
      (fun w (name, _) -> max w (String.length name))
      0
      (m.counters @ List.map (fun (n, _) -> (n, 0)) m.gauges
      @ List.map (fun (n, _) -> (n, 0)) m.timers)
  in
  Format.fprintf ppf "== metrics ==@.";
  if m.counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-*s %d@." width name v)
      m.counters
  end;
  if m.gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-*s %g@." width name v)
      m.gauges
  end;
  if m.timers <> [] then begin
    Format.fprintf ppf "timers (ms):@.";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf
          "  %-*s count=%d total=%.3f mean=%.3f min=%.3f max=%.3f p50=%.3f \
           p95=%.3f p99=%.3f@."
          width name s.count s.total_ms s.mean_ms s.min_ms s.max_ms s.p50_ms
          s.p95_ms s.p99_ms)
      m.timers
  end

let to_json m =
  let timer_json s =
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("total_ms", Json.Float s.total_ms);
        ("mean_ms", Json.Float s.mean_ms);
        ("min_ms", Json.Float s.min_ms);
        ("max_ms", Json.Float s.max_ms);
        ("p50_ms", Json.Float s.p50_ms);
        ("p95_ms", Json.Float s.p95_ms);
        ("p99_ms", Json.Float s.p99_ms);
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) m.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) m.gauges));
      ("timers", Json.Obj (List.map (fun (n, s) -> (n, timer_json s)) m.timers));
    ]

let json_string m = Json.to_string (to_json m)
