(* The timed run: set the real server up several times over its Unix
   socket, then drive the last one closed-loop from this single process,
   checking every response against the oracle and the cache model. *)

module Json = Certdb_obs.Obs.Json
open Workload

let socket_path = "pb.sock"

(* ---- raw sample buffers ------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* linear interpolation between closest ranks (the R-7 / numpy default) *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.of_int (truncate h)) in
    let hi = min (n - 1) (lo + 1) in
    let f = h -. float_of_int lo in
    (float_of_int sorted.(lo) *. (1.0 -. f)) +. (float_of_int sorted.(hi) *. f)

let ms_of_ns x = x /. 1e6

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- the server process ------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  acc : Buffer.t;
}

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let send c s = write_all c.fd s 0 (String.length s)

let recv c =
  Buffer.clear c.acc;
  let rec go () =
    match Bytes.index_from_opt c.buf c.lo '\n' with
    | Some i when i < c.hi ->
      Buffer.add_subbytes c.acc c.buf c.lo (i - c.lo);
      c.lo <- i + 1;
      Buffer.contents c.acc
    | _ ->
      Buffer.add_subbytes c.acc c.buf c.lo (c.hi - c.lo);
      c.lo <- 0;
      c.hi <- 0;
      let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
      if n = 0 then failwith "server closed the connection";
      c.hi <- n;
      go ()
  in
  go ()

type server = { pid : int; conn : conn }

let server_args ~cache_capacity =
  [ "serve"; "--socket"; socket_path; "--conns"; "1"; "--jobs"; "1";
    "--cache-capacity"; string_of_int cache_capacity ]

let clean_env () =
  Array.of_list
    (List.filter
       (fun s -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" s))
       (Array.to_list (Unix.environment ())))

let live_servers : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_servers;
  live_servers := []

(* a terminated benchmark takes its servers with it *)
let () =
  at_exit kill_live;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143))

(* spawn, then poll readiness by connecting and pinging: never a sleep
   of guessed length *)
let spawn ~certdb ~cache_capacity =
  let log = Unix.openfile "server.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env certdb
      (Array.of_list (certdb :: server_args ~cache_capacity))
      (clean_env ()) null log log
  in
  Unix.close log;
  Unix.close null;
  live_servers := pid :: !live_servers;
  let deadline = Clock.now_ns () + 30_000_000_000 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "server exited during start-up (see server.log)");
      if Clock.now_ns () > deadline then failwith "server never became ready";
      Unix.sleepf 0.0002;
      connect ()
  in
  let fd = connect () in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
  let conn = { fd; buf = Bytes.create 65536; lo = 0; hi = 0; acc = Buffer.create 256 } in
  send conn "{\"op\":\"ping\"}\n";
  let pong = Json.of_string (recv conn) in
  if Json.member "pong" pong <> Some (Json.Bool true) then
    failwith ("ping: unexpected " ^ Json.to_string pong);
  { pid; conn }

let rec waitpid_timeout pid budget_s =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when budget_s > 0.0 ->
    Unix.sleepf 0.01;
    waitpid_timeout pid (budget_s -. 0.01)
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()

let shutdown s =
  (try
     send s.conn "{\"op\":\"shutdown\"}\n";
     ignore (recv s.conn)
   with _ -> ());
  Unix.close s.conn.fd;
  waitpid_timeout s.pid 10.0;
  live_servers := List.filter (( <> ) s.pid) !live_servers

(* ---- /proc readings ----------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* on-CPU nanoseconds of every thread of [pid] (schedstat), precise
   where /proc/pid/stat's utime+stime is 10 ms-granular; the latter is
   the fallback on kernels without schedstat *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  try
    Array.fold_left
      (fun acc tid ->
        let s = read_file (Printf.sprintf "%s/%s/schedstat" dir tid) in
        acc + int_of_string (List.hd (String.split_on_char ' ' s)))
      0 (Sys.readdir dir)
  with Sys_error _ | Failure _ ->
    let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
    (* fields after the parenthesised command name; utime and stime are
       the 12th and 13th of them, in clock ticks of 10 ms *)
    let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    (int_of_string f.(11) + int_of_string f.(12)) * 10_000_000

let status_field pid key =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:(key ^ ":") l then
           Some (String.trim (String.sub l (String.length key + 1) (String.length l - String.length key - 1)))
         else None)
  |> Option.value ~default:"?"

let vm_hwm_mb pid =
  let v = status_field pid "VmHWM" in
  match String.split_on_char ' ' v with
  | kb :: _ -> float_of_string kb /. 1024.0
  | [] -> nan

(* steal ticks of the whole machine and of each CPU, from /proc/stat *)
let steal_ticks () =
  read_file "/proc/stat" |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match List.filter (( <> ) "") (String.split_on_char ' ' l) with
         | name :: fields when String.starts_with ~prefix:"cpu" name && List.length fields >= 8 ->
           Some (name, int_of_string (List.nth fields 7))
         | _ -> None)

(* ---- checking responses ------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;
  mutable on_time : int;
  mutable boolean_ok : int;
  mutable exact : int;
  mutable wrong : string list;  (* first few mismatches *)
}

let new_tally () =
  { attempted = 0; ok = 0; failed = 0; on_time = 0; boolean_ok = 0; exact = 0; wrong = [] }

let mismatch t msg = if List.length t.wrong < 5 then t.wrong <- msg :: t.wrong

let str k j = match Json.member k j with Some (Json.String s) -> Some s | _ -> None
let bool k j = match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
let int k j = match Json.member k j with Some (Json.Int n) -> Some n | _ -> None

(* [check] validates one response and returns whether it was ok *)
let check tally ~oracle ~(expect : Model.expect) (w : Workload.t) req resp =
  let j = try Json.of_string resp with _ -> Json.Null in
  let ok = str "status" j = Some "ok" in
  if ok then begin
    tally.ok <- tally.ok + 1;
    match (req, expect) with
    | Query { shape; _ }, Model.Cached cached -> (
      let s = w.shapes.(shape) in
      if bool "cached" j <> Some cached then
        mismatch tally (Printf.sprintf "%s: cached=%b expected" s.name cached);
      match (oracle shape : Oracle.answer) with
      | Oracle.Bool want -> (
        tally.boolean_ok <- tally.boolean_ok + 1;
        match (str "grade" j, bool "certain" j) with
        | Some "exact", Some b ->
          tally.exact <- tally.exact + 1;
          if b <> want then
            mismatch tally (Printf.sprintf "%s: exact %b, oracle %b" s.name b want)
        | Some "lower-bound", Some b ->
          if b && not want then
            mismatch tally (Printf.sprintf "%s: lower-bound true, oracle false" s.name)
        | _ -> mismatch tally ("malformed Boolean answer: " ^ resp))
      | Oracle.Tuples want ->
        if str "answers" j <> Some want then
          mismatch tally (Printf.sprintf "%s: answers differ from the oracle" s.name))
    | Invalidate _, Model.Invalidated n ->
      if int "invalidated" j <> Some n then
        mismatch tally (Printf.sprintf "invalidate: expected %d in %s" n resp)
    | Load _, Model.Loaded -> ()
    | _ -> mismatch tally "model/request mismatch"
  end
  else tally.failed <- tally.failed + 1;
  ok

(* ---- one set-up ---------------------------------------------------------- *)

type ctx = {
  w : Workload.t;
  certdb : string;
  line : Workload.request -> string;  (* memoized request line + "\n" *)
  oracle : version:int -> int -> Oracle.answer;
}

let oracle_for ctx model shape =
  let s = ctx.w.shapes.(shape) in
  ctx.oracle ~version:(Hashtbl.find model.Model.current s.db) shape

let exchange ctx model tally s req =
  let expect = Model.step model ctx.w req in
  send s.conn (ctx.line req);
  let resp = recv s.conn in
  ignore (check tally ~oracle:(oracle_for ctx model) ~expect ctx.w req resp)

let set_up ctx =
  let t0 = Clock.now_ns () in
  let s = spawn ~certdb:ctx.certdb ~cache_capacity:ctx.w.cache_capacity in
  let model = Model.create ~cap:ctx.w.cache_capacity ctx.w.dbs in
  let tally = new_tally () in
  List.iter
    (fun (db, version) -> exchange ctx model tally s (Load { db; version }))
    ctx.w.dbs;
  Array.iter (exchange ctx model tally s) ctx.w.warmup;
  let dt = Clock.now_ns () - t0 in
  (s, model, tally, float_of_int dt /. 1e9)

(* ---- the timed phase ------------------------------------------------------ *)

type result = {
  tally : tally;
  setup_tally : tally;
  samples : int array;  (** sorted latencies, ns *)
  elapsed_s : float;
  cpu_ms : float;
  rss_mb : float;
  setups_s : float list;
  steal_ms : (string * float) list;
  stats_errors : string list;  (** stats/route checks that failed, if any *)
  placement : string * string;  (** client and server Cpus_allowed_list *)
}

let stats_check s model (w : Workload.t) =
  send s.conn "{\"op\":\"stats\",\"full\":true}\n";
  let j = Json.of_string (recv s.conn) in
  let errs = ref [] in
  let cache = Option.value (Json.member "cache" j) ~default:Json.Null in
  List.iter
    (fun (k, want) ->
      if int k cache <> Some want then
        errs := Printf.sprintf "stats %s: expected %d, got %s" k want
                  (match int k cache with Some n -> string_of_int n | None -> "none") :: !errs)
    [ ("hits", model.Model.hits); ("misses", model.Model.misses);
      ("evictions", model.Model.evictions); ("bypasses", model.Model.bypasses) ];
  (* route coverage: every route the workload's shapes need fired *)
  let counters =
    match Json.member "metrics" j with
    | Some m -> (match Json.member "counters" m with Some c -> c | None -> Json.Null)
    | None -> Json.Null
  in
  let counter name = Option.value (int name counters) ~default:0 in
  Array.iter
    (fun (sh : shape) ->
      let c = "query.plan." ^ sh.route in
      if counter c < 1 then errs := (c ^ " never fired") :: !errs)
    w.shapes;
  List.sort_uniq compare !errs

let run ctx ~seconds ~setups =
  let rec set_ups k acc =
    let s, model, tally, dt = set_up ctx in
    if k <= 1 then (s, model, tally, List.rev (dt :: acc))
    else begin
      shutdown s;
      set_ups (k - 1) (dt :: acc)
    end
  in
  let s, model, setup_tally, setups_s = set_ups setups [] in
  let tally = new_tally () in
  let samples = Samples.create () in
  let steal0 = steal_ticks () in
  let cpu0 = cpu_ns s.pid in
  let t0 = Clock.now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while Clock.now_ns () < t_end do
    let req = ctx.w.timed !i in
    let expect = Model.step model ctx.w req in
    let line = ctx.line req in
    let a = Clock.now_ns () in
    send s.conn line;
    let resp = recv s.conn in
    let dt = Clock.now_ns () - a in
    Samples.add samples dt;
    tally.attempted <- tally.attempted + 1;
    if check tally ~oracle:(oracle_for ctx model) ~expect ctx.w req resp
       && float_of_int dt /. 1e6 <= ctx.w.limit_ms req
    then tally.on_time <- tally.on_time + 1;
    incr i
  done;
  let elapsed = Clock.now_ns () - t0 in
  let cpu1 = cpu_ns s.pid in
  let steal1 = steal_ticks () in
  let rss = vm_hwm_mb s.pid in
  let placement =
    (status_field (Unix.getpid ()) "Cpus_allowed_list", status_field s.pid "Cpus_allowed_list")
  in
  let stats_errors = stats_check s model ctx.w in
  shutdown s;
  {
    tally;
    setup_tally;
    samples = Samples.sorted samples;
    elapsed_s = float_of_int elapsed /. 1e9;
    cpu_ms = float_of_int (cpu1 - cpu0) /. 1e6;
    rss_mb = rss;
    setups_s;
    steal_ms =
      List.map
        (fun (name, t1) ->
          (name, 10.0 *. float_of_int (t1 - Option.value (List.assoc_opt name steal0) ~default:t1)))
        steal1;
    stats_errors;
    placement;
  }
