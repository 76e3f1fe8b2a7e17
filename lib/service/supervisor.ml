module Obs = Certdb_obs.Obs
module Fault = Certdb_obs.Fault
module Json = Obs.Json

module Config = struct
  type t = {
    conns : int;
    queue_capacity : int;
    request_timeout_ms : float option;
    max_line_bytes : int;
    backlog : int;
    retry_after_ms : float;
  }

  let make ?(conns = 4) ?(queue_capacity = 16) ?request_timeout_ms
      ?(max_line_bytes = Wire.default_max_line_bytes) ?(backlog = 64)
      ?(retry_after_ms = 50.0) () =
    {
      conns = max 1 conns;
      queue_capacity = max 1 queue_capacity;
      request_timeout_ms;
      max_line_bytes = max 1 max_line_bytes;
      backlog = max 1 backlog;
      retry_after_ms = Float.max 1.0 retry_after_ms;
    }

  let default = make ()
end

let c_accepted = Obs.counter "service.server.accepted"
let c_shed = Obs.counter "service.server.shed"
let c_crashed = Obs.counter "service.server.crashed"
let c_timeouts = Obs.counter "service.server.timeouts"
let g_inflight = Obs.gauge "service.server.inflight"
let g_queue = Obs.gauge "service.server.queue_depth"

type t = {
  server : Server.t;
  config : Config.t;
  stop : bool Atomic.t;
  queue : Unix.file_descr Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  inflight : int Atomic.t;
}

(* Drain entry point for normal (non-signal) contexts: trip the flag and
   wake every idle worker.  The SIGTERM handler only sets the atomic —
   taking [mu] from a handler could deadlock against the interrupted
   acceptor — and relies on the acceptor noticing within its 0.1 s
   select slice, after which [run] broadcasts from here. *)
let request_stop t =
  Atomic.set t.stop true;
  Mutex.lock t.mu;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu

(* ---- wire fault injection -------------------------------------------- *)

(* The schedule (CERTDB_FAULT) selects {e which} hits are perturbed; the
   perturbation itself cycles deterministically with the hit index, so
   one spec exercises all three failure shapes. *)
let wire_action n =
  match n mod 3 with 1 -> `Drop | 2 -> `Delay_ms 5 | _ -> `Truncate

let faulty_read t reader =
  match
    Wire.Fd_reader.read_line ?timeout_ms:t.config.request_timeout_ms
      ~stop:t.stop ~max:t.config.max_line_bytes reader
  with
  | `Line line as ok -> (
    match Fault.check "service.read" with
    | None -> ok
    | Some n -> (
      match wire_action n with
      | `Drop -> `Dropped (* the request vanishes; the client must retry *)
      | `Delay_ms ms ->
        Unix.sleepf (float_of_int ms /. 1000.);
        ok
      | `Truncate -> `Line (String.sub line 0 (String.length line / 2))))
  | (`Eof | `Oversized _ | `Timeout | `Stopped) as other -> other

let faulty_write fd line =
  match Fault.check "service.write" with
  | None -> Wire.write_line fd line
  | Some n -> (
    match wire_action n with
    | `Drop -> Ok () (* the response vanishes *)
    | `Delay_ms ms ->
      Unix.sleepf (float_of_int ms /. 1000.);
      Wire.write_line fd line
    | `Truncate ->
      (* half a line and no newline: the client sees a torn frame and
         must drop the connection *)
      Wire.write_raw fd (String.sub line 0 (String.length line / 2)))

(* ---- connection handling --------------------------------------------- *)

(* best-effort echo of the request id on a crash row, so a retrying
   client can still match the response *)
let request_id ~idx line =
  match Json.of_string line with
  | j -> Option.value (Wire.str_field "id" j) ~default:(string_of_int idx)
  | exception _ -> "line-" ^ string_of_int idx

let timeout_row ~idx =
  Wire.row ~idx
    ~id:("line-" ^ string_of_int idx)
    ~op:"?"
    (Wire.error_fields "request timed out")

(* One request/response exchange per iteration, reading [reader] and
   writing [out]: a socket connection, or stdin and stdout.  Crash
   isolation is here: an exception out of [Server.handle_line] — a bug,
   or an injected [service.handler] fault — becomes a structured error
   row and the connection (and process) live on. *)
let handle_conn t reader out =
  let rec loop idx =
    match faulty_read t reader with
    | `Stopped | `Eof -> `Closed
    | `Timeout ->
      (* reclaim the worker: one stalled client must not hold a pool
         slot forever.  Best-effort notice, then hang up. *)
      Obs.incr c_timeouts;
      ignore (Wire.write_line out (Json.to_string (timeout_row ~idx)));
      `Closed
    | `Oversized _ -> (
      match
        faulty_write out
          (Json.to_string
             (Server.oversized_row t.server ~idx
                ~max:t.config.max_line_bytes))
      with
      | Ok () -> loop (idx + 1)
      | Error _ -> `Closed)
    | `Dropped -> loop (idx + 1)
    | `Line line ->
      if String.trim line = "" then loop idx
      else begin
        let row, k =
          try
            Fault.hit "service.handler";
            Server.handle_line t.server ~idx line
          with e ->
            Obs.incr c_crashed;
            ( Wire.row ~idx ~id:(request_id ~idx line) ~op:"?"
                (Wire.error_fields
                   ("handler crashed: " ^ Wire.describe_exn e)),
              `Continue )
        in
        match faulty_write out (Json.to_string row) with
        | Error _ -> `Closed (* client hung up mid-response (EPIPE) *)
        | Ok () -> (
          match k with `Continue -> loop (idx + 1) | `Shutdown -> `Shutdown)
      end
  in
  loop 0

(* ---- the pool -------------------------------------------------------- *)

let rec worker t =
  Mutex.lock t.mu;
  let rec next () =
    (* stop first: connections still queued at drain are shed by [run],
       not served *)
    if Atomic.get t.stop then None
    else if not (Queue.is_empty t.queue) then begin
      let fd = Queue.pop t.queue in
      Obs.set_int g_queue (Queue.length t.queue);
      Some fd
    end
    else begin
      Condition.wait t.nonempty t.mu;
      next ()
    end
  in
  let conn = next () in
  Mutex.unlock t.mu;
  match conn with
  | None -> ()
  | Some fd ->
    Obs.set_int g_inflight (1 + Atomic.fetch_and_add t.inflight 1);
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Obs.set_int g_inflight (Atomic.fetch_and_add t.inflight (-1) - 1))
        (fun () -> handle_conn t (Wire.Fd_reader.create fd) fd)
    in
    (match outcome with `Shutdown -> request_stop t | `Closed -> ());
    worker t

(* ---- admission ------------------------------------------------------- *)

let shed t fd ~depth =
  Obs.incr c_shed;
  (* the hint grows with pressure: a queue at capacity doubles it *)
  let retry_after_ms =
    t.config.Config.retry_after_ms
    *. (1.0 +. (float_of_int depth /. float_of_int t.config.Config.queue_capacity))
  in
  ignore
    (Wire.write_line fd
       (Json.to_string (Json.Obj (Wire.overloaded_fields ~retry_after_ms))));
  try Unix.close fd with Unix.Unix_error _ -> ()

let admit t fd =
  Mutex.lock t.mu;
  let depth = Queue.length t.queue in
  if depth >= t.config.Config.queue_capacity then begin
    Mutex.unlock t.mu;
    shed t fd ~depth
  end
  else begin
    Queue.push fd t.queue;
    Obs.set_int g_queue (depth + 1);
    Condition.signal t.nonempty;
    Mutex.unlock t.mu
  end

(* ---- accept loop ----------------------------------------------------- *)

(* select in 0.1 s slices so a drain (shutdown verb, SIGTERM) is noticed
   promptly; transient accept errors back off exponentially instead of
   tearing down the listener. *)
let acceptor t sock =
  let backoff = ref 0.01 in
  let rec loop () =
    if not (Atomic.get t.stop) then
      match Unix.select [ sock ] [] [] 0.1 with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.accept sock with
        | fd, _ ->
          backoff := 0.01;
          Obs.incr c_accepted;
          admit t fd;
          loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception
            Unix.Unix_error
              ( ( Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK
                | Unix.EMFILE | Unix.ENFILE | Unix.ENOMEM ),
                _,
                _ ) ->
          Unix.sleepf !backoff;
          backoff := Float.min 1.0 (!backoff *. 2.0);
          loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* ---- lifecycle ------------------------------------------------------- *)

let create config server =
  (* a client that disconnects mid-response must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  {
    server;
    config;
    stop = Atomic.make false;
    queue = Queue.create ();
    mu = Mutex.create ();
    nonempty = Condition.create ();
    inflight = Atomic.make 0;
  }

(* stdio is one connection, served on the calling domain: stdin's last
   line is a request even without its newline, which on a socket would
   be a torn frame *)
let serve_stdio ?(config = Config.default) server =
  let t = create config server in
  ignore
    (handle_conn t (Wire.Fd_reader.create ~final_line:true Unix.stdin)
       Unix.stdout)

let run ?(config = Config.default) server ~path =
  (* stale socket from a crashed predecessor *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let t = create config server in
  (* SIGTERM drains like the shutdown verb.  Handler body: one atomic
     store (see [request_stop]); accept also wakes on the EINTR. *)
  let prev_term =
    try
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Atomic.set t.stop true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (match prev_term with
      | Some b -> (
        try Sys.set_signal Sys.sigterm b with Invalid_argument _ -> ())
      | None -> ());
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock t.config.Config.backlog;
      let workers =
        List.init t.config.Config.conns (fun _ ->
            Domain.spawn (fun () -> worker t))
      in
      acceptor t sock;
      (* drain: stop accepting (done — the acceptor only returns once
         [stop] is set), wake idle workers, finish in-flight requests *)
      request_stop t;
      List.iter Domain.join workers;
      (* connections admitted but never started get a shed row, not a
         silent hangup *)
      Mutex.lock t.mu;
      let leftover = List.of_seq (Queue.to_seq t.queue) in
      Queue.clear t.queue;
      Obs.set_int g_queue 0;
      Mutex.unlock t.mu;
      List.iter (fun fd -> shed t fd ~depth:0) leftover)
