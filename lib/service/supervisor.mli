(** The front end of {!Server}, on stdio and on a Unix socket: one
    connection handler, with crash isolation, request deadlines, line
    caps and wire fault points, serves both.  On a socket it runs on a
    bounded worker-domain pool with admission control and graceful
    drain.

    {1 Architecture}

    {!serve_stdio} runs the handler once, on the calling domain, reading
    stdin and writing stdout.  The one difference between the
    transports is the end of the stream: stdin's last line is a request
    even without its newline, while on a socket such a line is a torn
    request and is dropped.

    {!run} binds a Unix socket and splits work across [1 + conns]
    domains: the calling domain accepts (selecting in 0.1 s slices so a
    drain is noticed promptly, retrying [EINTR], backing off
    exponentially after transient accept errors), and [conns] worker
    domains each own one connection at a time, reading requests through
    {!Wire.Fd_reader} and answering through {!Server.handle_line}.

    {1 Admission control}

    Accepted connections wait in a bounded queue.  When the queue is at
    [queue_capacity], a new connection is {e shed}: it gets one
    [{"status":"overloaded","retry_after_ms":F}] row — the hint grows
    with queue pressure — and is closed.  Exposed as the
    [service.server.shed] counter and the [service.server.inflight] /
    [service.server.queue_depth] gauges.

    {1 Robustness}

    - An uncaught exception from the request handler (including an
      injected ["service.handler"] fault) becomes a structured [error]
      row ("handler crashed: …", echoing the request id when the line
      parses) plus a [service.server.crashed] count — never a dead
      worker or process.
    - A connection idle past [request_timeout_ms] is answered with a
      "request timed out" error row and closed, reclaiming the pool
      slot ([service.server.timeouts]); on stdio the server then ends.
    - Request lines longer than [max_line_bytes] are drained and
      answered with {!Server.oversized_row}.
    - [EPIPE]/[ECONNRESET] from a client that hung up close that
      connection only ([SIGPIPE] is ignored); on stdio a closed stdout
      ends the server quietly.

    {1 Drain}

    The [shutdown] verb (from any connection) and [SIGTERM] trip one
    stop flag: the acceptor stops accepting, in-flight requests finish,
    idle and queued connections are released (queued ones get a shed
    row), workers are joined and the socket file is unlinked.

    {1 Wire faults}

    When a ["service.read"] / ["service.write"] fault point is armed
    (see {!Certdb_obs.Fault}), selected hits perturb the wire instead of
    crashing: the perturbation cycles deterministically with the hit
    index — drop the frame, delay it 5 ms, or truncate it — so one
    [CERTDB_FAULT] spec exercises lost requests, lost responses, slow
    frames and torn frames.  {!Client} recovers from all of them. *)

module Config : sig
  type t = {
    conns : int;  (** worker domains, i.e. concurrent connections *)
    queue_capacity : int;  (** accepted-but-unserved bound; beyond it, shed *)
    request_timeout_ms : float option;
        (** per-request read deadline; [None] waits forever *)
    max_line_bytes : int;  (** request line cap *)
    backlog : int;  (** [Unix.listen] backlog *)
    retry_after_ms : float;  (** base backoff hint on shed rows *)
  }

  (** 4 conns, queue of 16, no deadline, 1 MiB lines, backlog 64,
      50 ms base hint. *)
  val default : t

  val make :
    ?conns:int ->
    ?queue_capacity:int ->
    ?request_timeout_ms:float ->
    ?max_line_bytes:int ->
    ?backlog:int ->
    ?retry_after_ms:float ->
    unit ->
    t
end

(** [serve_stdio ?config server] serves [server] on stdin and stdout
    until EOF, a [shutdown] request or a request timeout.  [conns],
    [queue_capacity], [backlog] and [retry_after_ms] have no effect
    here. *)
val serve_stdio : ?config:Config.t -> Server.t -> unit

(** [run ?config server ~path] serves [server] on the Unix socket
    [path] until a client issues [shutdown] or the process receives
    [SIGTERM], then drains and unlinks the socket.  A stale socket file
    at [path] is unlinked at startup. *)
val run : ?config:Config.t -> Server.t -> path:string -> unit
