(* lib/service socket front end: the supervisor's lifecycle and
   robustness contract.  Stale sockets are recovered on startup and the
   socket file is unlinked on drain; concurrent clients get interleaved
   but per-connection-ordered responses; a client hanging up mid-response
   (SIGPIPE) or an injected handler crash costs one row, never the
   process; idle connections past the request deadline are reclaimed;
   overload sheds with retry_after_ms hints the client honors. *)

module Obs = Certdb_obs.Obs
module Fault = Certdb_obs.Fault
module Json = Obs.Json
module Server = Certdb_service.Server
module Wire = Certdb_service.Wire
module Supervisor = Certdb_service.Supervisor
module Client = Certdb_service.Client

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- harness --------------------------------------------------------- *)

let next_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "certdb-tsup-%d-%d.sock" (Unix.getpid ()) !n)

let wait_ready path =
  let probe =
    Client.connect
      ~config:(Client.Config.make ~request_timeout_ms:200.0 ~max_retries:0 ())
      ~path ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Client.ping probe with
    | Ok _ -> Client.close probe
    | Error m ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "server never became ready: %s" m
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let shutdown path =
  let c =
    Client.connect
      ~config:(Client.Config.make ~request_timeout_ms:500.0 ~max_retries:3 ())
      ~path ()
  in
  ignore (Client.request c [ ("op", Json.String "shutdown") ]);
  Client.close c

(* run [f path] against a freshly spawned supervised server; the
   supervisor domain joining without raising is itself part of every
   test ("the server never dies") *)
let with_server ?(config = Supervisor.Config.make ()) f =
  let path = next_sock () in
  let server = Server.create () in
  (match Server.load server ~name:"d" ~source:"R(1,2); R(2,1)" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "load: %s" m);
  let sup = Domain.spawn (fun () -> Supervisor.run ~config server ~path) in
  wait_ready path;
  let r =
    try f path
    with e ->
      shutdown path;
      (try Domain.join sup with _ -> ());
      raise e
  in
  shutdown path;
  Domain.join sup;
  check "socket unlinked after drain" false (Sys.file_exists path);
  r

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send fd line =
  match Wire.write_line fd line with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m

let read_row reader =
  match
    Wire.Fd_reader.read_line ~timeout_ms:5000.0
      ~max:Wire.default_max_line_bytes reader
  with
  | `Line l -> Json.of_string l
  | other ->
    Alcotest.failf "expected a response line, got %s"
      (match other with
      | `Timeout -> "timeout"
      | `Eof -> "eof"
      | `Stopped -> "stopped"
      | `Oversized n -> Printf.sprintf "oversized %d" n
      | `Line _ -> assert false)

let str_field k j = Option.get (Wire.str_field k j)

(* ---- lifecycle ------------------------------------------------------- *)

(* a stale socket file from a crashed predecessor must not prevent
   startup; with_server then asserts unlink-on-drain *)
let test_stale_socket_recovery () =
  let path = next_sock () in
  (* leave a bound-but-dead socket file behind, as a crash would *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  check "stale file present" true (Sys.file_exists path);
  let server = Server.create () in
  let sup =
    Domain.spawn (fun () ->
        Supervisor.run ~config:(Supervisor.Config.make ()) server ~path)
  in
  wait_ready path;
  shutdown path;
  Domain.join sup;
  check "unlinked" false (Sys.file_exists path)

(* ≥2 concurrent clients: responses interleave across connections but
   stay ordered within each (index 0,1,2 and the pinned ids, in order).
   Alcotest is not domain-safe, so each client domain only collects its
   rows (id and index, or what it read instead) and every check runs
   after both joins. *)
let test_concurrent_clients_ordered () =
  with_server ~config:(Supervisor.Config.make ~conns:2 ()) (fun path ->
      let ids k = List.init 3 (fun i -> Printf.sprintf "c%d_%d" k i) in
      let client k =
        let fd = raw_connect path in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (* pipelined: all three requests before any read *)
            List.iter
              (fun id ->
                ignore
                  (Wire.write_line fd
                     (Json.to_string
                        (Json.Obj
                           [
                             ("id", Json.String id); ("op", Json.String "ping");
                           ]))))
              (ids k);
            let reader = Wire.Fd_reader.create fd in
            List.map
              (fun _ ->
                match
                  Wire.Fd_reader.read_line ~timeout_ms:5000.0
                    ~max:Wire.default_max_line_bytes reader
                with
                | `Line l ->
                  let row = Json.of_string l in
                  (Wire.str_field "id" row, Wire.int_field "index" row)
                | _ -> (None, None))
              (ids k))
      in
      let d1 = Domain.spawn (fun () -> client 1) in
      let d2 = Domain.spawn (fun () -> client 2) in
      let rows1 = Domain.join d1 in
      let rows2 = Domain.join d2 in
      List.iter
        (fun (k, rows) ->
          List.iteri
            (fun i (id, (got_id, got_index)) ->
              Alcotest.(check (option string))
                "per-connection order" (Some id) got_id;
              Alcotest.(check (option int)) "per-connection index" (Some i)
                got_index)
            (List.combine (ids k) rows))
        [ (1, rows1); (2, rows2) ])

(* a client that hangs up right after sending (the response write hits
   EPIPE / a closed peer) costs that connection only *)
let test_sigpipe_mid_response () =
  with_server (fun path ->
      for _ = 1 to 3 do
        let fd = raw_connect path in
        send fd
          {|{"op":"query","db":"d","query":"ans() :- R(_x,_y), R(_y,_x)"}|};
        Unix.close fd
      done;
      (* the server is still there for a well-behaved client *)
      let c = Client.connect ~path () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.ping c with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "server died after hangups: %s" m))

(* ---- robustness ------------------------------------------------------ *)

(* an injected handler crash becomes one structured error row echoing
   the request id, counted, and the next request is served normally *)
let test_handler_crash_isolated () =
  with_server (fun path ->
      let crashed0 = Obs.counter_value (Obs.counter "service.server.crashed") in
      let fd = raw_connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Fault.with_armed
            [ ("service.handler", Fault.Nth 1) ]
            (fun () ->
              send fd {|{"id":"boom","op":"ping"}|};
              let reader = Wire.Fd_reader.create fd in
              let row = read_row reader in
              check_str "crash row echoes id" "boom" (str_field "id" row);
              check_str "crash row status" "error" (str_field "status" row);
              check "crash row message" true
                (String.length (str_field "error" row) > 0
                && Wire.str_field "error" row
                   = Some "handler crashed: injected fault at service.handler");
              (* same connection, next request: served *)
              send fd {|{"id":"after","op":"ping"}|};
              let row = read_row reader in
              check_str "served after crash" "ok" (str_field "status" row);
              check_str "id after crash" "after" (str_field "id" row)));
      check "crashed counter bumped" true
        (Obs.counter_value (Obs.counter "service.server.crashed") > crashed0))

(* an idle connection past --request-timeout-ms is answered with an
   error row and closed, reclaiming the worker *)
let test_request_deadline_reclaims () =
  with_server
    ~config:(Supervisor.Config.make ~conns:1 ~request_timeout_ms:60.0 ())
    (fun path ->
      let fd = raw_connect path in
      let reader = Wire.Fd_reader.create fd in
      let row = read_row reader in
      check_str "timeout row" "error" (str_field "status" row);
      check_str "timeout message" "request timed out" (str_field "error" row);
      (match
         Wire.Fd_reader.read_line ~timeout_ms:2000.0 ~max:4096 reader
       with
      | `Eof -> ()
      | _ -> Alcotest.fail "connection not closed after deadline");
      Unix.close fd;
      (* the single worker is free again *)
      let c = Client.connect ~path () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.ping c with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "worker not reclaimed: %s" m))

(* oversized request lines are drained and answered, and the stream
   stays in sync for the next request *)
let test_oversized_line () =
  with_server
    ~config:(Supervisor.Config.make ~max_line_bytes:256 ())
    (fun path ->
      let fd = raw_connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send fd
            (Printf.sprintf {|{"id":"big","op":"query","query":"%s"}|}
               (String.make 400 'x'));
          send fd {|{"id":"next","op":"ping"}|};
          let reader = Wire.Fd_reader.create fd in
          let row = read_row reader in
          check_str "oversized status" "error" (str_field "status" row);
          check_str "oversized message" "request line exceeds 256 bytes"
            (str_field "error" row);
          let row = read_row reader in
          check_str "stream in sync" "next" (str_field "id" row);
          check_str "served" "ok" (str_field "status" row)))

(* wire write faults: the client retries through dropped and truncated
   responses, reusing the request id *)
let test_client_retries_write_faults () =
  with_server (fun path ->
      let retries0 = Obs.counter_value (Obs.counter "service.client.retries") in
      Fault.with_armed
        [ ("service.write", Fault.Nth 1) ]
        (fun () ->
          let c =
            Client.connect
              ~config:
                (Client.Config.make ~request_timeout_ms:100.0 ~max_retries:5
                   ~backoff_ms:2.0 ())
              ~path ()
          in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (* first response write is dropped (hit 1 -> drop); the
                 retry reuses the id and succeeds *)
              match Client.request c ~id:"w1" [ ("op", Json.String "ping") ] with
              | Ok row ->
                check_str "retried to success" "ok" (str_field "status" row);
                check_str "same id" "w1" (str_field "id" row)
              | Error m -> Alcotest.failf "client gave up: %s" m));
      check "client retried" true
        (Obs.counter_value (Obs.counter "service.client.retries") > retries0))

(* admission control: with conns=1/queue=1 and the only worker parked on
   an idle connection, new connections are shed with a retry_after_ms
   hint; the retrying client still gets through once the deadline
   reclaims the worker *)
let test_overload_sheds_with_hint () =
  with_server
    ~config:
      (Supervisor.Config.make ~conns:1 ~queue_capacity:1
         ~request_timeout_ms:300.0 ~retry_after_ms:5.0 ())
    (fun path ->
      let shed0 = Obs.counter_value (Obs.counter "service.server.shed") in
      (* park the worker: an open connection that sends nothing *)
      let parked = raw_connect path in
      Unix.sleepf 0.03;
      (* fill the queue with a second idle connection *)
      let queued = raw_connect path in
      Unix.sleepf 0.03;
      (* now a direct probe must be shed with a hint *)
      let probe = raw_connect path in
      let reader = Wire.Fd_reader.create probe in
      let row = read_row reader in
      check_str "shed status" "overloaded" (str_field "status" row);
      check "shed carries retry_after_ms" true
        (Wire.float_field "retry_after_ms" row <> None);
      Unix.close probe;
      (* the retrying client waits the hint out and succeeds once the
         parked connection times out *)
      let c =
        Client.connect
          ~config:
            (Client.Config.make ~request_timeout_ms:500.0 ~max_retries:10
               ~backoff_ms:5.0 ())
          ~path ()
      in
      Fun.protect
        ~finally:(fun () ->
          Client.close c;
          (try Unix.close parked with Unix.Unix_error _ -> ());
          try Unix.close queued with Unix.Unix_error _ -> ())
        (fun () ->
          (match Client.ping c with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "client never admitted: %s" m);
          check "sheds counted" true
            (Obs.counter_value (Obs.counter "service.server.shed") > shed0)))

(* SIGTERM drains like the shutdown verb: in a child process, so the
   signal exercises the real handler path end to end *)
let test_sigterm_drains () =
  let path = next_sock () in
  let server = Server.create () in
  let sup =
    Domain.spawn (fun () ->
        Supervisor.run ~config:(Supervisor.Config.make ()) server ~path)
  in
  wait_ready path;
  (* in-process SIGTERM: the handler sets the stop flag; the acceptor
     notices within its select slice and run () drains *)
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Domain.join sup;
  check "socket unlinked after SIGTERM drain" false (Sys.file_exists path)

let () =
  Alcotest.run "supervisor"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "stale socket recovery + unlink" `Quick
            test_stale_socket_recovery;
          Alcotest.test_case "concurrent clients, ordered per conn" `Quick
            test_concurrent_clients_ordered;
          Alcotest.test_case "hangup mid-response survives" `Quick
            test_sigpipe_mid_response;
          Alcotest.test_case "SIGTERM drains" `Quick test_sigterm_drains;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "handler crash isolated" `Quick
            test_handler_crash_isolated;
          Alcotest.test_case "request deadline reclaims worker" `Quick
            test_request_deadline_reclaims;
          Alcotest.test_case "oversized line answered" `Quick
            test_oversized_line;
          Alcotest.test_case "client retries write faults" `Quick
            test_client_retries_write_faults;
          Alcotest.test_case "overload sheds with hint" `Quick
            test_overload_sheds_with_hint;
        ] );
    ]
