(* Tests for the daemon (lib/runtime/daemon.ml): a scripted client
   session over the real Unix socket — add/modify/delete classes,
   filters, stats, trace dump, deliberate rejections, spill enabled —
   must produce reply bodies and final engine fingerprints bit-identical
   to the same command stream replayed offline through
   Router.exec_script, for a one-link router over a bare engine, the
   sequential router, and the multicore router (Mc_router). Plus the
   wire protocol's own corners and the runtest-sized soak slice. *)

module C = Runtime.Command
module E = Runtime.Engine
module R = Runtime.Router
module M = Runtime.Mc_router
module D = Runtime.Daemon
module L = Runtime.Trace_log

let temp suffix =
  let p = Filename.temp_file "hfsc_daemon_test" suffix in
  Sys.remove p;
  p

(* Run one scripted session: serve [backend] on a fresh socket from this
   domain while a client domain sends every non-comment line of
   [script] (plus spill start/stop around it when [spill] is given) and
   shutdown at the end. Returns the per-line replies. *)
let run_session ?spill backend script =
  let socket = temp ".sock" in
  let d = D.create ~clock:(fun () -> 0.) ~socket backend in
  let lines =
    String.split_on_char '\n' script
    |> List.filter (fun l ->
           let l = String.trim l in
           l <> "" && l.[0] <> '#')
  in
  let client =
    Domain.spawn (fun () ->
        let rec connect tries =
          match D.Client.connect socket with
          | conn -> conn
          | exception Unix.Unix_error _ when tries > 0 ->
              Unix.sleepf 0.01;
              connect (tries - 1)
        in
        let conn = connect 100 in
        (match spill with
        | Some path -> (
            match D.Client.request conn ("spill start " ^ path) with
            | Ok _ -> ()
            | Error (_, m) -> failwith ("spill start refused: " ^ m))
        | None -> ());
        let replies = List.map (D.Client.request conn) lines in
        (match spill with
        | Some _ -> ignore (D.Client.request conn "spill stop")
        | None -> ());
        ignore (D.Client.request conn "shutdown");
        D.Client.close conn;
        replies)
  in
  D.serve d;
  Domain.join client

(* what the daemon should answer, from an offline exec_script outcome *)
let expected_of outcome =
  match outcome with
  | Ok body -> Ok body
  | Error e -> Error (E.error_code_name (E.error_code e), E.error_message e)

let check_replies ~what expected got =
  Alcotest.(check int)
    (what ^ ": one reply per command")
    (List.length expected) (List.length got);
  List.iteri
    (fun i (e, g) ->
      Alcotest.(check (result string (pair string string)))
        (Printf.sprintf "%s: reply %d" what i)
        e g)
    (List.combine expected got)

let parse_script script =
  match C.parse_script script with
  | Ok cmds -> cmds
  | Error { C.line; reason } ->
      Alcotest.failf "test script line %d: %s" line reason

(* --- single link: daemon vs Router.exec_script ----------------------- *)

let engine_script =
  {|
# the pre-router grammar, plus deliberate rejections
at 0.0  add class voice parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit fsc 64Kbit
at 0.0  add class data parent root flow 2 fsc 2Mbit qlimit 64
at 0.1  add class video parent root flow 3 rsc umax 1500 dmax 10ms rate 1Mbit fsc 1Mbit
at 0.2  modify class data fsc 3Mbit
at 0.2  attach filter flow 2 src 10.0.0.0/8 proto udp
at 0.3  stats
at 0.3  stats data
at 0.35 trace dump
at 0.4  add class hog parent root rsc 100Mbit
at 0.45 modify class nosuch fsc 1Mbit
at 0.5  detach filter flow 2
at 0.55 delete class video
at 0.6  stats
|}

let mk_engine () =
  E.create ~link_rate:(1.25e6) (Hfsc.create ~link_rate:1.25e6 ()) ~flow_map:[]
    ()

(* a single engine is served as a one-link router *)
let mk_router () = R.of_engines [ ("link0", mk_engine ()) ]

let test_engine_session () =
  let cmds = parse_script engine_script in
  let reference = mk_router () in
  let expected =
    List.map
      (fun (_, _, outcome) -> expected_of outcome)
      (R.exec_script ~lenient:true reference cmds)
  in
  let live = mk_router () in
  let spill = temp ".trace" in
  let got = run_session ~spill (D.backend_of_router live) engine_script in
  check_replies ~what:"engine" expected got;
  Alcotest.(check string)
    "final engine state bit-identical"
    (Hfsc_gen.device_fingerprint ~links:(R.links reference)
       ~link_of_flow:(R.link_of_flow reference))
    (Hfsc_gen.device_fingerprint ~links:(R.links live)
       ~link_of_flow:(R.link_of_flow live));
  (* spill was enabled for the whole session: the file must be a valid
     trace (command-only sessions move no packets, so it may be empty) *)
  (match L.read_file spill with
  | Ok (_, _) -> ()
  | Error e -> Alcotest.failf "spill file unreadable: %s" e);
  Sys.remove spill

(* --- multi link: daemon vs Router.exec_script, both flavours --------- *)

let router_script =
  {|
at 0.0  link add west rate 10Mbit
at 0.0  link add east rate 5Mbit
at 0.0  link west add class voice parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit fsc 64Kbit
at 0.05 link west add class data parent root flow 2 fsc 2Mbit
at 0.1  link east add class edata parent root flow 10 fsc 3Mbit
at 0.1  link list
at 0.2  add class orphan parent root fsc 1Mbit
at 0.2  link east attach filter flow 1 proto udp
at 0.25 attach filter flow 10 proto tcp
at 0.3  link west modify class data fsc 4Mbit
at 0.3  stats
at 0.4  link add north rate 2Mbit
at 0.4  link north add class n1 parent root flow 20 fsc 1Mbit
at 0.5  link north delete class n1
at 0.5  link delete north
at 0.6  link list
at 0.6  stats
|}

let reference_router () =
  let r = R.create () in
  let outcomes =
    R.exec_script ~lenient:true r (parse_script router_script)
  in
  (r, List.map (fun (_, _, outcome) -> expected_of outcome) outcomes)

let test_router_session () =
  let reference, expected = reference_router () in
  let live = R.create () in
  let got = run_session (D.backend_of_router live) router_script in
  check_replies ~what:"router" expected got;
  Alcotest.(check string)
    "final device state bit-identical"
    (Hfsc_gen.device_fingerprint ~links:(R.links reference)
       ~link_of_flow:(R.link_of_flow reference))
    (Hfsc_gen.device_fingerprint ~links:(R.links live)
       ~link_of_flow:(R.link_of_flow live))

let test_mc_router_session () =
  let reference, expected = reference_router () in
  let live = M.create ~domains:2 () in
  let got = run_session (D.backend_of_mc_router live) router_script in
  let mc_links = M.stop live in
  check_replies ~what:"mc-router" expected got;
  Alcotest.(check string)
    "final device state bit-identical across domains"
    (Hfsc_gen.device_fingerprint ~links:(R.links reference)
       ~link_of_flow:(R.link_of_flow reference))
    (Hfsc_gen.device_fingerprint ~links:mc_links
       ~link_of_flow:(M.link_of_flow live))

(* --- wire protocol corners ------------------------------------------- *)

let test_meta_verbs () =
  let live = mk_router () in
  let socket = temp ".sock" in
  let d =
    D.create ~clock:(fun () -> 0.) ~socket (D.backend_of_router live)
  in
  let client =
    Domain.spawn (fun () ->
        let rec connect tries =
          match D.Client.connect socket with
          | conn -> conn
          | exception Unix.Unix_error _ when tries > 0 ->
              Unix.sleepf 0.01;
              connect (tries - 1)
        in
        let conn = connect 100 in
        let r1 = D.Client.request conn "ping" in
        let r2 = D.Client.request conn "audit" in
        let r3 = D.Client.request conn "stats-json" in
        let r4 = D.Client.request conn "   " in
        let r5 = D.Client.request conn "# just a comment" in
        let r6 = D.Client.request conn "utter garbage here" in
        let r7 = D.Client.request conn "spill stop" in
        let r8 = D.Client.request conn "spill nonsense" in
        (* a reply with an embedded newline must frame correctly, and
           the next request must still parse — the length prefix is
           doing its job *)
        let r9 = D.Client.request conn "stats" in
        let r10 = D.Client.request conn "ping" in
        ignore (D.Client.request conn "shutdown");
        D.Client.close conn;
        (r1, r2, r3, r4, r5, r6, r7, r8, r9, r10))
  in
  D.serve d;
  let r1, r2, r3, r4, r5, r6, r7, r8, r9, r10 = Domain.join client in
  Alcotest.(check (result string (pair string string)))
    "ping" (Ok "pong") r1;
  Alcotest.(check (result string (pair string string)))
    "audit" (Ok "audit clean") r2;
  (match r3 with
  | Ok body ->
      Alcotest.(check bool) "stats-json is json" true
        (String.length body > 0 && body.[0] = '{')
  | Error (c, m) -> Alcotest.failf "stats-json refused: %s %s" c m);
  Alcotest.(check (result string (pair string string)))
    "blank line" (Ok "") r4;
  Alcotest.(check (result string (pair string string)))
    "comment line" (Ok "") r5;
  (match r6 with
  | Error ("parse-error", _) -> ()
  | Error (c, _) -> Alcotest.failf "garbage got code %s" c
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match r7 with
  | Error ("bad-value", _) -> ()
  | _ -> Alcotest.fail "spill stop with no spill must be bad-value");
  (match r8 with
  | Error ("parse-error", _) -> ()
  | _ -> Alcotest.fail "spill nonsense must be parse-error");
  (match r9 with
  | Ok body ->
      Alcotest.(check bool) "stats body is multi-line" true
        (String.contains body '\n')
  | Error (c, m) -> Alcotest.failf "stats refused: %s %s" c m);
  Alcotest.(check (result string (pair string string)))
    "framing survives multi-line bodies" (Ok "pong") r10;
  Alcotest.(check bool) "shutdown was requested" true (D.shutdown_requested d)

(* --- input hardening -------------------------------------------------- *)

(* A raw byte-level client — no [Client] framing — so requests can be
   dribbled one byte at a time and malformed at will. *)
let raw_connect socket =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 100

(* Both reply shapes ([ok LEN\nBODY\n], [err CODE LEN\nMSG\n]) are two
   newline-terminated lines for the bodies used here. *)
let recv_reply fd =
  let b = Bytes.create 4096 in
  let buf = Buffer.create 64 in
  let deadline = Unix.gettimeofday () +. 5. in
  let newlines s =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s
  in
  let rec go () =
    if newlines (Buffer.contents buf) >= 2 then Buffer.contents buf
    else begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then failwith "raw reply timed out";
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> failwith "raw reply timed out"
      | _ -> (
          match Unix.read fd b 0 4096 with
          | 0 -> Buffer.contents buf
          | n ->
              Buffer.add_subbytes buf b 0 n;
              go ())
    end
  in
  go ()

let test_hardening () =
  let live = mk_router () in
  let socket = temp ".sock" in
  let d =
    D.create ~clock:(fun () -> 0.) ~socket (D.backend_of_router live)
  in
  let client =
    Domain.spawn (fun () ->
        let conn = D.Client.connect ~retries:100 ~backoff:0.01 socket in
        (* an oversized but newline-framed line: rejected, connection
           survives *)
        let r1 = D.Client.request conn (String.make 5000 'x') in
        let r2 = D.Client.request conn "ping" in
        (* an embedded NUL: rejected, connection survives *)
        let r3 = D.Client.request conn "pi\000ng" in
        let r4 = D.Client.request ~timeout:5. conn "ping" in
        let r5 = D.Client.request conn "fingerprint" in
        (* a rate that overflows once scaled: a parse error, and the
           daemon keeps serving *)
        let r6 = D.Client.request conn "link add big rate 1e308GBps" in
        let r7 = D.Client.request conn "ping" in
        (* a link rate and a curve the fixed-point arithmetic cannot
           represent: bad-value each, and the daemon keeps serving *)
        let unrepresentable =
          List.map
            (fun line ->
              let r = D.Client.request conn line in
              (line, r, D.Client.request conn "ping"))
            [
              "link add e3 rate 1e-300bps";
              "link add e4 rate 100Gbit";
              "link link0 add class x parent root flow 77 fsc 1bps";
              "link link0 add class x parent root flow 77 fsc m1 100KBps d \
               1e10s m2 300KBps";
            ]
        in
        (* the same request dribbled one byte at a time must read whole *)
        let fd = raw_connect socket in
        String.iter
          (fun ch ->
            ignore (Unix.write fd (Bytes.make 1 ch) 0 1);
            Unix.sleepf 0.002)
          "ping\n";
        let dribble = recv_reply fd in
        (* a lineless flood past the request bound: one error reply,
           then the daemon hangs up *)
        let flood = Bytes.make 6000 'y' in
        let rec send off =
          if off < Bytes.length flood then
            send (off + Unix.write fd flood off (Bytes.length flood - off))
        in
        send 0;
        let floodr = recv_reply fd in
        let eof =
          (try Unix.read fd (Bytes.create 1) 0 1
           with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0)
          = 0
        in
        Unix.close fd;
        ignore (D.Client.request conn "shutdown");
        D.Client.close conn;
        (r1, r2, r3, r4, r5, r6, r7, unrepresentable, dribble, floodr, eof))
  in
  D.serve d;
  let r1, r2, r3, r4, r5, r6, r7, unrepresentable, dribble, floodr, eof =
    Domain.join client
  in
  (match r1 with
  | Error ("bad-value", m) ->
      Alcotest.(check bool) "oversize names the bound" true
        (String.length m > 0)
  | _ -> Alcotest.fail "oversized line must be bad-value");
  Alcotest.(check (result string (pair string string)))
    "connection survives the oversized line" (Ok "pong") r2;
  (match r3 with
  | Error ("bad-value", m) ->
      Alcotest.(check bool) "NUL rejection says so" true
        (String.length m > 0)
  | _ -> Alcotest.fail "NUL byte must be bad-value");
  Alcotest.(check (result string (pair string string)))
    "connection survives the NUL line" (Ok "pong") r4;
  (match r5 with
  | Ok fp ->
      Alcotest.(check bool) "fingerprint is hex" true
        (String.length fp = 32
        && String.for_all
             (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
             fp)
  | Error (c, m) -> Alcotest.failf "fingerprint refused: %s %s" c m);
  (match r6 with
  | Error ("parse-error", _) -> ()
  | Ok s -> Alcotest.failf "overflowing rate accepted: %s" s
  | Error (c, m) -> Alcotest.failf "overflowing rate: %s %s" c m);
  Alcotest.(check (result string (pair string string)))
    "daemon survives the overflowing rate" (Ok "pong") r7;
  List.iter
    (fun (line, r, pong) ->
      (match r with
      | Error ("bad-value", _) -> ()
      | Ok s -> Alcotest.failf "%s: accepted: %s" line s
      | Error (c, m) -> Alcotest.failf "%s: %s %s" line c m);
      Alcotest.(check (result string (pair string string)))
        (line ^ ": the daemon keeps serving") (Ok "pong") pong)
    unrepresentable;
  Alcotest.(check bool) "overflowing rate adds no link" true
    (R.link_count live = 1);
  Alcotest.(check string) "byte-dribbled ping reads whole" "ok 4\npong\n"
    dribble;
  Alcotest.(check bool) "lineless flood answers an error" true
    (String.length floodr > 4 && String.sub floodr 0 3 = "err");
  Alcotest.(check bool) "lineless flood hangs up" true eof

(* --- the client's own robustness ------------------------------------- *)

let test_client_timeout () =
  (* a listener that accepts the connection into its backlog but never
     serves: the deadline, not the daemon, must end the request *)
  let socket = temp ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 1;
  let conn = D.Client.connect socket in
  let t0 = Unix.gettimeofday () in
  (match D.Client.request ~timeout:0.15 conn "ping" with
  | exception D.Client.Timeout -> ()
  | Ok _ | Error _ ->
      Alcotest.fail "request against a mute server must raise Timeout");
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "timeout fires promptly" true (dt >= 0.1 && dt < 2.);
  D.Client.close conn;
  Unix.close lfd;
  Sys.remove socket

let test_connect_retry () =
  let socket = temp ".sock" in
  (* retry-less connect to a socket nobody serves fails at once *)
  (match D.Client.connect socket with
  | conn ->
      D.Client.close conn;
      Alcotest.fail "connect to nothing succeeded"
  | exception Unix.Unix_error _ -> ());
  let server =
    Domain.spawn (fun () ->
        Unix.sleepf 0.1;
        let d =
          D.create ~clock:(fun () -> 0.) ~socket
            (D.backend_of_router (mk_router ()))
        in
        D.serve d)
  in
  (* bounded exponential backoff rides out the late bind *)
  let conn = D.Client.connect ~retries:12 ~backoff:0.02 socket in
  let r = D.Client.request ~timeout:5. conn "ping" in
  ignore (D.Client.request conn "shutdown");
  D.Client.close conn;
  Domain.join server;
  Alcotest.(check (result string (pair string string)))
    "ping after retried connect" (Ok "pong") r

(* --- the connection buffer --------------------------------------------- *)

(* Read exactly [n] bytes from a raw connection, or fail after 5 s. *)
let recv_bytes fd n =
  let b = Bytes.create n in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go off =
    if off = n then Bytes.to_string b
    else
      let remaining = deadline -. Unix.gettimeofday () in
      match Unix.select [ fd ] [] [] (Float.max 0. remaining) with
      | [], _, _ -> failwith "raw reply timed out"
      | _ -> (
          match Unix.read fd b off (n - off) with
          | 0 -> failwith "raw reply cut short"
          | k -> go (off + k))
  in
  go 0

let write_string fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Pipelined lines share a read; a line whose CR and LF arrive in
   separate reads is one request. The daemon must answer each line
   once, in order, whatever the read boundaries. *)
let test_daemon_framing () =
  let socket = temp ".sock" in
  let d =
    D.create ~clock:(fun () -> 0.) ~socket (D.backend_of_router (mk_router ()))
  in
  let client =
    Domain.spawn (fun () ->
        let fd = raw_connect socket in
        Fun.protect ~finally:(fun () ->
            write_string fd "shutdown\n";
            ignore (recv_bytes fd (String.length "ok 13\nshutting down\n"));
            Unix.close fd)
        @@ fun () ->
        let pong = "ok 4\npong\n" and clean = "ok 11\naudit clean\n" in
        let idle = "ok 15\nno spill active\n" in
        write_string fd "ping\naudit\nspill status\n";
        let three = recv_bytes fd (String.length (pong ^ clean ^ idle)) in
        write_string fd "ping\r";
        Unix.sleepf 0.02;
        write_string fd "\n";
        (* the next request's reply must follow the split line's one
           reply directly *)
        write_string fd "audit\n";
        let split = recv_bytes fd (String.length (pong ^ clean)) in
        ((three, pong ^ clean ^ idle), (split, pong ^ clean)))
  in
  D.serve d;
  let (three, want_three), (split, want_split) = Domain.join client in
  Alcotest.(check string) "three pipelined lines, three replies in order"
    want_three three;
  Alcotest.(check string) "a line split between CR and LF is answered once"
    want_split split

(* A hand-rolled peer for the client, as in [test_client_timeout]: it
   accepts one connection on its own domain and runs [peer] on it, while
   [f] drives a [Client] connection from this one. *)
let with_peer peer f =
  let socket = temp ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 1;
  let server =
    Domain.spawn (fun () ->
        let sfd, _ = Unix.accept lfd in
        Fun.protect ~finally:(fun () -> Unix.close sfd) (fun () -> peer sfd))
  in
  let conn = D.Client.connect socket in
  Fun.protect
    ~finally:(fun () ->
      D.Client.close conn;
      Domain.join server;
      Unix.close lfd;
      Sys.remove socket)
    (fun () -> f conn)

(* the peer's side of one request: consume bytes through its newline *)
let read_request fd =
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> ()
    | _ -> if Bytes.get b 0 <> '\n' then go ()
  in
  go ()

(* hold the connection open until the client closes it *)
let await_close fd =
  let b = Bytes.create 64 in
  while Unix.read fd b 0 64 > 0 do
    ()
  done

let test_client_framing () =
  let reply = Alcotest.(result string (pair string string)) in
  with_peer
    (fun fd ->
      read_request fd;
      String.iter
        (fun ch ->
          write_string fd (String.make 1 ch);
          Unix.sleepf 0.001)
        "ok 5\nhello\n";
      await_close fd)
    (fun conn ->
      Alcotest.check reply "a reply dribbled one byte at a time" (Ok "hello")
        (D.Client.request ~timeout:5. conn "ping"));
  with_peer
    (fun fd ->
      read_request fd;
      write_string fd "ok 3\none\nerr bad-value 3\ntwo\n";
      await_close fd)
    (fun conn ->
      Alcotest.check reply "first of two replies in one write" (Ok "one")
        (D.Client.request ~timeout:5. conn "a");
      Alcotest.check reply "second of two replies in one write"
        (Error ("bad-value", "two"))
        (D.Client.request ~timeout:5. conn "b"));
  with_peer
    (fun fd ->
      read_request fd;
      List.iter
        (fun chunk ->
          write_string fd chunk;
          Unix.sleepf 0.01)
        [ "ok 11\nhello"; " wor"; "ld\n" ];
      await_close fd)
    (fun conn ->
      Alcotest.check reply "a body split across writes reads whole"
        (Ok "hello world")
        (D.Client.request ~timeout:5. conn "ping"));
  with_peer
    (fun fd ->
      read_request fd;
      write_string fd "ok 5\n")
    (fun conn ->
      match D.Client.request ~timeout:5. conn "ping" with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "a close after the status line must be End_of_file");
  with_peer
    (fun fd ->
      read_request fd;
      write_string fd "ok 5\nhe";
      await_close fd)
    (fun conn ->
      match D.Client.request ~timeout:0.15 conn "ping" with
      | exception D.Client.Timeout -> ()
      | _ -> Alcotest.fail "a stall after the status line must be Timeout")

(* Serve [r] on another domain for the duration of [f conn]. [clock]
   runs on the serving domain, once per command without an [at]
   prefix: the hook the allocation gates sample that domain through. *)
let with_daemon ?(clock = fun () -> 0.) r f =
  let socket = temp ".sock" in
  let d = D.create ~clock ~socket (D.backend_of_router r) in
  let server = Domain.spawn (fun () -> D.serve d) in
  let conn = D.Client.connect ~retries:100 ~backoff:0.01 socket in
  Fun.protect
    ~finally:(fun () ->
      ignore (D.Client.request conn "shutdown");
      D.Client.close conn;
      Domain.join server)
    (fun () -> f conn)

(* The daemon's own verbs split on the command grammar's whitespace: a
   tab is a separator there as it is in every command, so a trailing or
   separating tab does not turn a meta verb into an unknown command. *)
let test_meta_verbs_take_tabs () =
  let spill = temp ".trace" in
  let replies =
    with_daemon (mk_router ()) (fun conn ->
        List.map
          (fun line -> (line, D.Client.request conn line))
          [ "ping\t"; "\taudit\t"; "spill\tstart " ^ spill; "spill\tstatus";
            "spill \tstop" ])
  in
  let body line =
    match List.assoc line replies with
    | Ok body -> body
    | Error (c, m) -> Alcotest.failf "%S refused: %s %s" line c m
  in
  Alcotest.(check string) "ping, tab" "pong" (body "ping\t");
  Alcotest.(check string) "audit, tabs" "audit clean" (body "\taudit\t");
  let started = body ("spill\tstart " ^ spill) in
  Alcotest.(check string) "spill start, tab"
    (Printf.sprintf "spilling link %S to %s" "link0" spill)
    started;
  ignore (body "spill\tstatus");
  ignore (body "spill \tstop");
  Sys.remove spill

(* A reply past 1 MiB outgrows the client's buffer several times over;
   it must arrive byte for byte, and the connection must stay framed. *)
let test_large_reply () =
  let r = R.create () in
  let exec line =
    match R.exec r ~now:0. (Result.get_ok (C.parse line)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" line (E.error_message e)
  in
  exec "link add big rate 1Gbit backend rr";
  for i = 1 to 2000 do
    exec
      (Printf.sprintf "link big add class c%d parent root flow %d quantum 1500"
         i i)
  done;
  let expected = Json_lite.to_string (R.stats_json r) in
  Alcotest.(check bool) "the reply exceeds 1 MiB" true
    (String.length expected > 1 lsl 20);
  let json, ping =
    with_daemon r (fun conn ->
        let json = D.Client.request ~timeout:30. conn "stats-json" in
        (json, D.Client.request ~timeout:5. conn "ping"))
  in
  (match json with
  | Ok body ->
      Alcotest.(check int) "stats-json length" (String.length expected)
        (String.length body);
      Alcotest.(check bool) "stats-json byte for byte" true (body = expected)
  | Error (c, m) -> Alcotest.failf "stats-json refused: %s %s" c m);
  Alcotest.(check (result string (pair string string)))
    "the connection stays framed" (Ok "pong") ping

(* A warm connection's request costs both ends a few minor words and
   no major ones: the receive buffers are reused, not reallocated per
   read. Each domain's [Gc.counters] is its own, so the daemon's side
   is sampled by its clock, which runs for the marker command sent
   around the pings. *)
let test_request_allocation () =
  let major () =
    let _, _, major = Gc.counters () in
    major
  in
  let marks = ref [] in
  let clock () =
    marks := major () :: !marks;
    0.
  in
  let marker = "link list" in
  let pings = 1000 in
  let client_words =
    with_daemon ~clock (mk_router ()) (fun conn ->
        let ping () =
          match D.Client.request conn "ping" with
          | Ok "pong" -> ()
          | _ -> Alcotest.fail "ping did not answer pong"
        in
        for _ = 1 to 100 do
          ping ()
        done;
        ignore (D.Client.request conn marker);
        let m0 = major () in
        for _ = 1 to pings do
          ping ()
        done;
        let words = major () -. m0 in
        ignore (D.Client.request conn marker);
        words)
  in
  let daemon_words =
    match !marks with
    | [ m1; m0 ] -> m1 -. m0
    | _ -> Alcotest.fail "expected two daemon-side samples"
  in
  let per_request = (client_words +. daemon_words) /. float_of_int pings in
  if per_request >= 16. then
    Alcotest.failf
      "%.1f major words per request (client %.0f, daemon %.0f over %d); \
       want < 16"
      per_request client_words daemon_words pings

(* Spilling costs the serving domain O(new events) per drain, not
   O(classes): with a spill active over a 20,000-class rr link, each
   executed command (which drains after its reply, and again when the
   multiplexer step ends) allocates a bounded number of minor words on
   that domain. A drain that copied every class's counters would cost
   hundreds of thousands of words a command here. *)
let test_spill_cost () =
  let classes = 20_000 and commands = 200 in
  let r = R.create () in
  let exec line =
    match R.exec r ~now:0. (Result.get_ok (C.parse line)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" line (E.error_message e)
  in
  exec "link add big rate 1Gbit backend rr";
  for i = 1 to classes do
    exec
      (Printf.sprintf "link big add class c%d parent root flow %d quantum 1500"
         i i)
  done;
  let marks = ref [] in
  let clock () =
    marks := Gc.minor_words () :: !marks;
    0.
  in
  let spill = temp ".trace" in
  with_daemon ~clock r (fun conn ->
      (match D.Client.request conn ("spill start " ^ spill) with
      | Ok _ -> ()
      | Error (_, m) -> Alcotest.failf "spill start refused: %s" m);
      for i = 1 to commands do
        match
          D.Client.request conn (Printf.sprintf "link big stats c%d" i)
        with
        | Ok _ -> ()
        | Error (_, m) -> Alcotest.failf "stats refused: %s" m
      done;
      ignore (D.Client.request conn "spill stop"));
  Sys.remove spill;
  Alcotest.(check int) "one sample per command" commands (List.length !marks);
  let last = List.hd !marks and first = List.nth !marks (commands - 1) in
  let per_command = (last -. first) /. float_of_int (commands - 1) in
  if per_command >= 2000. then
    Alcotest.failf
      "%.0f minor words per command on the serving domain with %d classes; \
       want < 2000"
      per_command classes

(* --- spill: failures ---------------------------------------------------- *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A spill the daemon cannot open or write stops itself, never the
   daemon: after each failure [ping] answers and the configuration is
   untouched. The ring holds 3000 events (96 kB of records) before the
   first drain, more than an output channel buffers, so a spill to
   /dev/full fails inside [spill start]'s own drain; a second one,
   with nothing new to drain, fails only when [spill stop] closes it. *)
let test_spill_failures () =
  let r = mk_router () in
  let (D.Backend core) = D.backend_of_router r in
  (match
     Runtime.Router_core.exec core ~now:0.
       (Result.get_ok (C.parse "add class a parent root flow 1 fsc 1Mbit"))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add class: %s" (E.error_message e));
  let sched =
    match Runtime.Router_core.adapters core with
    | [ (_, _, s) ] -> s
    | _ -> Alcotest.fail "one link expected"
  in
  for seq = 0 to 1499 do
    let now = float_of_int seq *. 1e-3 in
    ignore
      (sched.Sched.Scheduler.enqueue ~now
         (Pkt.Packet.make ~flow:1 ~size:100 ~seq ~arrival:now));
    ignore (sched.Sched.Scheduler.dequeue ~now)
  done;
  let reply = Alcotest.(result string (pair string string)) in
  with_daemon r (fun conn ->
      let req = D.Client.request conn in
      let fp = req "fingerprint" in
      let alive what =
        Alcotest.check reply (what ^ ": ping") (Ok "pong") (req "ping");
        Alcotest.check reply (what ^ ": fingerprint unchanged") fp
          (req "fingerprint")
      in
      let refused what path = function
        | Error ("bad-value", m) ->
            Alcotest.(check bool) (what ^ " names " ^ path) true
              (contains m path)
        | Ok b -> Alcotest.failf "%s: accepted: %s" what b
        | Error (c, m) -> Alcotest.failf "%s: %s %s" what c m
      in
      let missing = "/nonexistent-hfsc-dir/x" in
      refused "unopenable spill start" missing (req ("spill start " ^ missing));
      alive "unopenable";
      Alcotest.check reply "nothing spilling" (Ok "no spill active")
        (req "spill status");
      if Sys.file_exists "/dev/full" then begin
        Alcotest.check reply "spill start keeps its reply"
          (Ok "spilling link \"link0\" to /dev/full")
          (req "spill start /dev/full");
        refused "status after a failed drain" "/dev/full" (req "spill status");
        alive "failed drain";
        Alcotest.check reply "the spill stopped" (Ok "no spill active")
          (req "spill status");
        Alcotest.check reply "second spill start"
          (Ok "spilling link \"link0\" to /dev/full")
          (req "spill start /dev/full");
        refused "stop with a failed close" "/dev/full" (req "spill stop");
        alive "failed close"
      end)

(* --- spill: multicore = sequential ------------------------------------ *)

(* Two links, one per backend, overloaded so their rings hold
   enqueues, both dequeue kinds and drops, and small enough rings that
   the oldest events are overwritten before the spill starts. *)
let spill_setup =
  [
    "link add west rate 1Mbit";
    "link add east rate 1Mbit backend rr";
    "link west add class a parent root flow 1 rsc umax 500 dmax 10ms rate \
     300Kbit fsc 300Kbit qlimit 16";
    "link west add class b parent root flow 2 fsc 600Kbit qlimit 16";
    "link east add class c parent root flow 3 quantum 1500 qlimit 16";
    "link east add class d parent root flow 4 quantum 3000 qlimit 16";
  ]

let spill_ring = 512

(* Run the same traffic through [backend]'s links (their adapters, as a
   simulation drives them), then spill both rings over the socket.
   Returns each link's spill file and the [spill status] reply. *)
let spill_after_traffic backend =
  let (D.Backend core) = backend in
  List.iter
    (fun line ->
      match Runtime.Router_core.exec core ~now:0. (Result.get_ok (C.parse line)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" line (E.error_message e))
    spill_setup;
  let links = Runtime.Router_core.adapters core in
  let index = Hashtbl.create 4 in
  List.iteri (fun i (name, _, _) -> Hashtbl.replace index name i) links;
  let sim =
    Netsim.Sim.create_multi ~links
      ~route:(fun p ->
        Option.bind
          (Runtime.Router_core.link_of_flow core p.Pkt.Packet.flow)
          (Hashtbl.find_opt index))
      ()
  in
  List.iter
    (fun flow ->
      Netsim.Sim.add_source sim
        (Netsim.Source.poisson ~flow ~rate:100_000. ~pkt_size:500
           ~seed:(17 * flow) ~stop:1. ()))
    [ 1; 2; 3; 4 ];
  Netsim.Sim.run sim ~until:1.;
  let spill = temp ".trace" in
  let status = run_session ~spill backend "spill status" in
  (List.map (fun (name, _, _) -> (name, spill ^ "." ^ name)) links, status)

(* The multicore router's links are drained on their worker domains,
   the sequential router's on the caller's, by the same sink code. After
   identical traffic the spill files must be equal byte for byte, and
   the sequential one must hold exactly each engine's surviving ring,
   each event once. *)
let test_spill_mc_equals_seq () =
  let seq = R.create ~trace_capacity:spill_ring () in
  let want_files, want_status = spill_after_traffic (D.backend_of_router seq) in
  let mc = M.create ~trace_capacity:spill_ring ~domains:2 () in
  let got_files, got_status =
    Fun.protect
      ~finally:(fun () -> ignore (M.stop mc))
      (fun () -> spill_after_traffic (D.backend_of_mc_router mc))
  in
  List.iter
    (fun (name, eng) ->
      let snap = E.snapshot eng in
      Alcotest.(check bool)
        (name ^ ": the ring overflowed before the spill")
        true
        (snap.Runtime.Telemetry.snap_dropped > 0);
      match L.read_file (List.assoc name want_files) with
      | Ok (_, evs) ->
          Alcotest.(check bool)
            (name ^ ": the spill = the surviving ring, each event once")
            true
            (evs = snap.Runtime.Telemetry.snap_events)
      | Error e -> Alcotest.failf "%s: spill unreadable: %s" name e)
    (R.links seq);
  Alcotest.(check (list (result string (pair string string))))
    "same written and lost counts" want_status got_status;
  List.iter2
    (fun (name, want) (_, got) ->
      let want = In_channel.with_open_bin want In_channel.input_all in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d bytes each, byte for byte" name
           (String.length want))
        true
        (want = In_channel.with_open_bin got In_channel.input_all))
    want_files got_files;
  List.iter (fun (_, path) -> Sys.remove path) (want_files @ got_files)

(* --- durable rotation ------------------------------------------------- *)

(* -1 for a missing file *)
let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> -1

(* the newest checkpoint generation in a state directory, -1 if none *)
let newest_generation dir =
  Array.fold_left
    (fun acc name ->
      match String.split_on_char '.' name with
      | [ "checkpoint"; g ] -> (
          match int_of_string_opt g with Some g -> max acc g | None -> acc)
      | _ -> acc)
    (-1) (Sys.readdir dir)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let ic = open_in_bin (Filename.concat src name) in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst name) in
      output_string oc s;
      close_out oc)
    (Sys.readdir src)

let rm_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Churn whose records and checkpoints are sized to exercise both halves
   of the rule at [checkpoint_every = 4]: long [add class] records
   outweigh a small checkpoint before the count floor is met, and short
   [delete class] records meet the floor long before they outweigh a
   checkpoint holding those classes. *)
let rotation_every = 4

let rotation_script =
  let add i =
    Printf.sprintf
      "at %d link w add class c%d parent root flow %d fsc m1 100000Bps d \
       0.01s m2 50000Bps qlimit 64"
      i i (i + 1)
  in
  let delete i = Printf.sprintf "at %d link w delete class c%d" (100 + i) i in
  ("at 0 link add w rate 100Mbit" :: List.init 3 add)
  @ List.init 3 delete
  @ List.init 12 (fun i -> add (10 + i))
  @ List.init 5 (fun i -> delete (10 + i))

(* One record's bytes in the journal: the 8-byte frame plus the
   [at TIME COMMAND] payload. *)
let record_bytes line =
  match parse_script line with
  | [ (at, cmd) ] ->
      8 + String.length ("at " ^ C.float_text at ^ " " ^ C.to_string cmd)
  | _ -> Alcotest.failf "not one command: %S" line

(* Drive [Daemon.run ~durable] over its socket and predict, for each
   write, whether it rotates: only once the journal holds at least
   [checkpoint_every] records and at least the checkpoint's bytes. The
   state directory must agree after every reply. The directory, copied
   as it stands before shutdown (what a SIGKILL leaves), must recover
   to the replay oracle with the predicted tail. *)
let test_amortized_rotation () =
  let dir = temp ".state" in
  let socket = temp ".sock" in
  let lines = rotation_script in
  let client =
    Domain.spawn (fun () ->
        let conn = D.Client.connect ~retries:200 ~backoff:0.01 socket in
        (* whatever happens here, the daemon must stop *)
        Fun.protect ~finally:(fun () ->
            ignore (D.Client.request conn "shutdown");
            D.Client.close conn)
        @@ fun () ->
        let gen = ref 0 and count = ref 0 and bytes = ref 0 in
        let ckpt = ref (file_size (Filename.concat dir "checkpoint.0")) in
        let floor_only = ref 0 and bytes_only = ref 0 in
        let mismatches = ref [] in
        List.iter
          (fun line ->
            (match D.Client.request conn line with
            | Ok _ -> ()
            | Error (code, m) -> failwith (line ^ " refused: " ^ code ^ " " ^ m));
            incr count;
            bytes := !bytes + record_bytes line;
            let floor = !count >= rotation_every and heavy = !bytes >= !ckpt in
            if floor && heavy then begin
              incr gen;
              count := 0;
              bytes := 0;
              ckpt :=
                file_size
                  (Filename.concat dir (Printf.sprintf "checkpoint.%d" !gen))
            end
            else if floor then incr floor_only
            else if heavy then incr bytes_only;
            let on_disk = newest_generation dir in
            let journal = Filename.concat dir (Printf.sprintf "journal.%d" !gen) in
            if on_disk <> !gen || file_size journal <> 16 + !bytes then
              mismatches :=
                Printf.sprintf "after %S: generation %d, %d journal bytes \
                                (want %d, %d)"
                  line on_disk (file_size journal - 16) !gen !bytes
                :: !mismatches)
          lines;
        let left = Filename.concat (Filename.dirname dir)
            (Filename.basename dir ^ ".copy") in
        copy_dir dir left;
        (List.rev !mismatches, !floor_only, !bytes_only, !gen, !count, left))
  in
  (match
     D.run ~sigterm:false ~checkpoint_every:rotation_every ~durable:dir ~socket
       (D.backend_of_router (R.create ()))
   with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "durable run reported no recovery"
  | Error m -> Alcotest.failf "durable run refused: %s" m);
  let mismatches, floor_only, bytes_only, rotates, tail, left =
    Domain.join client
  in
  Alcotest.(check (list string)) "state directory follows the rule" []
    mismatches;
  Alcotest.(check bool) "the count floor alone did not rotate" true
    (floor_only > 0);
  Alcotest.(check bool) "the byte rule alone did not rotate" true
    (bytes_only > 0);
  Alcotest.(check bool) "and both together did, more than once" true
    (rotates >= 2);
  let oracle = R.create () in
  List.iter
    (fun (at, cmd) -> ignore (R.exec oracle ~now:at cmd))
    (parse_script (String.concat "\n" lines));
  (match
     D.run ~sigterm:false ~idle:(fun () -> false) ~durable:left
       ~socket:(temp ".sock")
       (D.backend_of_router (R.create ()))
   with
  | Ok (Some info) ->
      Alcotest.(check int) "recovered tail is the unrotated records" tail
        info.D.ri_tail;
      Alcotest.(check bool) "a tail to replay" true (tail > 0);
      Alcotest.(check string) "recovers to the replay oracle"
        (R.config_fingerprint oracle) info.D.ri_fingerprint
  | Ok None -> Alcotest.fail "recovery reported no state"
  | Error m -> Alcotest.failf "recovery refused: %s" m);
  rm_dir dir;
  rm_dir left

(* --- configs seed recoverable state ------------------------------------ *)

(* Two 800Kbit rsc leaves on a 1Mbit link: inadmissible. *)
let inadmissible_config =
  "link rate 1Mbit\n\
   class a parent root flow 1 rsc 800Kbit\n\
   class b parent root flow 2 rsc 800Kbit\n\
   source cbr flow 1 rate 1Kbit pkt 100\n\
   source cbr flow 2 rate 1Kbit pkt 100\n"

(* Every shipped config, and the inadmissible one, is either refused by
   [Router.of_config] with its typed code and line, or seeds a state
   directory whose restart on an empty router recovers the same
   fingerprint. A config that loads can no longer write a checkpoint
   its own replay refuses. *)
let test_configs_seed_recoverable_state () =
  let examples =
    Sys.readdir "../examples" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".hfsc")
    |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in_bin (Filename.concat "../examples" f) in
           let text = really_input_string ic (in_channel_length ic) in
           close_in ic;
           (f, text))
  in
  Alcotest.(check bool) "examples found" true (examples <> []);
  let serve dir backend =
    D.run ~sigterm:false ~idle:(fun () -> false) ~durable:dir
      ~socket:(temp ".sock") backend
  in
  let refused =
    List.filter_map
      (fun (name, text) ->
        let cfg =
          match Config.parse text with
          | Ok c -> c
          | Error e -> Alcotest.failf "%s: %s" name e
        in
        match R.of_config cfg with
        | Error e -> Some (name, e)
        | Ok (r, _) ->
            let dir = temp ".state" in
            (match serve dir (D.backend_of_router r) with
            | Ok (Some _) -> ()
            | Ok None -> Alcotest.failf "%s: no durable state" name
            | Error m -> Alcotest.failf "%s: seeding refused: %s" name m);
            (match serve dir (D.backend_of_router (R.create ())) with
            | Ok (Some info) ->
                Alcotest.(check string)
                  (name ^ ": restart recovers the configured device")
                  (R.config_fingerprint r) info.D.ri_fingerprint
            | Ok None -> Alcotest.failf "%s: restart recovered nothing" name
            | Error m -> Alcotest.failf "%s: recovery refused: %s" name m);
            rm_dir dir;
            None)
      (examples @ [ ("inadmissible", inadmissible_config) ])
  in
  match refused with
  | [ ("inadmissible", e) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "refused at line 3 as admission-realtime: %S" e)
        true
        (String.starts_with ~prefix:"line 3: admission-realtime: " e)
  | _ ->
      Alcotest.failf "expected only the inadmissible config refused, got: %s"
        (String.concat "; " (List.map (fun (n, e) -> n ^ ": " ^ e) refused))

(* --- the runtest-sized soak slice ------------------------------------ *)

let test_soak_slice () =
  let report =
    Experiments.Soak.run ~links:2 ~flows_per_link:3 ~seconds:0.15 ~seed:7 ()
  in
  (match Experiments.Soak.healthy report with
  | Ok () -> ()
  | Error why ->
      Alcotest.failf "unhealthy soak: %s\n%s" why
        (Experiments.Soak.report_text report));
  Alcotest.(check int)
    "auditor armed and clean" 0 report.Experiments.Soak.sk_audit_failures;
  Alcotest.(check bool)
    "trace spilled on every link" true
    (List.for_all
       (fun (_, w, _) -> w > 0)
       report.Experiments.Soak.sk_spilled);
  Alcotest.(check bool)
    "histogram aggregated the spill" true
    (L.Histogram.samples report.Experiments.Soak.sk_histogram > 0);
  (* the report must render, histogram table included *)
  let text = Experiments.Soak.report_text report in
  Alcotest.(check bool) "report renders" true (String.length text > 100)

let () =
  Alcotest.run "daemon"
    [
      ( "sessions",
        [
          Alcotest.test_case "engine session = exec_script, bit for bit"
            `Quick test_engine_session;
          Alcotest.test_case "router session = exec_script, bit for bit"
            `Quick test_router_session;
          Alcotest.test_case
            "mc-router session = exec_script, bit for bit" `Quick
            test_mc_router_session;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "meta verbs and framing" `Quick test_meta_verbs;
          Alcotest.test_case "input hardening and fingerprint" `Quick
            test_hardening;
          Alcotest.test_case "client request timeout" `Quick
            test_client_timeout;
          Alcotest.test_case "client connect retry" `Quick test_connect_retry;
          Alcotest.test_case "daemon framing across reads" `Quick
            test_daemon_framing;
          Alcotest.test_case "client framing across reads" `Quick
            test_client_framing;
          Alcotest.test_case "client reads a reply past 1 MiB" `Quick
            test_large_reply;
          Alcotest.test_case "requests allocate no major words" `Quick
            test_request_allocation;
          Alcotest.test_case "meta verbs take tabs" `Quick
            test_meta_verbs_take_tabs;
        ] );
      ( "spill",
        [
          Alcotest.test_case "multicore spill = sequential, byte for byte"
            `Quick test_spill_mc_equals_seq;
          Alcotest.test_case "a drain costs O(new events), not O(classes)"
            `Quick test_spill_cost;
          Alcotest.test_case "open and write failures stop the spill only"
            `Quick test_spill_failures;
        ] );
      ( "durable",
        [
          Alcotest.test_case "configs seed recoverable state" `Quick
            test_configs_seed_recoverable_state;
          Alcotest.test_case
            "rotates once the journal outweighs its checkpoint" `Quick
            test_amortized_rotation;
        ] );
      ( "soak",
        [ Alcotest.test_case "runtest slice is healthy" `Quick test_soak_slice ]
      );
    ]
