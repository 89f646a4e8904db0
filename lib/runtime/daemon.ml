(* Unix-domain-socket REPL over the runtime control plane. One domain,
   one [select] loop: accept, buffer, cut lines, execute, reply. The
   interesting property is what this file does *not* contain — any
   scheduling logic: a request line goes through the same
   [Command.parse] + [exec] path a script replay uses, so the daemon
   cannot drift from the offline semantics. *)

type backend = Backend : 'p Router_core.t -> backend

let backend_of_router (r : Router.t) = Backend r
let backend_of_mc_router m = Backend (Mc_router.core m)

(* --- wire helpers ---------------------------------------------------- *)

(* Short writes and EINTR are both routine on a socket a slow (or
   signal-happy) client is draining; loop until the reply is out. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let reply_ok fd body =
  write_all fd
    (String.concat ""
       [ "ok "; string_of_int (String.length body); "\n"; body; "\n" ])

let reply_err fd code message =
  write_all fd
    (String.concat ""
       [
         "err "; code; " "; string_of_int (String.length message); "\n";
         message; "\n";
       ])

(* --- the connection buffer ------------------------------------------- *)

(* Both ends of the socket receive into one reusable buffer per
   connection: bytes [pos, len) of [buf] are received but not yet
   consumed. A steady request/reply stream allocates nothing per read;
   [buf] doubles only when one unconsumed message fills it (a large
   reply on the client; the daemon's pending line is capped by
   [max_request], far below the initial size). *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let conn_of_fd fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
let pending c = c.len - c.pos

(* Move the pending bytes to the front, then read once into the free
   tail. [false] at end of stream; an EINTR reads nothing and answers
   [true], so the caller simply tries again. *)
let refill c =
  let n = pending c in
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 n;
    c.pos <- 0;
    c.len <- n
  end;
  if n = Bytes.length c.buf then begin
    let b = Bytes.create (2 * n) in
    Bytes.blit c.buf 0 b 0 n;
    c.buf <- b
  end;
  match Unix.read c.fd c.buf n (Bytes.length c.buf - n) with
  | 0 -> false
  | k ->
      c.len <- n + k;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* Consume the next complete line, without its '\n'. The scan stops at
   [len]: past it lie stale bytes of earlier messages. *)
let next_line c =
  let rec find i =
    if i >= c.len then None
    else if Bytes.unsafe_get c.buf i = '\n' then begin
      let line = Bytes.sub_string c.buf c.pos (i - c.pos) in
      c.pos <- i + 1;
      Some line
    end
    else find (i + 1)
  in
  find c.pos

(* --- the daemon ------------------------------------------------------ *)

(* The journal of [run ~durable]: accepted mutating commands are
   appended to [writer], which rotates into a checkpoint once it holds
   at least [checkpoint_every] records and at least the checkpoint's
   bytes. Every checkpoint byte is then paid for by a journal byte, so a
   rotate costs O(bytes written since the last one), not O(configuration)
   per [checkpoint_every] writes; recovery replays at most
   max([checkpoint_every] records, one checkpoint's bytes) plus one
   record of tail. *)
type journal = { writer : Journal.writer; checkpoint_every : int }

let rotate_due j =
  Journal.appended j.writer >= j.checkpoint_every
  &&
  let f = Journal.footprint j.writer in
  f.Journal.journal_bytes >= f.Journal.checkpoint_bytes

(* The one exec path, for socket requests and for recovery's replay
   (which runs before there is a journal). The write-behind of an
   accepted command happens before its reply is sent: [Journal.append]
   has handed the record to the OS by the time this returns. *)
let exec (Backend core) journal ~now cmd =
  let r = Router_core.exec core ~now cmd in
  (match (r, journal) with
  | Ok _, Some j when Command.is_mutating cmd ->
      Journal.append j.writer ~now cmd;
      if rotate_due j then
        Journal.rotate j.writer
          ~checkpoint:(Router_core.checkpoint core)
          ~digest:(Router_core.config_fingerprint core)
  | _ -> ());
  r

type t = {
  socket : string;
  listen_fd : Unix.file_descr;
  backend : backend;
  journal : journal option;
  clock : unit -> float;
  mutable conns : conn list;
  mutable running : bool;
  mutable shutdown : bool;
  mutable sinks : (string * Trace_log.Sink.t) list; (* active spill *)
  mutable last_totals : (string * int * int) list;
  mutable spill_error : string option; (* why the spill stopped itself *)
}

let backlog = 8

let make ?clock ~journal ~socket backend =
  let clock =
    match clock with
    | Some c -> c
    | None ->
        let t0 = Unix.gettimeofday () in
        fun () -> Unix.gettimeofday () -. t0
  in
  (match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd backlog;
  {
    socket;
    listen_fd;
    backend;
    journal;
    clock;
    conns = [];
    running = false;
    shutdown = false;
    sinks = [];
    last_totals = [];
    spill_error = None;
  }

let create ?clock ~socket backend = make ?clock ~journal:None ~socket backend

let shutdown_requested t = t.shutdown

(* --- spill management ------------------------------------------------ *)

let spill_file path ~links link =
  match links with [ _ ] -> path | _ -> path ^ "." ^ link

(* The first failure stops the spill; the next [spill status] or
   [spill stop] reports it. *)
let failed t link sink e =
  if t.spill_error = None then
    t.spill_error <-
      Some
        (Printf.sprintf "spill of link %S to %s failed: %s (spill stopped)"
           link (Trace_log.Sink.path sink) e)

(* Close every sink, best effort. *)
let close_all t =
  List.iter
    (fun (link, s) ->
      try Trace_log.Sink.close s with Sys_error e -> failed t link s e)
    t.sinks;
  t.sinks <- []

(* Each sink is drained by its link's engine, on the domain that owns
   it: O(events since the last drain). A deleted or downed link is
   skipped. A write error comes back here, on the serving domain, never
   escaping a port call, where a multicore router would take it for an
   engine fault and down the link; it stops the spill, not the daemon. *)
let drain_sinks t =
  let (Backend core) = t.backend in
  let drained (link, sink) =
    match Router_core.find_link core link with
    | None -> true
    | Some p -> (
        match
          core.Router_core.ops.call p
            ~down:(fun _ -> Ok 0)
            (fun eng ->
              match Engine.drain_trace eng sink with
              | n -> Ok n
              | exception e -> Error e)
        with
        | Ok _ -> true
        | Error (Sys_error e) ->
            failed t link sink e;
            false
        | Error e -> raise e)
  in
  if not (List.for_all drained t.sinks) then close_all t

let sink_totals t =
  List.map
    (fun (link, s) -> (link, Trace_log.Sink.written s, Trace_log.Sink.lost s))
    t.sinks

let close_sinks t =
  drain_sinks t;
  if t.sinks <> [] then begin
    t.last_totals <- sink_totals t;
    close_all t
  end

let take_spill_error t =
  let e = t.spill_error in
  t.spill_error <- None;
  e

let spill_totals t = if t.sinks <> [] then sink_totals t else t.last_totals

let totals_text totals =
  String.concat "\n"
    (List.map
       (fun (link, written, lost) ->
         Printf.sprintf "link %S: %d record%s spilled, %d lost" link written
           (if written = 1 then "" else "s")
           lost)
       totals)

let spill_start t path =
  if t.sinks <> [] then Error "spill already active (spill stop first)"
  else
    let (Backend core) = t.backend in
    match List.map fst (Router_core.links core) with
    | [] -> Error "no links to spill"
    | links -> (
        t.spill_error <- None;
        let opened l =
          let s = Trace_log.Sink.create ~path:(spill_file path ~links l) () in
          t.sinks <- t.sinks @ [ (l, s) ]
        in
        match List.iter opened links with
        | exception Sys_error e ->
            close_all t;
            Error e (* [open_out]'s message names the path *)
        | () ->
            let body =
              String.concat "\n"
                (List.map
                   (fun (l, s) ->
                     Printf.sprintf "spilling link %S to %s" l
                       (Trace_log.Sink.path s))
                   t.sinks)
            in
            drain_sinks t; (* a failure keeps this reply *)
            Ok body)

(* --- request handling ------------------------------------------------ *)

let first_token line =
  let n = String.length line in
  let rec start i =
    if i < n && Command.is_blank line.[i] then start (i + 1) else i
  in
  let s = start 0 in
  let rec stop i =
    if i < n && not (Command.is_blank line.[i]) then stop (i + 1) else i
  in
  let e = stop s in
  (String.sub line s (e - s), String.trim (String.sub line e (n - e)))

let exec_command t fd ~verb line =
  (* an [at TIME] prefix carries the execution time; otherwise the
     daemon's clock supplies it — parse both through the script
     grammar so attribution and curve syntax stay identical *)
  match Command.parse_script line with
  | Error { Command.reason; _ } -> reply_err fd "parse-error" reason
  | Ok [] -> reply_ok fd "" (* blank or comment line *)
  | Ok cmds ->
      let has_at = verb = "at" in
      List.iter
        (fun (at, cmd) ->
          let now = if has_at then at else t.clock () in
          match exec t.backend t.journal ~now cmd with
          | Ok body ->
              drain_sinks t;
              reply_ok fd body
          | Error e ->
              reply_err fd
                (Engine.error_code_name (Engine.error_code e))
                (Engine.error_message e))
        cmds

let handle_line t conn line =
  let fd = conn.fd in
  let (Backend core) = t.backend in
  let verb, rest = first_token line in
  match verb with
  | "ping" -> reply_ok fd "pong"
  | "quit" ->
      reply_ok fd "bye";
      raise Exit (* caller closes this connection *)
  | "shutdown" ->
      t.shutdown <- true;
      t.running <- false;
      reply_ok fd "shutting down"
  | "audit" -> (
      match Router_core.audit core with
      | [] -> reply_ok fd "audit clean"
      | errs -> reply_err fd "structural" (String.concat "\n" errs))
  | "stats-json" -> reply_ok fd (Json_lite.to_string (Router_core.stats_json core))
  | "fingerprint" -> reply_ok fd (Router_core.config_fingerprint core)
  | "spill" -> (
      let sub, arg = first_token rest in
      match (sub, arg) with
      | "start", path when path <> "" -> (
          match spill_start t path with
          | Ok body -> reply_ok fd body
          | Error m -> reply_err fd "bad-value" m)
      | "stop", "" -> (
          let active = t.sinks <> [] in
          close_sinks t;
          match take_spill_error t with
          | Some m -> reply_err fd "bad-value" m
          | None when active -> reply_ok fd (totals_text t.last_totals)
          | None -> reply_err fd "bad-value" "no spill active")
      | "status", "" -> (
          drain_sinks t;
          match take_spill_error t with
          | Some m -> reply_err fd "bad-value" m
          | None when t.sinks = [] -> reply_ok fd "no spill active"
          | None -> reply_ok fd (totals_text (sink_totals t)))
      | _ ->
          reply_err fd "parse-error"
            "usage: spill start PATH | spill stop | spill status")
  | _ -> exec_command t fd ~verb line

(* No legitimate request line comes close to this; anything longer is a
   confused (or hostile) client, and an unbounded buffer would let it
   hold the daemon's memory hostage one byte at a time. *)
let max_request = 4096

let request_too_long fd =
  reply_err fd "bad-value"
    ("request exceeds " ^ string_of_int max_request ^ " bytes")

(* Answer every complete line in the connection buffer; a partial line
   stays pending for the next read. *)
let rec process_buffer t conn =
  match next_line conn with
  | None ->
      if pending conn > max_request then begin
        (* can't resync a lineless stream: reply and hang up *)
        request_too_long conn.fd;
        raise Exit
      end
  | Some line ->
      let line =
        (* tolerate CRLF clients *)
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if String.length line > max_request then request_too_long conn.fd
      else if String.contains line '\000' then
        (* line framing is intact, so the connection survives *)
        reply_err conn.fd "bad-value" "request contains NUL byte"
      else handle_line t conn line;
      process_buffer t conn

let close_conn t conn =
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* the longest [select] wait, so [idle] runs at least this often *)
let idle_every = 0.05

let serve ?(idle = fun () -> true) t =
  t.running <- true;
  let step () =
    let fds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
    let ready, _, _ =
      try Unix.select fds [] [] idle_every
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = t.listen_fd then begin
          let cfd, _ = Unix.accept t.listen_fd in
          t.conns <- conn_of_fd cfd :: t.conns
        end
        else
          match List.find_opt (fun c -> c.fd = fd) t.conns with
          | None -> ()
          | Some conn -> (
              match refill conn with
              | false -> close_conn t conn
              | true -> (
                  try process_buffer t conn with
                  | Exit -> close_conn t conn
                  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                      close_conn t conn)
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  close_conn t conn))
      ready;
    drain_sinks t
  in
  (* a dying client must not kill the daemon with SIGPIPE *)
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      (match old_sigpipe with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
      | None -> ());
      close_sinks t;
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        t.conns;
      t.conns <- [];
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink t.socket with Unix.Unix_error _ -> ())
    (fun () ->
      while t.running do
        step ();
        if t.running && not (idle ()) then t.running <- false
      done)

(* --- durability ------------------------------------------------------- *)

type recovery_info = {
  ri_generation : int;
  ri_checkpoint : int;
  ri_tail : int;
  ri_truncated : bool;
  ri_fingerprint : string;
}

let ( let* ) = Result.bind

(* Recovery is strict on purpose: the journal only ever holds commands
   the engine *accepted*, so a refusal during replay means the state
   directory and this backend disagree (wrong backend, wrong link
   rates, a non-empty engine) — serving a half-rebuilt configuration
   would be worse than refusing to start. *)
let recover ~checkpoint_every ~dir backend =
  if checkpoint_every < 1 then invalid_arg "Daemon.run: checkpoint_every";
  let (Backend core) = backend in
  let* r = Result.map_error Journal.corruption_text (Journal.recover ~dir) in
  let replay label cmds =
    let rec go n = function
      | [] -> Ok n
      | (at, cmd) :: rest -> (
          match exec backend None ~now:at cmd with
          | Ok _ -> go (n + 1) rest
          | Error e ->
              Error
                (Printf.sprintf "%s replay refused command %d: %s" label (n + 1)
                   (Engine.error_message e)))
    in
    go 0 cmds
  in
  let* _ = replay "checkpoint" r.Journal.r_checkpoint in
  let* () =
    match r.Journal.r_digest with
    | None -> Ok ()
    | Some d ->
        let fp = Router_core.config_fingerprint core in
        if d = fp then Ok ()
        else
          Error
            (Printf.sprintf "checkpoint digest mismatch: recorded %s, rebuilt %s"
               d fp)
  in
  let* tail = replay "journal" r.Journal.r_tail in
  let generation = r.Journal.r_generation + 1 in
  let fingerprint = Router_core.config_fingerprint core in
  let writer =
    (* start a fresh generation immediately: the recovered state becomes
       a checkpoint, so the next crash replays from here, not from the
       whole inherited history *)
    Journal.start ~dir ~generation ~checkpoint:(Router_core.checkpoint core)
      ~digest:fingerprint
  in
  Ok
    ( { writer; checkpoint_every },
      {
        ri_generation = generation;
        ri_checkpoint = List.length r.Journal.r_checkpoint;
        ri_tail = tail;
        ri_truncated = r.Journal.r_truncated;
        ri_fingerprint = fingerprint;
      } )

let run ?clock ?(idle = fun () -> true) ?(sigterm = true)
    ?(checkpoint_every = 256) ?durable:state_dir ~socket backend =
  let* recovered =
    match state_dir with
    | None -> Ok None
    | Some dir ->
        Result.map Option.some (recover ~checkpoint_every ~dir backend)
  in
  let journal = Option.map fst recovered in
  let stop = Atomic.make false in
  let old_term =
    if sigterm then
      try
        Some
          (Sys.signal Sys.sigterm
             (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
      with Invalid_argument _ | Sys_error _ -> None
    else None
  in
  let t = make ?clock ~journal ~socket backend in
  Fun.protect
    ~finally:(fun () ->
      (match old_term with
      | Some h -> ( try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ())
      | None -> ());
      (* graceful stop: serve's own finally has already flushed and
         closed any active trace spill; the journal barrier is ours *)
      Option.iter (fun j -> Journal.close j.writer) journal)
    (fun () ->
      serve ~idle:(fun () -> (not (Atomic.get stop)) && idle ()) t;
      Ok (Option.map snd recovered))

(* --- client ---------------------------------------------------------- *)

module Client = struct
  type nonrec conn = conn

  exception Timeout

  let connect_once path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> conn_of_fd fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e

  let connect ?(retries = 0) ?(backoff = 0.05) path =
    let rec go attempt delay =
      match connect_once path with
      | c -> c
      | exception Unix.Unix_error _ when attempt < retries ->
          (* daemon restarting: the socket is briefly absent or not yet
             listening — back off exponentially and try again *)
          Unix.sleepf delay;
          go (attempt + 1) (delay *. 2.)
    in
    go 0 backoff

  (* Block until [c.fd] is readable, or raise [Timeout] at [deadline].
     EINTR restarts the wait with the remaining budget. *)
  let rec wait_readable c deadline =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then raise Timeout
    else
      match Unix.select [ c.fd ] [] [] left with
      | [], _, _ -> raise Timeout
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable c deadline

  let receive ?deadline c =
    (match deadline with None -> () | Some d -> wait_readable c d);
    if not (refill c) then raise End_of_file

  let rec read_line ?deadline c =
    match next_line c with
    | Some line -> line
    | None ->
        receive ?deadline c;
        read_line ?deadline c

  let rec read_exact ?deadline c n =
    if pending c >= n then begin
      let s = Bytes.sub_string c.buf c.pos n in
      c.pos <- c.pos + n;
      s
    end
    else begin
      receive ?deadline c;
      read_exact ?deadline c n
    end

  let request ?timeout c line =
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
    write_all c.fd (line ^ "\n");
    let status = read_line ?deadline c in
    let fail () =
      failwith (Printf.sprintf "Daemon.Client: malformed reply %S" status)
    in
    match String.split_on_char ' ' status with
    | [ "ok"; len ] -> (
        match int_of_string_opt len with
        | Some n ->
            let body = read_exact ?deadline c n in
            ignore (read_exact ?deadline c 1);
            Ok body
        | None -> fail ())
    | [ "err"; code; len ] -> (
        match int_of_string_opt len with
        | Some n ->
            let msg = read_exact ?deadline c n in
            ignore (read_exact ?deadline c 1);
            Error (code, msg)
        | None -> fail ())
    | _ -> fail ()

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end
