(* The control path: a durable daemon in a forked process, driven over
   its Unix socket by one closed-loop connection; and the same request
   script replayed in-process against a journal, with no socket, timing
   each layer the daemon would pass through. *)

open Util
module R = Runtime
module D = R.Daemon

(* --- the daemon over the socket --------------------------------------- *)

(* The daemon process: a fresh, empty router recovered from (and then
   journaling into) [state]. It never returns. *)
let daemon_main kind ~state ~socket =
  let code =
    try
      let backend, stop =
        match kind with
        | Tower.Seq -> (D.backend_of_router (R.Router.create ()), ignore)
        | Tower.Mc ->
            let m = R.Mc_router.create ~domains:1 () in
            (D.backend_of_mc_router m, fun () -> ignore (R.Mc_router.stop m))
      in
      match D.run ~durable:state ~socket backend with
      | Ok _ ->
          stop ();
          0
      | Error msg ->
          prerr_endline ("towerbench daemon: recovery refused: " ^ msg);
          3
    with e ->
      prerr_endline ("towerbench daemon: " ^ Printexc.to_string e);
      4
  in
  Unix._exit code

(* Connect as soon as the daemon listens: 1 ms polls, so recovery time
   is not rounded up to a back-off step. *)
let connect socket =
  let deadline = now_ns () + 60_000_000_000 in
  let rec go () =
    match D.Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ when now_ns () < deadline ->
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let request conn line =
  match D.Client.request ~timeout:60. conn line with
  | r -> r
  | exception D.Client.Timeout -> fail "request %S timed out" line
  | exception End_of_file -> fail "daemon hung up on %S" line

let request_ok conn line =
  match request conn line with
  | Ok body -> body
  | Error (code, msg) -> fail "%S refused (%s): %s" line code msg

type session = {
  setup_s : float;  (** fork, recover, build the device over the socket *)
  lat_ns : int array;  (** per churn request, socket round trip *)
  errors : int;  (** err replies to churn requests *)
  fingerprint : string;  (** after the churn *)
  audit : string;
  recover_s : float;  (** restart until the first fingerprint reply *)
  recovered : string;  (** the restarted daemon's fingerprint *)
}

let session kind (spec : Spec.device) ~(churn : (Spec.req * string) array) =
  with_scratch "ctl" @@ fun dir ->
  let socket = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let child = ref None in
  let start () =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> daemon_main kind ~state ~socket
    | pid -> child := Some pid
  in
  let reap () =
    match !child with
    | None -> ()
    | Some pid -> (
        child := None;
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED n -> fail "daemon exited %d" n
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "daemon died on signal %d" s)
  in
  let shutdown conn =
    ignore (request_ok conn "shutdown");
    D.Client.close conn;
    reap ()
  in
  Fun.protect
    ~finally:(fun () ->
      match !child with
      | Some pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
      | None -> ())
    (fun () ->
      let t0 = now_ns () in
      start ();
      let conn = connect socket in
      List.iter (fun l -> ignore (request_ok conn l)) (Spec.build_lines spec);
      let setup_s = secs_since t0 in
      let lat_ns = Array.make (Array.length churn) 0 in
      let errors = ref 0 in
      Array.iteri
        (fun i (_, line) ->
          let s = now_ns () in
          (match request conn line with Ok _ -> () | Error _ -> incr errors);
          lat_ns.(i) <- now_ns () - s)
        churn;
      let audit = request_ok conn "audit" in
      let fingerprint = request_ok conn "fingerprint" in
      shutdown conn;
      let t2 = now_ns () in
      start ();
      let conn = connect socket in
      let recovered = request_ok conn "fingerprint" in
      let recover_s = secs_since t2 in
      shutdown conn;
      { setup_s; lat_ns; errors = !errors; fingerprint; audit; recover_s; recovered })

(* --- the same script in-process ---------------------------------------- *)

(* The daemon rotates its journal into a checkpoint every 256 accepted
   writes ([Daemon.run]'s default); the replay does the same. *)
let checkpoint_every = 256

type replay = {
  parse_ns : int array;  (** every command line *)
  exec_ns : (Spec.req * int) array;  (** churn commands, by request type *)
  inproc_ns : int array;
      (** per churn request: parse + exec (+ journal append) — the
          in-process share of its socket round trip; 0 for [ping] *)
  append_ns : int array;
  checkpoint_ns : int array;
  fingerprint_ns : int array;
  rotate_ns : int array;
  errors : int;
  final_fingerprint : string;
}

let replay kind (spec : Spec.device) ~(churn : (Spec.req * string) array) =
  with_scratch "journal" @@ fun dir ->
  let d = Tower.create_router kind in
  Fun.protect ~finally:d.Tower.stop @@ fun () ->
  let w =
    R.Journal.start ~dir ~generation:0 ~checkpoint:(d.Tower.checkpoint ())
      ~digest:(d.Tower.fingerprint ())
  in
  let parse = Ints.create () and append = Ints.create () in
  let ck = Ints.create () and fp = Ints.create () and rot = Ints.create () in
  let errors = ref 0 in
  (* one command: parse, execute, journal an accepted write, rotate;
     returns (exec ns, in-process ns) *)
  let one line =
    let t0 = now_ns () in
    let cmd = Spec.parse_exn line in
    let t1 = now_ns () in
    let r = d.Tower.exec cmd in
    let t2 = now_ns () in
    Ints.add parse (t1 - t0);
    let total = ref (t2 - t0) in
    (match r with
    | Error _ -> incr errors
    | Ok _ ->
        if R.Command.is_mutating cmd then begin
          R.Journal.append w ~now:0. cmd;
          let t3 = now_ns () in
          Ints.add append (t3 - t2);
          total := t3 - t0;
          if R.Journal.appended w >= checkpoint_every then begin
            let checkpoint = d.Tower.checkpoint () in
            let t4 = now_ns () in
            let digest = d.Tower.fingerprint () in
            let t5 = now_ns () in
            R.Journal.rotate w ~checkpoint ~digest;
            let t6 = now_ns () in
            Ints.add ck (t4 - t3);
            Ints.add fp (t5 - t4);
            Ints.add rot (t6 - t5);
            total := t6 - t0
          end
        end);
    (t2 - t1, !total)
  in
  List.iter (fun l -> ignore (one l)) (Spec.build_lines spec);
  let exec_ns = Array.make (Array.length churn) (Spec.Ping, 0) in
  let inproc_ns = Array.make (Array.length churn) 0 in
  Array.iteri
    (fun i (k, line) ->
      if k <> Spec.Ping then begin
        let e, t = one line in
        exec_ns.(i) <- (k, e);
        inproc_ns.(i) <- t
      end)
    churn;
  R.Journal.close w;
  {
    parse_ns = Ints.to_array parse;
    exec_ns;
    inproc_ns;
    append_ns = Ints.to_array append;
    checkpoint_ns = Ints.to_array ck;
    fingerprint_ns = Ints.to_array fp;
    rotate_ns = Ints.to_array rot;
    errors = !errors;
    final_fingerprint = d.Tower.fingerprint ();
  }

(* The correctness oracle: the acknowledged script on a plain sequential
   router, nothing timed. *)
let oracle_fingerprint (spec : Spec.device) ~(churn : (Spec.req * string) array) =
  let d = Tower.create_router Tower.Seq in
  let exec line = ignore (d.Tower.exec (Spec.parse_exn line)) in
  List.iter exec (Spec.build_lines spec);
  Array.iter (fun (k, line) -> if k <> Spec.Ping then exec line) churn;
  d.Tower.fingerprint ()
