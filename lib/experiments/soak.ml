(* The soak harness. One run = one serving domain (simulator + daemon +
   engines) and one churn-client domain connected over the real Unix
   socket. See soak.mli for the architecture contract. *)

module Command = Runtime.Command
module Engine = Runtime.Engine
module Router = Runtime.Router
module Router_core = Runtime.Router_core
module Daemon = Runtime.Daemon
module Journal = Runtime.Journal
module Trace_log = Runtime.Trace_log

type report = {
  sk_links : int;
  sk_flows : int;
  sk_seconds : float;
  sk_departures : int;
  sk_enqueue_drops : int;
  sk_fault_events : int;
  sk_requests : int;
  sk_ok : int;
  sk_err : int;
  sk_audit_checks : int;
  sk_audit_failures : int;
  sk_spilled : (string * int * int) list;
  sk_histogram : Trace_log.Histogram.t;
}

(* 100 Mb/s per link: enough that even the runtest-sized slice pushes
   thousands of packets through every link, and the CLI-sized run
   reaches the millions. *)
let link_rate = 1.25e7

let link_name i = Printf.sprintf "l%d" i

(* Multi-link runs make their last link an rr backend, so the soak and
   crash harnesses drive a heterogeneous device — hfsc and round-robin
   links behind one daemon, one journal, one replay oracle. *)
let rr_link ~links i = links > 1 && i = links - 1

(* What the churn client does, on its own domain. Everything it touches
   is local; it reports back by returning its counters through
   Domain.join. [sim_finished] and [abort] are the only shared state. *)
type churn_counters = {
  mutable cc_requests : int;
  mutable cc_ok : int;
  mutable cc_err : int;
  mutable cc_audit_checks : int;
  mutable cc_audit_failures : int;
}

let count_lines s =
  if s = "" then 0
  else 1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

let churn ~socket ~spill ~links ~sim_finished c =
  let conn =
    (* the daemon binds before the domain is spawned, but be tolerant
       of a slow scheduler anyway *)
    let rec go tries =
      match Daemon.Client.connect socket with
      | conn -> conn
      | exception Unix.Unix_error _ when tries > 0 ->
          Unix.sleepf 0.01;
          go (tries - 1)
    in
    go 100
  in
  let req line =
    c.cc_requests <- c.cc_requests + 1;
    match Daemon.Client.request conn line with
    | Ok body ->
        c.cc_ok <- c.cc_ok + 1;
        body
    | Error (_code, msg) ->
        c.cc_err <- c.cc_err + 1;
        msg
  in
  let audit () =
    c.cc_audit_checks <- c.cc_audit_checks + 1;
    c.cc_requests <- c.cc_requests + 1;
    match Daemon.Client.request conn "audit" with
    | Ok _ -> c.cc_ok <- c.cc_ok + 1
    | Error (_, msg) ->
        c.cc_err <- c.cc_err + 1;
        c.cc_audit_failures <- c.cc_audit_failures + count_lines msg
  in
  ignore (req "ping");
  ignore (req ("spill start " ^ spill));
  let round = ref 0 in
  while not (Atomic.get sim_finished) do
    let r = !round in
    incr round;
    let li = r mod links in
    let l = link_name li in
    let cls = Printf.sprintf "churn%d" li in
    (* one add/modify/inspect/delete cycle through the full grammar —
       curves on hfsc links, a quantum on the rr link *)
    ignore
      (req
         (if rr_link ~links li then
            Printf.sprintf
              "link %s add class %s parent root quantum 3000 qlimit 32" l cls
          else
            Printf.sprintf
              "link %s add class %s parent root fsc 8Kbit qlimit 32" l cls));
    ignore (req (Printf.sprintf "link %s stats %s" l cls));
    ignore
      (req
         (if rr_link ~links li then
            Printf.sprintf "link %s modify class %s quantum 6000" l cls
          else Printf.sprintf "link %s modify class %s fsc 16Kbit" l cls));
    if r mod 5 = 0 then ignore (req "stats");
    if r mod 7 = 3 then ignore (req "spill status");
    if r mod 11 = 5 then begin
      (* deliberate operator error: must come back as a typed err,
         never disturb the device *)
      ignore (req "add class oops parent nowhere fsc 1Kbit");
      ignore (req "definitely not a command")
    end;
    audit ();
    ignore (req (Printf.sprintf "link %s delete class %s" l cls))
  done;
  let totals = req "spill stop" in
  audit ();
  ignore (req "shutdown");
  Daemon.Client.close conn;
  totals

let run ?(links = 3) ?(flows_per_link = 4) ?(seconds = 1.0) ?(seed = 7)
    ?socket ?spill ?(audit_every = 4096) ?(log = ignore) () =
  if links < 1 || flows_per_link < 1 then
    invalid_arg "Soak.run: links and flows_per_link must be >= 1";
  let temp tag suffix =
    let p = Filename.temp_file tag suffix in
    Sys.remove p;
    p
  in
  let socket_owned = socket = None in
  let spill_owned = spill = None in
  let socket =
    match socket with Some s -> s | None -> temp "hfsc_soak" ".sock"
  in
  let spill = match spill with Some s -> s | None -> temp "hfsc_soak" ".trace" in

  (* --- the device under test ---------------------------------------- *)
  let core = Router.create ~audit_every () in
  let backend = Daemon.backend_of_router core in
  let exec ~now cmd =
    match Router_core.exec core ~now cmd with
    | Ok _ -> ()
    | Error e ->
        failwith
          (Printf.sprintf "soak setup rejected: %s" (Engine.error_message e))
  in
  for i = 0 to links - 1 do
    exec ~now:0.
      { Command.target = Command.Default_link;
        op =
          Command.Link_add
            {
              link = link_name i;
              rate = link_rate;
              backend =
                (if rr_link ~links i then Runtime.Backend.Rr_kind
                 else Runtime.Backend.Hfsc_kind);
            } }
  done;
  (* permanent leaves: 80% of each link committed to fair shares (the
     churn classes live in the remaining 20%), every third flow also
     under a real-time guarantee *)
  let share = 0.8 *. link_rate /. float_of_int flows_per_link in
  let flow_id i f = (i * flows_per_link) + f + 1 in
  for i = 0 to links - 1 do
    for f = 0 to flows_per_link - 1 do
      let curves, quantum =
        if rr_link ~links i then
          (* an rr leaf's share is its quantum, not a curve *)
          ({ Command.rsc = None; fsc = None; usc = None }, Some 1500)
        else
          let rsc =
            if f mod 3 = 0 then
              Some
                (Curve.Service_curve.of_requirements ~umax:1500. ~dmax:0.02
                   ~rate:(0.4 *. share))
            else None
          in
          ( { Command.rsc;
              fsc = Some (Curve.Service_curve.linear share);
              usc = None },
            None )
      in
      exec ~now:0.
        { Command.target = Command.On_link (link_name i);
          op =
            Command.Add_class
              {
                name = Printf.sprintf "leaf%d" f;
                parent = "root";
                flow = Some (flow_id i f);
                curves;
                quantum;
                qlimit = Some 256;
                qbytes = None;
              } }
    done
  done;

  (* --- the simulation ------------------------------------------------ *)
  let link_index = Hashtbl.create 8 in
  for i = 0 to links - 1 do
    Hashtbl.replace link_index (link_name i) i
  done;
  let sim =
    Netsim.Sim.create_multi ~links:(Router_core.adapters core)
      ~route:(fun pkt ->
        match Router_core.link_of_flow core pkt.Pkt.Packet.flow with
        | Some name -> Hashtbl.find_opt link_index name
        | None -> None)
      ()
  in
  let departures = ref 0 in
  Netsim.Sim.on_departure sim (fun ~now:_ _ -> incr departures);
  for i = 0 to links - 1 do
    for f = 0 to flows_per_link - 1 do
      let flow = flow_id i f in
      let src =
        match f mod 3 with
        | 0 ->
            Netsim.Source.cbr ~flow ~rate:(0.35 *. share) ~pkt_size:300
              ~stop:seconds ()
        | 1 ->
            Netsim.Source.poisson ~flow ~rate:(0.9 *. share) ~pkt_size:400
              ~seed:(seed + (97 * flow)) ~stop:seconds ()
        | _ ->
            Netsim.Source.on_off_exp ~flow ~peak_rate:(2.0 *. share)
              ~pkt_size:600 ~mean_on:(seconds /. 8.)
              ~mean_off:(seconds /. 10.) ~seed:(seed + (131 * flow))
              ~stop:seconds ()
      in
      Netsim.Sim.add_source sim src
    done
  done;
  (* one fault timeline per link: rate flaps, outages, bursts on that
     link's flows, malformed control lines into the live backend *)
  let fault_events = ref 0 in
  for i = 0 to links - 1 do
    let timeline =
      Netsim.Faults.random_timeline ~seed:(seed + i) ~horizon:seconds
        ~link_rate
        ~flows:(List.init flows_per_link (flow_id i))
    in
    fault_events := !fault_events + List.length timeline;
    Netsim.Faults.schedule ~link:i sim timeline
      ~on_command:(fun ~now line ->
        match Command.parse line with
        | Error _ -> ()
        | Ok cmd -> ignore (Router_core.exec core ~now cmd))
  done;

  (* --- daemon + churn client ----------------------------------------- *)
  let daemon =
    Daemon.create ~clock:(fun () -> Netsim.Sim.now sim) ~socket backend
  in
  let sim_finished = Atomic.make false in
  let client_done = Atomic.make false in
  let abort = Atomic.make false in
  let counters =
    {
      cc_requests = 0;
      cc_ok = 0;
      cc_err = 0;
      cc_audit_checks = 0;
      cc_audit_failures = 0;
    }
  in
  let client =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set client_done true)
          (fun () ->
            try Some (churn ~socket ~spill ~links ~sim_finished counters)
            with e when Atomic.get abort ->
              (* the serving domain died first; its exception is the
                 one worth reporting, not our broken socket *)
              ignore e;
              None))
  in
  let slice = seconds /. 100. in
  let idle () =
    if not (Atomic.get sim_finished) then begin
      let next = min seconds (Netsim.Sim.now sim +. slice) in
      Netsim.Sim.run sim ~until:next;
      if next >= seconds then begin
        (* horizon reached: let the queues drain, then tell the client *)
        Netsim.Sim.run_until_idle sim ~max_time:(seconds +. 60.);
        Atomic.set sim_finished true;
        log
          (Printf.sprintf "sim done: %d departures, %d enqueue drops"
             !departures (Netsim.Sim.enqueue_drops sim))
      end
    end;
    not (Atomic.get client_done)
  in
  let spill_totals =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set abort true;
        Atomic.set sim_finished true;
        (* serve's own protect already closed the socket, so a client
           still in flight unblocks with EOF and bails out via [abort] *)
        ignore (Domain.join client))
      (fun () ->
        Daemon.serve ~idle daemon;
        Daemon.spill_totals daemon)
  in
  log
    (Printf.sprintf "client: %d requests (%d ok, %d err), %d audits"
       counters.cc_requests counters.cc_ok counters.cc_err
       counters.cc_audit_checks);

  (* --- offline aggregation over the spilled binary traces ------------ *)
  let hist = Trace_log.Histogram.create () in
  let spill_files =
    match spill_totals with
    | [ _ ] -> [ spill ]
    | many -> List.map (fun (l, _, _) -> spill ^ "." ^ l) many
  in
  List.iter
    (fun file ->
      match Trace_log.Histogram.feed_file hist file with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "soak: reading %s: %s" file e))
    spill_files;
  if spill_owned then List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) spill_files;
  if socket_owned then (try Sys.remove socket with Sys_error _ -> ());
  {
    sk_links = links;
    sk_flows = links * flows_per_link;
    sk_seconds = seconds;
    sk_departures = !departures;
    sk_enqueue_drops = Netsim.Sim.enqueue_drops sim;
    sk_fault_events = !fault_events;
    sk_requests = counters.cc_requests;
    sk_ok = counters.cc_ok;
    sk_err = counters.cc_err;
    sk_audit_checks = counters.cc_audit_checks;
    sk_audit_failures = counters.cc_audit_failures;
    sk_spilled = spill_totals;
    sk_histogram = hist;
  }

let report_text r =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "soak: %d links x %d flows, %.1fs simulated\n" r.sk_links
    (if r.sk_links = 0 then 0 else r.sk_flows / r.sk_links)
    r.sk_seconds;
  Printf.bprintf b "  packets:  %d delivered, %d enqueue drops\n"
    r.sk_departures r.sk_enqueue_drops;
  Printf.bprintf b "  faults:   %d timeline events\n" r.sk_fault_events;
  Printf.bprintf b
    "  control:  %d socket requests (%d ok, %d err), %d audits, %d failures\n"
    r.sk_requests r.sk_ok r.sk_err r.sk_audit_checks r.sk_audit_failures;
  List.iter
    (fun (l, written, lost) ->
      Printf.bprintf b "  spill:    link %S %d records (%d lost)\n" l written
        lost)
    r.sk_spilled;
  Printf.bprintf b "\n%s" (Trace_log.Histogram.to_text r.sk_histogram);
  Buffer.contents b

(* --- the kill/restart crash soak -------------------------------------- *)

type crash_report = {
  cr_cycles : int;
  cr_kills : int;
  cr_commands : int;
  cr_rotations : int list;
  cr_fingerprint : string;
  cr_oracle : string;
}

exception Crash_failure of string

let crash_fail fmt = Printf.ksprintf (fun s -> raise (Crash_failure s)) fmt

(* The daemon side of one crash cycle, in a forked child. OCaml will not
   fork a process that has spawned a domain, so the parent stays
   domain-free until all children are reaped. *)
let crash_child ~audit_every ~state_dir ~socket () =
  let code =
    try
      let backend = Daemon.backend_of_router (Router.create ~audit_every ()) in
      match Daemon.run ~durable:state_dir ~checkpoint_every:8 ~socket backend with
      | Ok _ -> 0
      | Error msg ->
          prerr_endline ("crash child: recovery refused: " ^ msg);
          3
    with e ->
      prerr_endline ("crash child: " ^ Printexc.to_string e);
      4
  in
  (* never run the parent's at_exit machinery from the child *)
  Unix._exit code

(* Deterministic churn for cycle [c]: every line carries an [at] stamp,
   so the sequential replay oracle sees the exact same timeline. The
   class population grows, shrinks and mutates so consecutive cycles
   leave genuinely different configurations behind. A cycle first
   retires the classes the previous one left, so the configuration —
   and the checkpoint a journal must outweigh before it rotates — stays
   one cycle's size however many cycles run, and every cycle rotates. *)
let crash_lines ~links ~cycle ~ops =
  let k = ref 0 in
  let out = ref [] in
  let stamp fmt =
    Printf.ksprintf
      (fun line ->
        out :=
          Printf.sprintf "at %g %s" ((float_of_int cycle *. 64.) +. (float_of_int !k *. 0.25)) line
          :: !out;
        incr k)
      fmt
  in
  if cycle = 0 then
    for i = 0 to links - 1 do
      if rr_link ~links i then
        stamp "link add %s rate 100Mbit backend rr" (link_name i)
      else stamp "link add %s rate 100Mbit" (link_name i)
    done
  else
    for j = 0 to ops - 1 do
      if j mod 3 <> 0 then
        stamp "link %s delete class c%d_%d" (link_name (j mod links)) (cycle - 1)
          j
    done;
  for j = 0 to ops - 1 do
    let li = j mod links in
    let l = link_name li in
    let cls = Printf.sprintf "c%d_%d" cycle j in
    if rr_link ~links li then begin
      stamp "link %s add class %s parent root quantum 2000 qlimit 32" l cls;
      if j mod 2 = 0 then
        stamp "link %s modify class %s quantum 4000 qlimit 64" l cls
    end
    else begin
      stamp "link %s add class %s parent root fsc 8Kbit qlimit 32" l cls;
      if j mod 2 = 0 then
        stamp "link %s modify class %s fsc 16Kbit qlimit 64" l cls
    end;
    if j mod 3 = 0 then stamp "link %s delete class %s" l cls
  done;
  List.rev !out

let run_crash ?(links = 2) ?(cycles = 3) ?(ops_per_cycle = 12) ?state_dir
    ?socket ?(log = ignore) () =
  if links < 1 || cycles < 1 || ops_per_cycle < 1 then
    invalid_arg "Soak.run_crash: all parameters must be >= 1";
  let temp tag suffix =
    let p = Filename.temp_file tag suffix in
    Sys.remove p;
    p
  in
  let state_owned = state_dir = None in
  let socket_owned = socket = None in
  let state_dir =
    match state_dir with Some d -> d | None -> temp "hfsc_crash" ".state"
  in
  let socket = match socket with Some s -> s | None -> temp "hfsc_crash" ".sock" in
  let accepted = ref [] (* acked mutating lines, newest first *) in
  let kills = ref 0 in
  let child = ref None in
  let spawn () =
    (* the child inherits these buffers; anything unflushed could be
       written twice *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> crash_child ~audit_every:512 ~state_dir ~socket ()
    | pid ->
        child := Some pid;
        pid
  in
  let reap pid =
    child := None;
    snd (Unix.waitpid [] pid)
  in
  let request conn line =
    match Daemon.Client.request ~timeout:10. conn line with
    | reply -> reply
    | exception Daemon.Client.Timeout -> crash_fail "request %S timed out" line
    | exception End_of_file -> crash_fail "daemon hung up on %S" line
  in
  let fingerprint conn =
    match request conn "fingerprint" with
    | Ok fp -> fp
    | Error (code, msg) -> crash_fail "fingerprint refused (%s): %s" code msg
  in
  let last_fp = ref None in
  let rotations = ref [] (* per churn cycle, newest first *) in
  let newest_generation () =
    match Journal.recover ~dir:state_dir with
    | Ok r -> r.Journal.r_generation
    | Error e ->
        crash_fail "state directory unreadable: %s" (Journal.corruption_text e)
  in
  (* one daemon lifetime: start, verify recovery, churn (unless [ops] is
     0 — the final clean-restart check), audit, remember the
     fingerprint, then die by [how] *)
  let cycle ~c ~ops ~how =
    let gen0 = newest_generation () in
    let pid = spawn () in
    let conn = Daemon.Client.connect ~retries:400 ~backoff:0.005 socket in
    Fun.protect
      ~finally:(fun () -> Daemon.Client.close conn)
      (fun () ->
        (match !last_fp with
        | Some expect ->
            let got = fingerprint conn in
            if got <> expect then
              crash_fail
                "cycle %d: recovery lost state: fingerprint %s, expected %s" c
                got expect
        | None -> ());
        if ops > 0 then
          List.iter
            (fun line ->
              match request conn line with
              | Ok _ -> accepted := line :: !accepted
              | Error (code, msg) ->
                  crash_fail "cycle %d: %S refused (%s): %s" c line code msg)
            (crash_lines ~links ~cycle:c ~ops);
        (match request conn "audit" with
        | Ok _ -> ()
        | Error (_, msg) -> crash_fail "cycle %d: audit failed:\n%s" c msg);
        last_fp := Some (fingerprint conn);
        match how with
        | `Kill ->
            (* SIGKILL mid-churn: no flush, no close, a dirty journal *)
            Unix.kill pid Sys.sigkill;
            incr kills
        | `Shutdown -> (
            match request conn "shutdown" with
            | Ok _ -> ()
            | Error (code, msg) ->
                crash_fail "cycle %d: shutdown refused (%s): %s" c code msg)
        | `Sigterm -> Unix.kill pid Sys.sigterm);
    (match (how, reap pid) with
    | `Kill, Unix.WSIGNALED s when s = Sys.sigkill -> ()
    | (`Shutdown | `Sigterm), Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n -> crash_fail "cycle %d: daemon exited %d" c n
    | _, Unix.WSIGNALED s -> crash_fail "cycle %d: daemon died on signal %d" c s
    | _, Unix.WSTOPPED s -> crash_fail "cycle %d: daemon stopped on signal %d" c s);
    (* recovery starts generation gen0 + 1; every generation past that
       is a rotate. A churn cycle without one would leave the rotate
       window (checkpoint renamed, journal not yet reopened, old
       generation not yet deleted) untested under SIGKILL. *)
    let rotated = newest_generation () - gen0 - 1 in
    if ops > 0 then begin
      if rotated < 1 then
        crash_fail "cycle %d: the journal never rotated (generation %d)" c
          (gen0 + 1);
      rotations := rotated :: !rotations
    end;
    log
      (Printf.sprintf "cycle %d: %d commands acknowledged, %d rotation%s, %s" c
         (List.length !accepted) rotated
         (if rotated = 1 then "" else "s")
         (match how with
         | `Kill -> "SIGKILLed"
         | `Shutdown -> "clean shutdown"
         | `Sigterm -> "SIGTERM"))
  in
  let cleanup () =
    (match !child with
    | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (try reap pid with Unix.Unix_error _ -> Unix.WEXITED 0)
    | None -> ());
    if state_owned then begin
      (match Sys.readdir state_dir with
      | files ->
          Array.iter
            (fun f ->
              try Sys.remove (Filename.concat state_dir f) with Sys_error _ -> ())
            files
      | exception Sys_error _ -> ());
      try Unix.rmdir state_dir with Unix.Unix_error _ -> ()
    end;
    if socket_owned then try Sys.remove socket with Sys_error _ -> ()
  in
  match
    Fun.protect ~finally:cleanup (fun () ->
        for c = 0 to cycles - 1 do
          cycle ~c ~ops:ops_per_cycle
            ~how:(if c < cycles - 1 then `Kill else `Shutdown)
        done;
        (* a clean journal must recover bit-identically too; stop this
           one with SIGTERM so the signal-driven graceful path is the
           one being proven *)
        cycle ~c:cycles ~ops:0 ~how:`Sigterm;
        let final_fp =
          match !last_fp with Some fp -> fp | None -> assert false
        in
        (* the oracle: replay every acknowledged command, in order, into
           a fresh sequential router on this process — no daemon, no
           journal, no crash — and compare configurations *)
        let script = String.concat "\n" (List.rev !accepted) in
        let oracle = Router.create () in
        (match Command.parse_script script with
        | Error { Command.line; reason } ->
            crash_fail "oracle: accepted line %d unparseable: %s" line reason
        | Ok cmds ->
            List.iter
              (fun (at, cmd) ->
                match Router.exec oracle ~now:at cmd with
                | Ok _ -> ()
                | Error e ->
                    crash_fail "oracle refused an acknowledged command: %s"
                      (Engine.error_message e))
              cmds);
        let oracle_fp = Router.config_fingerprint oracle in
        if oracle_fp <> final_fp then
          crash_fail
            "recovered fingerprint %s differs from sequential replay oracle %s"
            final_fp oracle_fp;
        {
          cr_cycles = cycles;
          cr_kills = !kills;
          cr_commands = List.length !accepted;
          cr_rotations = List.rev !rotations;
          cr_fingerprint = final_fp;
          cr_oracle = oracle_fp;
        })
  with
  | report -> Ok report
  | exception Crash_failure msg -> Error msg

let crash_report_text r =
  Printf.sprintf
    "crash soak: %d cycles (%d SIGKILLs)\n\
    \  %d commands acknowledged and recovered\n\
    \  journal rotations per cycle: %s\n\
    \  fingerprint %s == sequential oracle\n"
    r.cr_cycles r.cr_kills r.cr_commands
    (String.concat " " (List.map string_of_int r.cr_rotations))
    r.cr_fingerprint

let healthy r =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (r.sk_audit_failures = 0) "audit failures > 0" in
  let* () = check (r.sk_audit_checks > 0) "no audit ever ran" in
  let* () = check (r.sk_departures > 0) "no packet was delivered" in
  let* () =
    check
      (r.sk_spilled <> []
      && List.for_all (fun (_, written, _) -> written > 0) r.sk_spilled)
      "a link spilled no trace records"
  in
  check
    (Trace_log.Histogram.samples r.sk_histogram > 0)
    "histogram aggregated no delay samples"
