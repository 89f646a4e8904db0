(* hfsc_sim — command-line front end to the experiment suite, to
   simulations of configuration files, and to the daemon.

     hfsc_sim list                 enumerate the reproduction experiments
     hfsc_sim run E1 E3 ...        run selected experiments (or "all")
     hfsc_sim simulate CONFIG [SCRIPT] [--time S] [--stats-json F]
              [--trace F]
                                   simulate a config (any backend, any
                                   number of links), replaying a timed
                                   command script against it
     hfsc_sim daemon / ctl         serve / drive the control plane on a
                                   Unix-domain socket
     hfsc_sim soak / crash         long-running health and crash harnesses
     hfsc_sim trace-report FILE..  delay histogram of spilled traces
*)

open Cmdliner

let list_cmd =
  let doc = "List the paper-reproduction experiments." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n" e.Experiments.Suite.id
          e.Experiments.Suite.title)
      Experiments.Suite.all;
    print_endline "\nE4 is produced together with E3. Run with: hfsc_sim run <id>...";
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments by id (e.g. E1 E3), or 'all'." in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let run ids =
    if List.exists (fun i -> String.lowercase_ascii i = "all") ids then begin
      Experiments.Suite.run_all ();
      0
    end
    else begin
      let errors = ref 0 in
      List.iter
        (fun id ->
          match Experiments.Suite.find id with
          | Some e -> e.Experiments.Suite.run_and_print ()
          | None ->
              incr errors;
              Printf.eprintf "unknown experiment %S (try 'hfsc_sim list')\n"
                id)
        ids;
      if !errors > 0 then 1 else 0
    end
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ ids)

(* A failed write or close names its file, as a failed open does:
   "PATH: reason". *)
let writing path f =
  try f () with Sys_error e -> raise (Sys_error (path ^ ": " ^ e))

(* The run loop behind 'simulate', over the router's control plane;
   [stats_json] and [trace] are open (path, channel) pairs. *)
let drive ~cfg ~cmds ~seconds ~stats_json ~trace core =
  let module Core = Runtime.Router_core in
  let links = Core.adapters core in
  let link_of_flow = Core.link_of_flow core in
  let index = Hashtbl.create 8 in
  List.iteri (fun i (name, _, _) -> Hashtbl.replace index name i) links;
  let sim =
    Netsim.Sim.create_multi ~links
      ~route:(fun pkt ->
        (* the live flow directory, so flows added or deleted mid-run
           re-route immediately *)
        match link_of_flow pkt.Pkt.Packet.flow with
        | Some name -> Hashtbl.find_opt index name
        | None -> None)
      ()
  in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  let trace =
    Option.map
      (fun (path, oc) -> (path, oc, Netsim.Stats.Csv_trace.attach oc sim))
      trace
  in
  List.iter
    (fun (at, cmd) ->
      Netsim.Sim.at sim at (fun ~now ->
          let cs = Runtime.Command.to_string cmd in
          match Core.exec core ~now cmd with
          | Ok resp ->
              Printf.printf "[%8.3f] ok: %s\n%s" now cs
                (match cmd.Runtime.Command.op with
                | Runtime.Command.Stats _
                | Runtime.Command.Trace Runtime.Command.Trace_dump
                | Runtime.Command.Link_list ->
                    resp ^ "\n"
                | _ -> "")
          | Error e ->
              Printf.printf "[%8.3f] rejected (%s): %s\n           %s\n"
                now
                (Runtime.Engine.error_code_name
                   (Runtime.Engine.error_code e))
                cs
                (Runtime.Engine.error_message e)))
    cmds;
  let sources = cfg.Config.sources ~until:seconds in
  List.iter (Netsim.Sim.add_source sim) sources;
  (* the trace is the one file the run itself writes *)
  (match trace with
  | Some (path, _, _) ->
      writing path (fun () -> Netsim.Sim.run sim ~until:seconds)
  | None -> Netsim.Sim.run sim ~until:seconds);
  let n = Netsim.Sim.n_links sim in
  Printf.printf "\n%.1fs simulated, %d link%s\n" seconds n
    (if n = 1 then "" else "s");
  List.iteri
    (fun i (name, _, _) ->
      Printf.printf
        "  %-12s %8.2f Mb/s wire, utilization %5.1f%%, %.0f bytes sent\n"
        name
        (Netsim.Sim.link_rate ~link:i sim *. 8. /. 1e6)
        (Netsim.Sim.link_utilization sim i *. 100.)
        (Netsim.Sim.link_transmitted_bytes sim i))
    links;
  print_newline ();
  print_string (Core.stats_text core);
  Printf.printf "\n%-8s %-12s %-10s %-12s %s\n" "flow" "link" "delivered"
    "mean delay" "max delay";
  List.iter
    (fun flow ->
      let n, mean, mx =
        match Netsim.Stats.Flow_delay.find delays flow with
        | Some d ->
            ( Netsim.Stats.Delay.count d,
              Printf.sprintf "%.3f ms" (Netsim.Stats.Delay.mean d *. 1e3),
              Printf.sprintf "%.3f ms" (Netsim.Stats.Delay.max d *. 1e3) )
        | None -> (0, "-", "-")
      in
      Printf.printf "%-8d %-12s %-10d %-12s %s\n" flow
        (Option.value ~default:"-" (link_of_flow flow))
        n mean mx)
    (List.sort_uniq compare (List.map Netsim.Source.flow sources));
  (match stats_json with
  | Some (path, oc) ->
      writing path (fun () ->
          output_string oc (Json_lite.to_string (Core.stats_json core));
          close_out oc);
      Printf.printf "\nwrote stats to %s\n" path
  | None -> ());
  (match trace with
  | Some (path, oc, csv) ->
      writing path (fun () -> close_out oc);
      Printf.printf "wrote %d packet records to %s\n"
        (Netsim.Stats.Csv_trace.rows csv)
        path
  | None -> ());
  0

let simulate_cmd =
  let doc =
    "Simulate a configuration file: one engine per link statement (H-FSC \
     or round-robin, strict per-link ownership), driven by the file's \
     sources, and optionally a timed command script replayed against the \
     live control plane — add/modify/delete class, attach/detach filter, \
     link add/delete/list, stats, trace; admission control rejects \
     over-committed curves with the violating breakpoint. Prints each \
     command's outcome, per-link utilization, per-class statistics and \
     per-flow delays. A link created mid-run by 'link add' accepts \
     classes and filters but has no transmitter in this simulation; \
     configure links in the file to give them wires. See \
     examples/fig1.hfsc, examples/control.hfsc with \
     examples/reconfigure.ctl, and examples/router.hfsc with \
     examples/router.ctl."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG")
  in
  let script =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"SCRIPT")
  in
  let seconds =
    Arg.(value & opt float 10. & info [ "time" ] ~docv:"S"
           ~doc:"Simulated seconds.")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"Write final per-link stats (hfsc-router-stats/1) to \
                   $(docv).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a per-packet CSV trace to $(docv).")
  in
  let run file script seconds stats_json trace =
    let refused e =
      Printf.eprintf "%s: %s\n" file e;
      1
    in
    match Config.load file with
    | Error e -> refused e
    | Ok cfg -> (
        let cmds =
          match script with
          | None -> Ok []
          | Some path -> (
              match Runtime.Command.parse_script_file path with
              | Ok cmds -> Ok cmds
              | Error { Runtime.Command.line; reason } ->
                  Printf.eprintf "%s:%d: %s\n" path line reason;
                  Error ())
        in
        match cmds with
        | Error () -> 1
        | Ok cmds -> (
            match Runtime.Router.of_config cfg with
            | Error e -> refused e
            | Ok (router, warnings) ->
                List.iter (Printf.eprintf "warning: %s\n") warnings;
                (* outputs open before the run, so an unwritable path
                   fails at once, as "PATH: reason"; a later failed
                   write or close says the same *)
                let open_output = Option.map (fun p -> (p, open_out_bin p)) in
                try
                  let stats_json = open_output stats_json in
                  let trace = open_output trace in
                  drive ~cfg ~cmds ~seconds ~stats_json ~trace router
                with Sys_error e ->
                  Printf.eprintf "%s\n" e;
                  1))
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ file $ script $ seconds $ stats_json $ trace)

let daemon_cmd =
  let doc =
    "Serve a live control plane on a Unix-domain socket: load a \
     configuration (every link statement becomes a live H-FSC engine) and \
     answer line-oriented requests — the full command grammar plus ping, \
     audit, stats-json, fingerprint, spill start/stop/status (binary \
     trace spill), quit and shutdown. With --state-dir DIR the daemon is \
     crash-safe: accepted commands are write-ahead journaled and \
     checkpointed under DIR, and a restart recovers the configuration \
     exactly (SIGTERM and shutdown fsync the journal first). Talk to it \
     with 'hfsc_sim ctl'."
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"CONFIG")
  in
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket path to listen on.")
  in
  let audit_every =
    Arg.(value & opt int 0
         & info [ "audit-every" ] ~docv:"N"
             ~doc:"Run the invariant auditor every $(docv) operations \
                   (0 disables).")
  in
  let state_dir =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Durable state directory (journal + checkpoints). A \
                   directory that already holds a checkpoint wins over \
                   CONFIG: the recovered state is served and $(docv) \
                   keeps journaling; a fresh directory is seeded from \
                   CONFIG (or empty without one).")
  in
  let run file socket audit_every state_dir =
    let state_has_checkpoint =
      match state_dir with
      | None -> false
      | Some d -> (
          match Sys.readdir d with
          | files ->
              Array.exists
                (fun f -> String.starts_with ~prefix:"checkpoint." f)
                files
          | exception Sys_error _ -> false)
    in
    let cfg =
      match file with
      | None when state_dir = None ->
          Error "daemon: a CONFIG file or --state-dir is required"
      | None -> Ok None
      | Some f when state_has_checkpoint ->
          Printf.eprintf
            "daemon: state directory already holds a checkpoint; ignoring %s\n"
            f;
          Ok None
      | Some f -> (
          match Config.load f with
          | Ok cfg -> Ok (Some (f, cfg))
          | Error e -> Error (Printf.sprintf "%s: %s" f e))
    in
    (* the device is built, and a config admitted, before anything is
       served *)
    let built =
      match cfg with
      | Error e -> Error e
      | Ok None -> Ok (Runtime.Router.create ~audit_every ())
      | Ok (Some (f, c)) -> (
          match Runtime.Router.of_config ~audit_every c with
          | Ok (r, warnings) ->
              List.iter (Printf.eprintf "warning: %s\n") warnings;
              Ok r
          | Error e -> Error (Printf.sprintf "%s: %s" f e))
    in
    match built with
    | Error e ->
        prerr_endline e;
        1
    | Ok router -> (
        Printf.printf "hfsc_sim daemon: listening on %s%s\n%!" socket
          (match state_dir with
          | Some d -> Printf.sprintf ", durable state in %s" d
          | None -> "");
        match
          Runtime.Daemon.run ?durable:state_dir ~socket
            (Runtime.Daemon.backend_of_router router)
        with
        | Ok info ->
            (match info with
            | Some i ->
                Printf.printf
                  "daemon: served generation %d (%d checkpoint + %d journal \
                   commands recovered%s)\n"
                  i.Runtime.Daemon.ri_generation i.Runtime.Daemon.ri_checkpoint
                  i.Runtime.Daemon.ri_tail
                  (if i.Runtime.Daemon.ri_truncated then
                     ", torn journal tail discarded"
                   else "")
            | None -> ());
            print_endline "daemon: shutdown";
            0
        | Error msg ->
            Printf.eprintf "daemon: recovery refused: %s\n" msg;
            1)
  in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(const run $ file $ socket $ audit_every $ state_dir)

let ctl_cmd =
  let doc =
    "Send request lines to a running 'hfsc_sim daemon': each LINE argument \
     (or, with none, each line of standard input) is one request; replies \
     print to standard output, errors as 'error CODE: message'. Exits \
     nonzero if any request was refused."
  in
  let socket =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET")
  in
  let lines = Arg.(value & pos_right 0 string [] & info [] ~docv:"LINE") in
  let run socket lines =
    match Runtime.Daemon.Client.connect socket with
    | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "ctl: %s: %s\n" socket (Unix.error_message err);
        1
    | conn ->
        let errors = ref 0 in
        let send line =
          match Runtime.Daemon.Client.request conn line with
          | Ok body -> if body <> "" then print_endline body
          | Error (code, msg) ->
              incr errors;
              Printf.printf "error %s: %s\n" code msg
          | exception End_of_file ->
              incr errors;
              prerr_endline "ctl: daemon closed the connection"
        in
        (match lines with
        | [] -> (
            try
              while true do
                send (input_line stdin)
              done
            with End_of_file -> ())
        | ls -> List.iter send ls);
        Runtime.Daemon.Client.close conn;
        if !errors > 0 then 1 else 0
  in
  Cmd.v (Cmd.info "ctl" ~doc) Term.(const run $ socket $ lines)

let soak_cmd =
  let doc =
    "Soak the whole operational stack: a multi-link router under \
     Poisson/on-off/CBR load and random fault timelines (rate flaps, \
     outages, bursts, malformed commands), with the invariant auditor \
     armed, binary trace spill running, and a churn client on a second \
     domain driving the live daemon over its real Unix socket. Exits \
     nonzero unless the run is healthy (zero audit failures, traffic \
     flowed, every link spilled trace records)."
  in
  let links =
    Arg.(value & opt int 4 & info [ "links" ] ~docv:"N" ~doc:"Links.")
  in
  let flows =
    Arg.(value & opt int 6
         & info [ "flows" ] ~docv:"N" ~doc:"Flows per link.")
  in
  let seconds =
    Arg.(value & opt float 20. & info [ "time" ] ~docv:"S"
           ~doc:"Simulated seconds.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Seed.") in
  let spill =
    Arg.(value & opt (some string) None
         & info [ "spill" ] ~docv:"PATH"
             ~doc:"Keep the binary trace spill at $(docv) (one file per \
                   link: $(docv).LINK) instead of a removed temp file.")
  in
  let run links flows seconds seed spill =
    if links < 1 || flows < 1 || seconds <= 0. then begin
      prerr_endline "soak: all parameters must be positive";
      1
    end
    else begin
      let report =
        Experiments.Soak.run ~links ~flows_per_link:flows ~seconds ~seed
          ?spill ~log:print_endline ()
      in
      print_string (Experiments.Soak.report_text report);
      match Experiments.Soak.healthy report with
      | Ok () ->
          print_endline "\nsoak: healthy";
          0
      | Error why ->
          Printf.printf "\nsoak: UNHEALTHY: %s\n" why;
          1
    end
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(const run $ links $ flows $ seconds $ seed $ spill)

let crash_cmd =
  let doc =
    "Kill/restart crash soak: run a durable daemon (--state-dir \
     machinery) in a forked child, churn its control plane over the \
     socket, SIGKILL it mid-churn, restart it from the state directory, \
     and require that no acknowledged command is ever lost — the \
     recovered configuration fingerprint must stay bit-identical to a \
     sequential replay oracle. Exits nonzero on the first broken \
     guarantee."
  in
  let links =
    Arg.(value & opt int 2 & info [ "links" ] ~docv:"N" ~doc:"Links.")
  in
  let cycles =
    Arg.(value & opt int 5
         & info [ "cycles" ] ~docv:"N" ~doc:"Kill/restart cycles.")
  in
  let ops =
    Arg.(value & opt int 40
         & info [ "ops" ] ~docv:"N" ~doc:"Churn rounds per cycle.")
  in
  let state_dir =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Keep the journal/checkpoints at $(docv) instead of a \
                   removed temp directory.")
  in
  let run links cycles ops state_dir =
    if links < 1 || cycles < 1 || ops < 1 then begin
      prerr_endline "crash: all parameters must be positive";
      1
    end
    else
      match
        Experiments.Soak.run_crash ~links ~cycles ~ops_per_cycle:ops
          ?state_dir ~log:print_endline ()
      with
      | Ok r ->
          print_string (Experiments.Soak.crash_report_text r);
          print_endline "crash soak: healthy";
          0
      | Error why ->
          Printf.printf "crash soak: FAILED: %s\n" why;
          1
  in
  Cmd.v (Cmd.info "crash" ~doc)
    Term.(const run $ links $ cycles $ ops $ state_dir)

let trace_report_cmd =
  let doc =
    "Aggregate spilled binary traces (see 'spill start' in the daemon, or \
     'hfsc_sim soak --spill') into the in-scheduler delay histogram: \
     each dequeue paired with its enqueue by (flow, seq), bucketed on a \
     log scale, real-time and link-sharing service counted separately."
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE")
  in
  let run files =
    let hist = Runtime.Trace_log.Histogram.create () in
    let errors = ref 0 in
    List.iter
      (fun file ->
        match Runtime.Trace_log.Histogram.feed_file hist file with
        | Ok () -> ()
        | Error e ->
            incr errors;
            Printf.eprintf "%s: %s\n" file e)
      files;
    print_string (Runtime.Trace_log.Histogram.to_text hist);
    if !errors > 0 then 1 else 0
  in
  Cmd.v (Cmd.info "trace-report" ~doc) Term.(const run $ files)

let () =
  let doc =
    "Reproduction of the H-FSC scheduler (Stoica, Zhang, Ng): experiments, \
     simulations of configuration files, and an operable daemon."
  in
  let info = Cmd.info "hfsc_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; simulate_cmd; daemon_cmd; ctl_cmd; soak_cmd;
            crash_cmd; trace_report_cmd ]))
