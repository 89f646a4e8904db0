(* Every committed example must stay loadable: each examples/*.hfsc
   builds a device — its commands all admitted, every link with
   classes — and each examples/*.ctl parses as a control script. Guards
   the documentation against drifting from the grammar. *)

let examples_dir = "../examples"

let files_with ext =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.sort compare
  |> List.map (Filename.concat examples_dir)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* An example's configuration and the router it builds. *)
let load ?audit_every name =
  let path = Filename.concat examples_dir name in
  match Config.load path with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok cfg -> (
      match Runtime.Router.of_config ?audit_every cfg with
      | Ok (router, _warnings) -> (cfg, router)
      | Error e -> Alcotest.failf "%s: %s" path e)

let sole_engine router =
  match Runtime.Router.links router with
  | [ (_, eng) ] -> eng
  | ls -> Alcotest.failf "expected one link, got %d" (List.length ls)

let test_configs_parse () =
  let configs = files_with ".hfsc" in
  Alcotest.(check bool) "at least one example config" true (configs <> []);
  List.iter
    (fun path ->
      let _, router = load (Filename.basename path) in
      List.iter
        (fun (name, eng) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s link %s has classes" path name)
            true
            (List.length
               (Runtime.Backend.class_ids (Runtime.Engine.backend eng))
             > 1))
        (Runtime.Router.links router))
    configs

let test_scripts_parse () =
  let scripts = files_with ".ctl" in
  Alcotest.(check bool) "at least one example script" true (scripts <> []);
  List.iter
    (fun path ->
      match Runtime.Command.parse_script (read_file path) with
      | Ok cmds ->
          Alcotest.(check bool) (path ^ " has commands") true (cmds <> [])
      | Error { Runtime.Command.line; reason } ->
          Alcotest.failf "%s:%d: %s" path line reason)
    scripts

(* The shipped pair must actually replay: every command in
   reconfigure.ctl resolves against the control.hfsc hierarchy — adds
   and modifies succeed, and the two deliberate over-commitments are
   rejected by admission control with a breakpoint report. *)
let test_shipped_pair_replays () =
  let cmds =
    match
      Runtime.Command.parse_script
        (read_file (Filename.concat examples_dir "reconfigure.ctl"))
    with
    | Ok c -> c
    | Error { Runtime.Command.line; reason } ->
        Alcotest.failf "reconfigure.ctl:%d: %s" line reason
  in
  let router = snd (load "control.hfsc") in
  (* the script deliberately includes over-commits that must be
     rejected without stopping the replay: lenient mode *)
  let outcomes = Runtime.Router.exec_script ~lenient:true router cmds in
  let rejected =
    List.filter_map
      (function
        | _, _, Error e -> Some (Runtime.Engine.error_message e) | _ -> None)
      outcomes
  in
  Alcotest.(check int) "exactly the two over-commits rejected" 2
    (List.length rejected);
  List.iter
    (fun e ->
      Alcotest.(check bool) "rejection names the violation" true
        (String.length e > 0
        && (let has s =
              let lh = String.length e and ln = String.length s in
              let rec go i =
                i + ln <= lh && (String.sub e i ln = s || go (i + 1))
              in
              go 0
            in
            has "breakpoint" || has "asymptotically")))
    rejected

(* The overload pair must actually degrade gracefully: driving the
   shipped 4x-overload workload through the engine while overload.ctl
   tightens the limits live must leave the backlog bounded by the
   tightened limits, with the excess showing up as counted drops in
   telemetry, the one hostile line rejected, and the auditor clean. *)
let test_overload_degrades () =
  let cmds =
    match
      Runtime.Command.parse_script
        (read_file (Filename.concat examples_dir "overload.ctl"))
    with
    | Ok c -> c
    | Error { Runtime.Command.line; reason } ->
        Alcotest.failf "overload.ctl:%d: %s" line reason
  in
  let cfg, router = load ~audit_every:256 "overload.hfsc" in
  let eng = sole_engine router in
  let sched = Runtime.Engine.scheduler eng in
  let sim =
    Netsim.Sim.create ~link_rate:(Runtime.Engine.link_rate eng)
      ~sched:(Runtime.Engine.adapter eng) ()
  in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  List.iter (Netsim.Sim.add_source sim) (cfg.Config.sources ~until:3.0);
  let rejected = ref [] in
  List.iter
    (fun (at, cmd) ->
      Netsim.Sim.at sim at (fun ~now ->
          match Runtime.Engine.exec eng ~now cmd with
          | Ok _ -> ()
          | Error e -> rejected := e :: !rejected))
    cmds;
  Netsim.Sim.run sim ~until:3.0;
  (* backlog bounded by the limits the script tightened to *)
  Alcotest.(check bool)
    (Printf.sprintf "backlog %d pkts within the aggregate bound"
       (Hfsc.backlog_pkts sched))
    true
    (Hfsc.backlog_pkts sched <= 60);
  Alcotest.(check bool) "backlog within the aggregate byte bound" true
    (Hfsc.backlog_bytes sched <= 120_000);
  (match Runtime.Engine.flow_class eng 2 with
  | Some web ->
      Alcotest.(check bool) "web within its tightened qlimit" true
        (Runtime.Backend.queue_length (Runtime.Engine.backend eng) web <= 25)
  | None -> Alcotest.fail "flow 2 unmapped");
  (* the shed load is visible as telemetry drops *)
  let snap = Runtime.Engine.snapshot eng in
  let drops =
    List.fold_left
      (fun acc c ->
        if Hfsc.is_leaf c then
          match Runtime.Telemetry.snapshot_counters snap ~id:(Hfsc.id c) with
          | Some cnt -> acc + cnt.Runtime.Telemetry.drop_pkts
          | None -> acc
        else acc)
      0 (Hfsc.classes sched)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d drops counted" drops)
    true (drops > 0);
  (* exactly the hostile line is rejected, as a structural refusal *)
  (match !rejected with
  | [ e ] ->
      Alcotest.(check string) "structural rejection" "structural"
        (Runtime.Engine.error_code_name (Runtime.Engine.error_code e))
  | l -> Alcotest.failf "expected 1 rejection, got %d" (List.length l));
  (* the link kept moving and the real-time class kept its guarantee *)
  Alcotest.(check bool) "link transmitted" true
    (Netsim.Sim.transmitted_bytes sim > 0.);
  (match Netsim.Stats.Flow_delay.find delays 1 with
  | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "voice max delay %.4fs under overload"
           (Netsim.Stats.Delay.max d))
        true
        (Netsim.Stats.Delay.max d < 0.05)
  | None -> Alcotest.fail "voice never completed a packet");
  Alcotest.(check (list string)) "auditor clean" [] (Runtime.Engine.audit eng)

(* The shipped router pair must actually replay: router.hfsc builds a
   two-link device, and router.ctl's scoped commands resolve against it
   with exactly the two deliberate violations rejected — one cross-link
   filter, one link-share over-commitment — each with its typed code. *)
let test_router_pair_replays () =
  let _, router = load ~audit_every:16 "router.hfsc" in
  Alcotest.(check int) "two links configured" 2
    (Runtime.Router.link_count router);
  let cmds =
    match
      Runtime.Command.parse_script_file
        (Filename.concat examples_dir "router.ctl")
    with
    | Ok c -> c
    | Error { Runtime.Command.line; reason } ->
        Alcotest.failf "router.ctl:%d: %s" line reason
  in
  let outcomes = Runtime.Router.exec_script ~lenient:true router cmds in
  let rejected =
    List.filter_map
      (function
        | _, _, Error e ->
            Some
              (Runtime.Engine.error_code_name (Runtime.Engine.error_code e))
        | _ -> None)
      outcomes
  in
  Alcotest.(check (list string))
    "exactly the two designed rejections, in script order"
    [ "cross-link-filter"; "admission-linkshare" ]
    rejected;
  Alcotest.(check (list string)) "auditor clean" []
    (Runtime.Router.audit router)

(* Script errors must attribute to the script file and its line, not to
   the caller's context: parse_script_file carries the 1-based line of
   the offending statement, and an unreadable path reports line 0. *)
let test_script_file_attribution () =
  let path = Filename.temp_file "hfsc_bad_script" ".ctl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "stats\n\nat 0.5 trace dump\nadd class oops\n";
      close_out oc;
      match Runtime.Command.parse_script_file path with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error { Runtime.Command.line; reason } ->
          Alcotest.(check int) "error names the script file line" 4 line;
          Alcotest.(check bool) "reason mentions the parse failure" true
            (String.length reason > 0));
  match Runtime.Command.parse_script_file "/nonexistent/no_such.ctl" with
  | Ok _ -> Alcotest.fail "expected a load error"
  | Error { Runtime.Command.line; _ } ->
      Alcotest.(check int) "unreadable file reports line 0" 0 line

(* E14 (reconfiguration transients) is not just a printed figure: the
   real-time class's bound must hold in all three windows, every
   mid-run command must be accepted, and the qlimit squeeze must have
   produced real drops on the backlogged sibling — otherwise the
   experiment silently measured an idle scheduler. *)
let test_e14_transient () =
  let r = Experiments.E14_transient.run () in
  let open Experiments.E14_transient in
  Alcotest.(check int) "all mid-run commands accepted" 4 r.commands_ok;
  Alcotest.(check bool) "sibling really dropped packets" true
    (r.data_drops_during > 0);
  let within name d =
    if d > r.bound then
      Alcotest.failf "%s window: %.6f s exceeds the %.6f s bound" name d
        r.bound;
    if d <= 0. then Alcotest.failf "%s window saw no audio packets" name
  in
  within "before" r.before_max;
  within "during" r.during_max;
  within "after" r.after_max

let () =
  Alcotest.run "examples"
    [
      ( "examples",
        [
          Alcotest.test_case "configs parse" `Quick test_configs_parse;
          Alcotest.test_case "scripts parse" `Quick test_scripts_parse;
          Alcotest.test_case "shipped pair replays" `Quick
            test_shipped_pair_replays;
          Alcotest.test_case "overload degrades gracefully" `Quick
            test_overload_degrades;
          Alcotest.test_case "router pair replays" `Quick
            test_router_pair_replays;
          Alcotest.test_case "script file attribution" `Quick
            test_script_file_attribution;
          Alcotest.test_case "E14 reconfiguration transient" `Quick
            test_e14_transient;
        ] );
    ]
