(* Tests for the multi-link router (lib/runtime/router): the migration
   guarantee (a one-link router is bit-identical to a bare engine under
   a fuzzed op stream), strict per-link state isolation (deleting a
   link, or faulting its wire, leaves the other links' observable state
   untouched), the link-addressing error codes, device-wide command
   routing and aggregation, the sharded classifier, a dequeue through
   the router's engines allocating no more than a bare engine's, and the
   flow directory staying equal to the engines' flow maps op by op. *)

module C = Runtime.Command
module E = Runtime.Engine
module R = Runtime.Router
module T = Runtime.Telemetry

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let ok_exec = function Ok v -> v | Error e -> Alcotest.fail (E.error_message e)

let code_name = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> E.error_code_name (E.error_code e)

let check_code what expected r =
  Alcotest.(check string) what expected (code_name r)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let exec1 r ~now line = R.exec r ~now (ok (C.parse line))

let pkt ~flow ~seq ~now ?(size = 1000) () =
  Pkt.Packet.make ~flow ~size ~seq ~arrival:now

(* The same observable-state fingerprint the engine fuzz uses: if two
   schedulers differ in anything an operator or the datapath can see,
   the strings differ. *)
let fingerprint eng =
  let sched = E.scheduler eng in
  let b = Buffer.create 512 in
  Buffer.add_string b (Format.asprintf "%a" Hfsc.pp_hierarchy sched);
  List.iter
    (fun c ->
      Buffer.add_string b (Hfsc.debug_state c);
      if Hfsc.is_leaf c then
        Buffer.add_string b
          (Printf.sprintf "|%d/%d" (Hfsc.queue_limit_pkts c)
             (Hfsc.queue_limit_bytes c)))
    (Hfsc.classes sched);
  Buffer.add_string b
    (Printf.sprintf "|%d/%d/%b/%d/%d/%d"
       (Hfsc.aggregate_limit_pkts sched)
       (Hfsc.aggregate_limit_bytes sched)
       (Hfsc.drop_policy sched = Hfsc.Drop_longest)
       (Hfsc.backlog_pkts sched) (Hfsc.backlog_bytes sched)
       (E.filter_count eng));
  Buffer.contents b

let sole_engine r =
  match R.links r with
  | [ (_, eng) ] -> eng
  | l -> Alcotest.failf "expected 1 link, found %d" (List.length l)

(* --- the migration guarantee --------------------------------------- *)

let cfg_text =
  {|
link rate 8Mbit
class a parent root flow 1 fsc 2Mbit qlimit 64
class b parent root flow 2 fsc 2Mbit rsc 2Mbit
class g parent root fsc 2Mbit
class g1 parent g flow 3 fsc 1.5Mbit qbytes 65536
|}

(* Commands thrown at both sides: live reconfiguration that mostly
   succeeds, admission over-commits, plus the hostile pool from the
   fault injector. Link verbs and [link NAME] scopes are the one
   designed divergence (a bare engine has no link table), so the
   stream excludes them. *)
let command_pool =
  Array.append
    [|
      "add class tmp parent root flow 9 fsc 0.5Mbit qlimit 16";
      "delete class tmp";
      "modify class g1 qlimit 10 qbytes 32768";
      "modify class a fsc 2Mbit";
      "modify class b rsc 1Mbit";
      "add class z parent root rsc 9Mbit";
      "limit pkts 200 policy tail";
      "limit pkts none policy longest";
      "attach filter flow 1 proto udp";
      "attach filter flow 77 proto udp";
      "detach filter flow 1";
      "stats";
      "stats g1";
      "stats nowhere";
      "trace on";
      "trace dump";
    |]
    Netsim.Faults.bad_commands

let resp = function
  | Ok s -> "ok:" ^ s
  | Error e ->
      Printf.sprintf "%s:%s" (E.error_code_name (E.error_code e))
        (E.error_message e)

let test_one_link_identity () =
  (* parse twice: a Config.t carries the built scheduler, so both sides
     need their own instance to stay independent *)
  let eng = E.of_config ~audit_every:64 (ok (Config.parse cfg_text)) in
  let router = R.of_config ~audit_every:64 (ok (Config.parse cfg_text)) in
  let rng = Random.State.make [| 0x40073; 0 |] in
  let now = ref 0. in
  let seq = ref 0 in
  let flows = [| 1; 2; 3; 9; 77 |] in
  let compared = ref 0 in
  for nth = 1 to 2_000 do
    now := !now +. Random.State.float rng 0.002;
    (match Random.State.int rng 10 with
    | 0 | 1 -> (
        let line =
          command_pool.(Random.State.int rng (Array.length command_pool))
        in
        match C.parse line with
        | Error _ -> () (* garbage stops at the parser, on both sides *)
        | Ok { C.target = C.On_link _; _ }
        | Ok { C.op = C.Link_add _ | C.Link_delete _ | C.Link_list; _ } ->
            () (* the designed divergence; excluded *)
        | Ok cmd ->
            incr compared;
            Alcotest.(check string)
              (Printf.sprintf "op %d: same reply to %S" nth line)
              (resp (E.exec eng ~now:!now cmd))
              (resp (R.exec router ~now:!now cmd)))
    | 2 | 3 | 4 | 5 | 6 ->
        let flow = flows.(Random.State.int rng (Array.length flows)) in
        incr seq;
        let mk () = pkt ~flow ~seq:!seq ~now:!now () in
        Alcotest.(check bool)
          (Printf.sprintf "op %d: same enqueue verdict (flow %d)" nth flow)
          (E.enqueue_flow eng ~now:!now (mk ()))
          (R.enqueue_flow router ~now:!now (mk ()))
    | _ ->
        let show eng = function
          | None -> "-"
          | Some (p, id, _) ->
              Printf.sprintf "%d:%d:%s" p.Pkt.Packet.flow p.Pkt.Packet.seq
                (E.class_name eng id)
        in
        Alcotest.(check string)
          (Printf.sprintf "op %d: same dequeue" nth)
          (show eng (E.dequeue eng ~now:!now))
          (show (sole_engine router)
             (E.dequeue (sole_engine router) ~now:!now)));
    if nth mod 50 = 0 then
      Alcotest.(check string)
        (Printf.sprintf "op %d: fingerprints agree" nth)
        (fingerprint eng)
        (fingerprint (sole_engine router))
  done;
  Alcotest.(check bool) "commands were actually compared" true (!compared > 50);
  Alcotest.(check string) "final fingerprints agree" (fingerprint eng)
    (fingerprint (sole_engine router));
  Alcotest.(check (list string)) "engine audits clean" [] (E.audit eng);
  Alcotest.(check (list string)) "router audits clean" [] (R.audit router)

(* --- link lifecycle and isolation ---------------------------------- *)

(* Three links, then delete the middle one: the survivors' schedulers,
   filters and flow ownership must be bit-identical before and after. *)
let test_delete_isolation () =
  let r = R.create () in
  List.iter
    (fun (name, rate) -> ignore (ok_exec (R.add_link r ~name ~link_rate:rate)))
    [ ("alpha", 1e6); ("beta", 1e6); ("gamma", 1e6) ];
  ignore (ok_exec (exec1 r ~now:0. "link alpha add class a parent root flow 1 fsc 2Mbit"));
  ignore (ok_exec (exec1 r ~now:0. "link beta add class b parent root flow 2 fsc 2Mbit"));
  ignore (ok_exec (exec1 r ~now:0. "link gamma add class c parent root flow 3 fsc 2Mbit"));
  ignore (ok_exec (exec1 r ~now:0. "link alpha attach filter flow 1 proto udp"));
  ignore (ok_exec (exec1 r ~now:0. "link beta attach filter flow 2 proto tcp"));
  (* live backlog on the survivors *)
  Alcotest.(check bool) "alpha takes traffic" true
    (R.enqueue_flow r ~now:0. (pkt ~flow:1 ~seq:0 ~now:0. ()));
  Alcotest.(check bool) "gamma takes traffic" true
    (R.enqueue_flow r ~now:0. (pkt ~flow:3 ~seq:0 ~now:0. ()));
  let eng name = Option.get (R.find_link r name) in
  let fp_alpha = fingerprint (eng "alpha") in
  let fp_gamma = fingerprint (eng "gamma") in
  let reply = ok_exec (exec1 r ~now:0.1 "link delete beta") in
  Alcotest.(check bool) "reply names the unmapped flow" true
    (contains reply "flow 2");
  Alcotest.(check int) "two links left" 2 (R.link_count r);
  Alcotest.(check string) "alpha untouched" fp_alpha (fingerprint (eng "alpha"));
  Alcotest.(check string) "gamma untouched" fp_gamma (fingerprint (eng "gamma"));
  Alcotest.(check (option string)) "beta's flow unmapped" None
    (R.link_of_flow r 2);
  Alcotest.(check (option string)) "alpha's flow still owned" (Some "alpha")
    (R.link_of_flow r 1);
  (* beta's filter left the shard with it *)
  let tcp_hdr =
    Pkt.Header.make ~src:"10.0.0.1" ~dst:"10.0.0.2" ~proto:Pkt.Header.Tcp ()
  in
  Alcotest.(check bool) "beta's filter gone from the shard" true
    (R.classify r tcp_hdr = None);
  check_code "deleting it again" "unknown-link"
    (exec1 r ~now:0.2 "link delete beta");
  Alcotest.(check (list string)) "auditor clean" [] (R.audit r)

(* --- fault isolation across links ---------------------------------- *)

let router_cfg_text =
  {|
link A rate 8Mbit
class a1 parent root flow 1 fsc 4Mbit qlimit 50
class a2 parent root flow 2 fsc 4Mbit qlimit 50
link B rate 8Mbit
class b1 parent root flow 3 fsc 4Mbit qlimit 50
class b2 parent root flow 4 fsc 4Mbit qlimit 50
source cbr flow 1 rate 3Mbit pkt 500
source poisson flow 2 rate 4Mbit pkt 1000 seed 11
source cbr flow 3 rate 3Mbit pkt 500
source poisson flow 4 rate 4Mbit pkt 1000 seed 23
|}

(* Drive the two-link router through the simulator, optionally flapping
   link A's wire; return link B's observable end state. *)
let run_ab ~fault_a =
  let cfg = ok (Config.parse router_cfg_text) in
  let router = R.of_config ~audit_every:256 cfg in
  let links =
    List.map
      (fun (name, eng) -> (name, E.link_rate eng, E.adapter eng))
      (R.links router)
  in
  let index = Hashtbl.create 4 in
  List.iteri (fun i (name, _, _) -> Hashtbl.replace index name i) links;
  let route p =
    Option.bind
      (R.link_of_flow router p.Pkt.Packet.flow)
      (Hashtbl.find_opt index)
  in
  let sim = Netsim.Sim.create_multi ~links ~route () in
  List.iter (Netsim.Sim.add_source sim) (cfg.Config.sources ~until:1.5);
  if fault_a then
    Netsim.Faults.schedule ~link:0 sim
      [
        (0.2, Netsim.Faults.Set_rate 2e5);
        (0.5, Netsim.Faults.Outage 0.3);
        (0.9, Netsim.Faults.Set_rate 1e6);
      ];
  Netsim.Sim.run sim ~until:2.0;
  (match R.audit router with
  | [] -> ()
  | errs -> Alcotest.failf "auditor: %s" (String.concat "; " errs));
  let b = Option.get (R.find_link router "B") in
  let snap = E.snapshot b in
  let counters id =
    match T.snapshot_counters snap ~id with
    | Some c ->
        Printf.sprintf "%d/%d/%d/%d/%d/%d/%d" c.T.enq_pkts c.T.enq_bytes
          c.T.rt_pkts c.T.ls_pkts c.T.ls_bytes c.T.drop_pkts c.T.hiwater_pkts
    | None -> "-"
  in
  let tele =
    String.concat ";"
      (List.filter_map
         (fun c ->
           if Hfsc.is_leaf c then Some (counters (Hfsc.id c)) else None)
         (Hfsc.classes (E.scheduler b)))
  in
  ( fingerprint b,
    tele,
    Netsim.Sim.link_transmitted_bytes sim 1,
    Netsim.Sim.link_transmitted_bytes sim 0 )

let test_fault_isolation () =
  let fp_quiet, tele_quiet, b_quiet, a_quiet = run_ab ~fault_a:false in
  let fp_fault, tele_fault, b_fault, a_fault = run_ab ~fault_a:true in
  (* the faults really degraded link A... *)
  Alcotest.(check bool)
    (Printf.sprintf "link A degraded (%.0f < %.0f B)" a_fault a_quiet)
    true (a_fault < a_quiet);
  (* ...while link B's wire, scheduler and telemetry never noticed *)
  Alcotest.(check (float 0.)) "link B transmitted the same bytes" b_quiet
    b_fault;
  Alcotest.(check string) "link B scheduler state identical" fp_quiet fp_fault;
  Alcotest.(check string) "link B telemetry identical" tele_quiet tele_fault

(* --- link-addressing error codes ----------------------------------- *)

let test_error_codes () =
  let r = R.create () in
  (* an empty router can only grow links *)
  check_code "no links yet" "unknown-link" (exec1 r ~now:0. "stats");
  ignore (ok_exec (exec1 r ~now:0. "link add one rate 8Mbit"));
  ignore (ok_exec (exec1 r ~now:0. "link add two rate 8Mbit"));
  check_code "duplicate link" "duplicate-link"
    (exec1 r ~now:0. "link add one rate 1Mbit");
  check_code "bad rate" "bad-value" (R.add_link r ~name:"three" ~link_rate:0.);
  check_code "unknown scope" "unknown-link"
    (exec1 r ~now:0. "link nowhere stats");
  ignore
    (ok_exec (exec1 r ~now:0. "link one add class a parent root flow 1 fsc 2Mbit"));
  (* the same flow id cannot be mapped on a second link *)
  check_code "flow owned elsewhere" "duplicate-flow"
    (exec1 r ~now:0. "link two add class a parent root flow 1 fsc 2Mbit");
  (* a filter must live on the link owning its flow *)
  check_code "cross-link filter" "cross-link-filter"
    (exec1 r ~now:0. "link two attach filter flow 1 proto udp");
  (* unscoped structural ops are ambiguous with two links *)
  check_code "ambiguous structural op" "unknown-link"
    (exec1 r ~now:0. "add class x parent root fsc 1Mbit");
  check_code "unscoped filter, unmapped flow" "unknown-flow"
    (exec1 r ~now:0. "attach filter flow 99 proto udp");
  Alcotest.(check (list string)) "auditor clean" [] (R.audit r)

(* --- device-wide routing and aggregation --------------------------- *)

let test_routing_and_aggregation () =
  let r = R.create () in
  ignore (ok_exec (exec1 r ~now:0. "link add west rate 8Mbit"));
  ignore (ok_exec (exec1 r ~now:0. "link add east rate 4Mbit"));
  ignore
    (ok_exec (exec1 r ~now:0. "link west add class w parent root flow 1 fsc 2Mbit"));
  ignore
    (ok_exec (exec1 r ~now:0. "link east add class e parent root flow 2 fsc 2Mbit"));
  (* unscoped attach routes by flow ownership *)
  let reply = ok_exec (exec1 r ~now:0. "attach filter flow 2 proto udp") in
  Alcotest.(check bool) "attach routed to east" true
    (contains reply "filter" || String.length reply > 0);
  Alcotest.(check bool) "east holds the filter" true
    (E.has_filter (Option.get (R.find_link r "east")) 2);
  Alcotest.(check bool) "west does not" true
    (not (E.has_filter (Option.get (R.find_link r "west")) 1));
  (* unscoped detach finds the owner the same way *)
  ignore (ok_exec (exec1 r ~now:0. "detach filter flow 2"));
  Alcotest.(check bool) "filter gone" true
    (not (E.has_filter (Option.get (R.find_link r "east")) 2));
  (* unscoped stats aggregates with per-link headers *)
  let stats = ok_exec (exec1 r ~now:0. "stats") in
  Alcotest.(check bool) "west header" true (contains stats "link \"west\"");
  Alcotest.(check bool) "east header" true (contains stats "link \"east\"");
  (* a named class resolves on whichever link has it *)
  let s = ok_exec (exec1 r ~now:0. "stats e") in
  Alcotest.(check bool) "per-class stats found" true (contains s "e");
  check_code "unknown on every link" "unknown-class"
    (exec1 r ~now:0. "stats nowhere");
  (* trace toggles fan out to every link *)
  let t = ok_exec (exec1 r ~now:0. "trace on") in
  Alcotest.(check bool) "trace reply counts links" true (contains t "2 links");
  Alcotest.(check bool) "both tracing" true
    (List.for_all
       (fun (_, eng) -> (E.snapshot eng).T.snap_tracing)
       (R.links r));
  (* link list shows both, in creation order *)
  let l = ok_exec (exec1 r ~now:0. "link list") in
  Alcotest.(check bool) "list has west" true (contains l "west");
  Alcotest.(check bool) "list has east" true (contains l "east");
  (* the JSON export embeds one stats document per link *)
  let json = Json_lite.to_string (R.stats_json r) in
  Alcotest.(check bool) "router schema" true
    (contains json "hfsc-router-stats/1");
  Alcotest.(check bool) "embedded engine documents" true
    (contains json "hfsc-runtime-stats/1")

(* --- the sharded classifier ---------------------------------------- *)

let test_shard_classify () =
  let r = R.create () in
  ignore (ok_exec (exec1 r ~now:0. "link add west rate 8Mbit"));
  ignore (ok_exec (exec1 r ~now:0. "link add east rate 8Mbit"));
  ignore
    (ok_exec (exec1 r ~now:0. "link west add class w parent root flow 1 fsc 2Mbit"));
  ignore
    (ok_exec (exec1 r ~now:0. "link east add class e parent root flow 2 fsc 2Mbit"));
  ignore
    (ok_exec (exec1 r ~now:0. "link west attach filter flow 1 src 10.1.0.0/16"));
  ignore
    (ok_exec (exec1 r ~now:0. "link east attach filter flow 2 proto udp"));
  let hdr ~src ~proto =
    Pkt.Header.make ~src ~dst:"192.168.0.1" ~proto ()
  in
  (* each filter claims its own traffic, naming the owning link *)
  let leaf_name link id =
    E.class_name (Option.get (R.find_link r link)) id
  in
  (match R.classify r (hdr ~src:"10.1.2.3" ~proto:Pkt.Header.Tcp) with
  | Some (link, cls) ->
      Alcotest.(check string) "west's prefix" "west" link;
      Alcotest.(check string) "west's leaf" "w" (leaf_name link cls)
  | None -> Alcotest.fail "10.1/16 tcp unmatched");
  (match R.classify r (hdr ~src:"172.16.0.9" ~proto:Pkt.Header.Udp) with
  | Some (link, cls) ->
      Alcotest.(check string) "east's proto" "east" link;
      Alcotest.(check string) "east's leaf" "e" (leaf_name link cls)
  | None -> Alcotest.fail "udp unmatched");
  (* both filters match -> first link in creation order wins *)
  (match R.classify r (hdr ~src:"10.1.2.3" ~proto:Pkt.Header.Udp) with
  | Some (link, _) ->
      Alcotest.(check string) "creation order breaks the tie" "west" link
  | None -> Alcotest.fail "overlap unmatched");
  Alcotest.(check bool) "no filter matches" true
    (R.classify r (hdr ~src:"172.16.0.9" ~proto:Pkt.Header.Tcp) = None)

(* --- the zero-allocation promise ------------------------------------- *)

(* A router is N independent engines behind a flow directory, so a
   dequeue from the engines of a traced 4-link router, every class
   added through `link NAME add class`, allocates exactly what a bare
   untraced engine with the same 100 classes does: neither the router
   nor its telemetry adds a minor word. Dequeues go round-robin over
   the links; the timed ones read an already-boxed clock so the
   caller's float boxing is not charged. *)
let test_dequeue_allocation () =
  let classes = 100 and k = 4096 and warm = 512 in
  let class_line i flow =
    Printf.sprintf
      "add class c%d parent root flow %d rsc 1Mbit fsc 1Mbit qlimit 1000000" i
      flow
  in
  let words_per_dequeue engines ~enqueue_flow =
    let links = Array.length engines in
    for flow = 0 to (links * 1000) - 1 do
      if flow mod 1000 < classes then
        for s = 0 to ((k + warm) / classes) + 1 do
          Alcotest.(check bool) "enqueued" true
            (enqueue_flow (pkt ~flow ~seq:s ~now:0. ()))
        done
    done;
    let now = ref 0. in
    for w = 1 to warm do
      now := !now +. 1e-4;
      ignore (E.dequeue engines.(w mod links) ~now:!now)
    done;
    match Sys.opaque_identity [ !now ] with
    | [ boxed_now ] ->
        let served = ref 0 in
        let w0 = Gc.minor_words () in
        for w = 1 to k do
          match E.dequeue engines.(w mod links) ~now:boxed_now with
          | Some _ -> incr served
          | None -> ()
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) "every dequeue served" k !served;
        words /. float_of_int k
    | _ -> assert false
  in
  let bare =
    let link_rate = 12_500_000. in
    let eng =
      E.create ~tracing:false ~link_rate (Hfsc.create ~link_rate ())
        ~flow_map:[] ()
    in
    for i = 0 to classes - 1 do
      ignore (ok_exec (E.exec eng ~now:0. (ok (C.parse (class_line i i)))))
    done;
    words_per_dequeue [| eng |] ~enqueue_flow:(E.enqueue_flow eng ~now:0.)
  in
  let routed =
    let r = R.create ~tracing:true () in
    for j = 0 to 3 do
      ignore (ok_exec (exec1 r ~now:0. (Printf.sprintf "link add l%d rate 100Mbit" j)));
      for i = 0 to classes - 1 do
        ignore
          (ok_exec
             (exec1 r ~now:0.
                (Printf.sprintf "link l%d %s" j (class_line i ((j * 1000) + i)))))
      done
    done;
    words_per_dequeue
      (Array.of_list (List.map snd (R.links r)))
      ~enqueue_flow:(R.enqueue_flow r ~now:0.)
  in
  Alcotest.(check (float 0.)) "minor words per routed dequeue" bare routed

(* --- the flow directory tracks the engines op by op ------------------ *)

(* The directory is a cache of the engines' flow maps, updated in place
   by each command rather than rebuilt from them. A random stream of
   class add/modify/delete, link add/delete, filter attach/detach and
   traffic — many of them rejected (wrong backend's parameters, flows
   owned elsewhere, backlogged deletes, unknown names) — runs through a
   two-link router and a 2-domain multicore router in lockstep. After
   every op the auditor must be clean and, for every flow, the
   directory's answer must equal what the engines themselves map. *)

module M = Runtime.Mc_router

let universe = List.init 8 (fun i -> i + 1)

(* what the sequential router's engines say about [flow], independently
   of its directory *)
let engines_map r flow =
  match
    List.filter_map
      (fun (name, eng) ->
        Option.map (fun cls -> (name, cls)) (E.flow_class eng flow))
      (R.links r)
  with
  | [] -> None
  | [ owner ] -> Some owner
  | _ -> Alcotest.failf "flow %d mapped by two engines" flow

let check_directory ~ctx r =
  (match R.audit r with
  | [] -> ()
  | errs -> Alcotest.failf "%s: audit: %s" ctx (String.concat "; " errs));
  List.iter
    (fun flow ->
      let truth = engines_map r flow in
      Alcotest.(check (option (pair string int)))
        (Printf.sprintf "%s: flow_class %d" ctx flow)
        truth (R.flow_class r flow);
      Alcotest.(check (option string))
        (Printf.sprintf "%s: link_of_flow %d" ctx flow)
        (Option.map fst truth) (R.link_of_flow r flow))
    universe

let random_line rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let link = pick [| "l0"; "l1"; "x" |] in
  let cls = pick [| "c0"; "c1"; "c2"; "c3" |] in
  let flow = 1 + Random.State.int rng (List.length universe) in
  (* either backend's parameters, so about half the adds are refused *)
  let params = pick [| "fsc 1Mbit"; "quantum 1500" |] in
  match Random.State.int rng 12 with
  | 0 | 1 | 2 ->
      Printf.sprintf "link %s add class %s parent root flow %d %s" link cls
        flow params
  | 3 -> Printf.sprintf "link %s add class %s parent root %s" link cls params
  | 4 -> Printf.sprintf "link %s modify class %s qlimit 20" link cls
  | 5 | 6 -> Printf.sprintf "link %s delete class %s" link cls
  | 7 -> Printf.sprintf "link %s attach filter flow %d proto udp" link flow
  | 8 -> Printf.sprintf "detach filter flow %d" flow
  | 9 ->
      pick
        [| "link add x rate 4Mbit"; "link add x rate 4Mbit backend rr" |]
  | 10 -> "link delete x"
  | _ -> Printf.sprintf "attach filter flow %d proto tcp" flow

let test_directory_tracks_engines () =
  let r = R.create () in
  let m = M.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> ignore (M.stop m))
    (fun () ->
      List.iter
        (fun line ->
          let cmd = ok (C.parse line) in
          ignore (ok_exec (R.exec r ~now:0. cmd));
          ignore (ok_exec (M.exec m ~now:0. cmd)))
        [ "link add l0 rate 8Mbit"; "link add l1 rate 8Mbit backend rr" ];
      let rng = Random.State.make [| 0xd1c7 |] in
      let now = ref 0. in
      let seq = ref 0 in
      let rejected = ref 0 in
      let adapter name =
        match M.adapter m ~link:name with
        | Some a -> a
        | None -> Alcotest.failf "no adapter for link %s" name
      in
      (* per link: the sequential router's [false]s, which the
         multicore adapter's deferred drops must equal; a deleted link
         takes its count with it *)
      let refused = Hashtbl.create 4 in
      let refusals name =
        Option.value ~default:0 (Hashtbl.find_opt refused name)
      in
      let served l =
        List.map
          (fun s ->
            let p = s.Sched.Scheduler.pkt in
            (p.Pkt.Packet.flow, p.Pkt.Packet.seq, s.Sched.Scheduler.cls))
          l
      in
      for nth = 1 to 600 do
        now := !now +. 0.001;
        let ctx = Printf.sprintf "op %d" nth in
        (match Random.State.int rng 4 with
        | 0 ->
            (* traffic, so some deletes meet a backlogged class *)
            let flow = 1 + Random.State.int rng (List.length universe) in
            incr seq;
            let p = pkt ~flow ~seq:!seq ~now:!now ~size:500 () in
            let accepted = R.enqueue_flow r ~now:!now p in
            (match R.link_of_flow r flow with
            | None ->
                Alcotest.(check bool) (ctx ^ ": unmapped flow refused") false
                  accepted
            | Some name ->
                let a = adapter name in
                Alcotest.(check bool)
                  (ctx ^ ": healthy link takes the post")
                  true
                  (a.Sched.Scheduler.enqueue ~now:!now p);
                if not accepted then
                  Hashtbl.replace refused name (refusals name + 1);
                Alcotest.(check (option int))
                  (Printf.sprintf "%s: deferred drops on %s" ctx name)
                  (Some (refusals name))
                  (Option.map (fun f -> f ()) a.Sched.Scheduler.deferred_drops))
        | 1 ->
            List.iter
              (fun (name, eng) ->
                let drain a =
                  served (Sched.Scheduler.dequeue_burst a ~now:!now ~max:4)
                in
                Alcotest.(check (list (triple int int string)))
                  (Printf.sprintf "%s: same drain on %s" ctx name)
                  (drain (E.adapter eng))
                  (drain (adapter name)))
              (R.links r)
        | _ ->
            let line = random_line rng in
            let cmd = ok (C.parse line) in
            let a = R.exec r ~now:!now cmd in
            if Result.is_error a then incr rejected
            else if line = "link delete x" then Hashtbl.remove refused "x";
            Alcotest.(check string)
              (Printf.sprintf "%s: same reply to %S" ctx line)
              (resp a)
              (resp (M.exec m ~now:!now cmd)));
        check_directory ~ctx r;
        Alcotest.(check (list string)) (ctx ^ ": mc audit") [] (M.audit m);
        List.iter
          (fun flow ->
            Alcotest.(check (option string))
              (Printf.sprintf "%s: mc link_of_flow %d" ctx flow)
              (R.link_of_flow r flow) (M.link_of_flow m flow))
          universe
      done;
      Alcotest.(check bool) "some commands were rejected" true (!rejected > 50);
      Alcotest.(check bool) "flows are still mapped at the end" true
        (List.exists (fun f -> R.link_of_flow r f <> None) universe))

(* A class can own several flows only through [Engine.create ~flow_map];
   deleting it must unmap every one of them from the directory, and a
   checkpoint names the smallest. *)
let test_multi_flow_class_delete () =
  let sched = Hfsc.create ~link_rate:1e6 () in
  let leaf name =
    Hfsc.add_class sched ~parent:(Hfsc.root sched) ~name
      ~fsc:(Curve.Service_curve.linear 1e5) ()
  in
  let multi = leaf "multi" and solo = leaf "solo" in
  let eng =
    E.create ~link_rate:1e6 sched
      ~flow_map:[ (7, multi); (3, solo); (5, multi) ]
      ()
  in
  let multi_flow =
    List.find_map
      (function
        | C.Add_class { name = "multi"; flow; _ } -> Some flow | _ -> None)
      (E.checkpoint_ops eng)
  in
  Alcotest.(check (option (option int)))
    "checkpoint names the smallest flow" (Some (Some 5)) multi_flow;
  Alcotest.(check (list int)) "class_flows" [ 5; 7 ] (E.class_flows eng "multi");
  let r = R.of_engines [ ("m", eng) ] in
  check_directory ~ctx:"built" r;
  Alcotest.(check (option string)) "flow 7 on m" (Some "m") (R.link_of_flow r 7);
  let reply = ok_exec (exec1 r ~now:0. "link m delete class multi") in
  Alcotest.(check string) "reply lists both flows"
    "deleted class \"multi\" (unmapped flows 5, 7)" reply;
  check_directory ~ctx:"after delete" r;
  List.iter
    (fun f ->
      Alcotest.(check (option string))
        (Printf.sprintf "flow %d left the directory" f)
        None (R.link_of_flow r f))
    [ 5; 7 ];
  Alcotest.(check (option string)) "flow 3 stays" (Some "m") (R.link_of_flow r 3);
  Alcotest.(check int) "one flow left on the engine" 1 (E.flow_count eng)

let () =
  Alcotest.run "router"
    [
      ( "router",
        [
          Alcotest.test_case "one-link router = bare engine" `Quick
            test_one_link_identity;
          Alcotest.test_case "link delete isolates survivors" `Quick
            test_delete_isolation;
          Alcotest.test_case "wire faults isolate across links" `Quick
            test_fault_isolation;
          Alcotest.test_case "link-addressing error codes" `Quick
            test_error_codes;
          Alcotest.test_case "routing and aggregation" `Quick
            test_routing_and_aggregation;
          Alcotest.test_case "sharded classifier" `Quick test_shard_classify;
          Alcotest.test_case "4-link dequeue allocates as one engine" `Quick
            test_dequeue_allocation;
        ] );
      ( "directory",
        [
          Alcotest.test_case "tracks the engines op by op" `Quick
            test_directory_tracks_engines;
          Alcotest.test_case "multi-flow class delete" `Quick
            test_multi_flow_class_delete;
        ] );
    ]
