(* Tests for the runtime control plane (lib/runtime): the command
   language, admission control with breakpoint reporting, live
   reconfiguration of a scheduler holding backlog, telemetry counters
   against the scheduler's own aggregates, the fixed-size trace ring,
   classifier attach/detach, the zero-allocation promise of the
   traced dequeue path, and control-byte escaping in stats-json. *)

module C = Runtime.Command
module E = Runtime.Engine
module T = Runtime.Telemetry
module Sc = Curve.Service_curve

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Ok _ -> Alcotest.fail "expected error" | Error e -> e

(* unwrap an unscoped command to its op — most grammar tests target the
   op; the target field has its own tests below *)
let op_of = function
  | Ok { C.target = C.Default_link; op } -> Ok op
  | Ok { C.target = C.On_link l; _ } ->
      Error (Printf.sprintf "unexpected link scope %S" l)
  | Error e -> Error e

(* counters of one class from the engine's snapshot surface *)
let counters eng ~id =
  match T.snapshot_counters (E.snapshot eng) ~id with
  | Some c -> c
  | None -> Alcotest.failf "no counters for class id %d" id

(* engine results carry a typed error; tests mostly match on the text *)
let ok_exec = function
  | Ok v -> v
  | Error e -> Alcotest.fail (E.error_message e)

let err_exec = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> E.error_message e

let err_code = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> E.error_code e

let check_code what expected r =
  Alcotest.(check string)
    what
    (E.error_code_name expected)
    (E.error_code_name (err_code r))

let ok_script = function
  | Ok v -> v
  | Error { C.line; reason } -> Alcotest.failf "line %d: %s" line reason

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S does not mention %S" what hay needle

(* --- the command language ------------------------------------------ *)

let test_parse_add () =
  match
    op_of
      (C.parse
         "add class voice parent root flow 7 rsc umax 160 dmax 5ms rate \
          64Kbit fsc 64Kbit qlimit 32")
  with
  | Ok (C.Add_class a) ->
      Alcotest.(check string) "name" "voice" a.name;
      Alcotest.(check string) "parent" "root" a.parent;
      Alcotest.(check (option int)) "flow" (Some 7) a.flow;
      Alcotest.(check (option int)) "qlimit" (Some 32) a.qlimit;
      (match a.curves.C.rsc with
      | Some r ->
          Alcotest.(check (float 1e-9)) "rsc m1" 32_000. r.Sc.m1;
          Alcotest.(check (float 1e-12)) "rsc d" 0.005 r.Sc.d;
          Alcotest.(check (float 1e-9)) "rsc m2" 8_000. r.Sc.m2
      | None -> Alcotest.fail "no rsc");
      (match a.curves.C.fsc with
      | Some f -> Alcotest.(check (float 1e-9)) "fsc" 8_000. f.Sc.m2
      | None -> Alcotest.fail "no fsc");
      Alcotest.(check bool) "no ulimit" true (a.curves.C.usc = None)
  | Ok _ -> Alcotest.fail "parsed as a different command"
  | Error e -> Alcotest.fail e

let test_parse_others () =
  (match op_of (C.parse "modify class x fsc m1 1Mbit d 10ms m2 2Mbit") with
  | Ok (C.Modify_class { name = "x"; curves; _ }) ->
      (match curves.C.fsc with
      | Some f ->
          Alcotest.(check (float 1e-9)) "m1" 125_000. f.Sc.m1;
          Alcotest.(check (float 1e-9)) "m2" 250_000. f.Sc.m2
      | None -> Alcotest.fail "no fsc")
  | _ -> Alcotest.fail "modify");
  (match op_of (C.parse "delete class x") with
  | Ok (C.Delete_class "x") -> ()
  | _ -> Alcotest.fail "delete");
  (match
     op_of
       (C.parse "attach filter flow 3 src 10.0.0.0/8 proto udp dport 5004 5005")
   with
  | Ok (C.Attach_filter f) ->
      Alcotest.(check int) "flow" 3 f.C.fflow;
      Alcotest.(check (option string)) "src" (Some "10.0.0.0/8") f.C.fsrc;
      Alcotest.(check bool) "proto" true (f.C.fproto = Some Pkt.Header.Udp);
      Alcotest.(check bool) "dport" true (f.C.fdport = Some (5004, 5005))
  | _ -> Alcotest.fail "attach");
  (match op_of (C.parse "detach filter flow 3") with
  | Ok (C.Detach_filter 3) -> ()
  | _ -> Alcotest.fail "detach");
  (match op_of (C.parse "stats") with
  | Ok (C.Stats None) -> ()
  | _ -> Alcotest.fail "stats");
  (match op_of (C.parse "stats data") with
  | Ok (C.Stats (Some "data")) -> ()
  | _ -> Alcotest.fail "stats data");
  match op_of (C.parse "trace dump") with
  | Ok (C.Trace C.Trace_dump) -> ()
  | _ -> Alcotest.fail "trace dump"

(* the link-addressing layer of the grammar: scopes, router verbs,
   reserved words, round-tripping through pp *)
let test_parse_link_grammar () =
  (match C.parse "link west add class x parent root fsc 1Mbit" with
  | Ok { C.target = C.On_link "west"; op = C.Add_class { name = "x"; _ } } ->
      ()
  | _ -> Alcotest.fail "scoped add");
  (match C.parse "link east stats" with
  | Ok { C.target = C.On_link "east"; op = C.Stats None } -> ()
  | _ -> Alcotest.fail "scoped stats");
  (match C.parse "link add north rate 5Mbit" with
  | Ok
      {
        C.target = C.Default_link;
        op = C.Link_add { link = "north"; rate; backend = Runtime.Backend.Hfsc_kind };
      } ->
      Alcotest.(check (float 1e-9)) "rate in B/s" 625_000. rate
  | _ -> Alcotest.fail "link add");
  (match C.parse "link add south rate 5Mbit backend rr" with
  | Ok
      {
        C.target = C.Default_link;
        op = C.Link_add { link = "south"; backend = Runtime.Backend.Rr_kind; _ };
      } ->
      ()
  | _ -> Alcotest.fail "link add backend rr");
  check_contains "unknown backend"
    (err (C.parse "link add south rate 5Mbit backend fifo"))
    "backend";
  (match
     op_of (C.parse "add class q parent root flow 6 quantum 3000 qlimit 16")
   with
  | Ok (C.Add_class { quantum = Some 3000; curves; _ }) ->
      (* a quantum alone satisfies the rsc-or-fsc-or-quantum rule *)
      Alcotest.(check bool) "no curves" true
        (curves = { C.rsc = None; fsc = None; usc = None })
  | _ -> Alcotest.fail "quantum add");
  (match op_of (C.parse "modify class q quantum 4000") with
  | Ok (C.Modify_class { quantum = Some 4000; _ }) -> ()
  | _ -> Alcotest.fail "quantum modify");
  (match C.parse "link delete north" with
  | Ok { C.target = C.Default_link; op = C.Link_delete "north" } -> ()
  | _ -> Alcotest.fail "link delete");
  (match C.parse "link list" with
  | Ok { C.target = C.Default_link; op = C.Link_list } -> ()
  | _ -> Alcotest.fail "link list");
  check_contains "no nesting"
    (err (C.parse "link a link b stats"))
    "cannot nest";
  check_contains "bare link" (err (C.parse "link")) "link";
  check_contains "link add arity"
    (err (C.parse "link add north"))
    "link add";
  check_contains "link delete arity"
    (err (C.parse "link delete a b"))
    "link delete";
  check_contains "link list arity" (err (C.parse "link list x")) "link list";
  (* pretty-printed commands re-parse to themselves, scope included *)
  List.iter
    (fun line ->
      let cmd = ok (C.parse line) in
      let printed = Format.asprintf "%a" C.pp cmd in
      let reparsed = ok (C.parse printed) in
      Alcotest.(check bool)
        (Printf.sprintf "pp round-trip %S" line)
        true
        (Format.asprintf "%a" C.pp reparsed = printed))
    [
      "link west add class x parent root flow 4 fsc 1Mbit qlimit 9";
      "link west add class y parent root flow 5 quantum 1500 qlimit 9";
      "link west modify class y quantum 3000";
      "link east detach filter flow 3";
      "link add north rate 5Mbit";
      "link add south rate 5Mbit backend rr";
      "link delete north";
      "link list";
      "link west trace dump";
      "stats data";
    ]

let test_parse_errors () =
  check_contains "missing parent" (err (C.parse "add class x")) "parent";
  check_contains "unknown command" (err (C.parse "frobnicate x")) "unknown";
  check_contains "empty modify"
    (err (C.parse "modify class x"))
    "nothing to change";
  check_contains "bad trace op" (err (C.parse "trace maybe")) "trace";
  check_contains "bad int"
    (err (C.parse "add class x parent root flow seven fsc 1Mbit"))
    "integer";
  check_contains "bad curve"
    (err (C.parse "add class x parent root fsc 1Mbi"))
    "1Mbi"

let test_parse_limit () =
  (match op_of (C.parse "limit pkts 100 bytes none policy longest") with
  | Ok
      (C.Set_limit
        {
          lpkts = Some (C.At 100);
          lbytes = Some C.Unlimited;
          lpolicy = Some C.Policy_longest;
        }) ->
      ()
  | _ -> Alcotest.fail "limit parse");
  check_contains "empty limit" (err (C.parse "limit")) "at least one";
  check_contains "bad policy" (err (C.parse "limit policy random")) "policy";
  check_contains "zero bound" (err (C.parse "limit pkts 0")) "positive";
  (match op_of (C.parse "modify class x qlimit 10 qbytes 20000") with
  | Ok (C.Modify_class { qlimit = Some 10; qbytes = Some 20000; _ }) -> ()
  | _ -> Alcotest.fail "modify qlimit/qbytes");
  match op_of (C.parse "add class x parent root fsc 1Mbit qbytes 64000") with
  | Ok (C.Add_class { qbytes = Some 64000; _ }) -> ()
  | _ -> Alcotest.fail "add qbytes"

let test_script () =
  let s =
    "# comment\n\
     \n\
     add class a parent root fsc 1Mbit\n\
     at 500ms modify class a fsc 2Mbit\n\
     at 1.5 stats   # trailing comment\n"
  in
  let cmds = ok_script (C.parse_script s) in
  Alcotest.(check int) "three commands" 3 (List.length cmds);
  let times = List.map fst cmds in
  Alcotest.(check (list (float 1e-12))) "times" [ 0.; 0.5; 1.5 ] times

let test_script_error_line () =
  let s = "stats\n\nat 1 trace dump\nadd class oops\nstats\n" in
  match C.parse_script s with
  | Ok _ -> Alcotest.fail "expected error"
  | Error { C.line; reason } ->
      Alcotest.(check int) "line number" 4 line;
      check_contains "reason" reason "parent"

(* --- engines for the remaining tests ------------------------------- *)

(* 8 Mbit = 1e6 B/s link; two leaves at 2 Mbit each leave root headroom
   for runtime additions, [b] has a real-time guarantee. *)
let cfg_text =
  {|
link rate 8Mbit
class a parent root flow 1 fsc 2Mbit
class b parent root flow 2 fsc 2Mbit rsc 2Mbit
class g parent root fsc 2Mbit
class g1 parent g flow 3 fsc 1.5Mbit
|}

(* The sole link's engine of [cfg_text], built as every device is. *)
let make_engine ?trace_capacity ?audit_every () =
  match
    Runtime.Router.of_config ?trace_capacity ?audit_every
      (ok (Config.parse cfg_text))
  with
  | Ok (r, _) -> snd (List.hd (Runtime.Router.links r))
  | Error e -> Alcotest.fail e

let exec1 eng ~now line = E.exec eng ~now (ok (C.parse line))

let pkt ~flow ~seq ~now =
  Pkt.Packet.make ~flow ~size:1000 ~seq ~arrival:now

(* --- admission ----------------------------------------------------- *)

let test_admission_rt_asymptotic () =
  let eng = make_engine () in
  (* existing rsc: 2 Mbit; 7 more Mbit exceed the 8 Mbit link *)
  let e = err_exec (exec1 eng ~now:0. "add class c parent root rsc 7Mbit") in
  check_contains "what" e "real-time";
  check_contains "asymptotic" e "asymptotically";
  (* 5 Mbit of rt still fit (2 + 5 <= 8) *)
  ignore
    (ok_exec (exec1 eng ~now:0. "add class c parent root rsc 5Mbit fsc 1Mbit"))

let test_admission_rt_breakpoint () =
  let eng = make_engine () in
  (* first slope 16 Mbit for 100 ms: at t = 0.1 the demand (2e5 B from
     this curve alone) exceeds the link's 1e5 B *)
  let e =
    err_exec
      (exec1 eng ~now:0.
         "add class c parent root rsc m1 16Mbit d 100ms m2 8Kbit")
  in
  check_contains "breakpoint" e "breakpoint t=0.1";
  check_contains "demand" e "demand"

let test_admission_fsc_under_parent () =
  let eng = make_engine () in
  (* g's fsc is 2 Mbit; g1 already takes 1.5 *)
  let e = err_exec (exec1 eng ~now:0. "add class g2 parent g fsc 1Mbit") in
  check_contains "names the parent" e "\"g\"";
  check_contains "what" e "link-sharing";
  ignore (ok_exec (exec1 eng ~now:0. "add class g2 parent g fsc 0.5Mbit"));
  (* modifying g1 upward must account for g2 *)
  let e = err_exec (exec1 eng ~now:0. "modify class g1 fsc 1.6Mbit") in
  check_contains "modify over-commit" e "link-sharing";
  (* and an interior class cannot shrink below its children *)
  let e = err_exec (exec1 eng ~now:0. "modify class g fsc 1Mbit") in
  check_contains "children vs new fsc" e "children"

(* --- live reconfiguration ------------------------------------------ *)

let drain eng =
  let now = ref 10. in
  let rec go () =
    now := !now +. 0.001;
    match E.dequeue eng ~now:!now with Some _ -> go () | None -> ()
  in
  go ()

let test_live_reconfigure () =
  let eng = make_engine () in
  let sched = E.scheduler eng in
  (* backlog class a *)
  for s = 0 to 9 do
    Alcotest.(check bool) "enqueue accepted" true
      (E.enqueue_flow eng ~now:0. (pkt ~flow:1 ~seq:s ~now:0.))
  done;
  Alcotest.(check int) "a backlogged" 10 (Hfsc.backlog_pkts sched);
  (* serve a couple of packets so the hierarchy is mid-backlogged-period *)
  ignore (E.dequeue eng ~now:0.001);
  ignore (E.dequeue eng ~now:0.002);
  (* adding, modifying and deleting other classes works right now *)
  let r = ok_exec (exec1 eng ~now:0.002 "add class c parent root flow 9 fsc 1Mbit") in
  check_contains "add response" r "added class \"c\"";
  ignore (ok_exec (exec1 eng ~now:0.002 "modify class c fsc 2Mbit"));
  (match Hfsc.find_class sched "c" with
  | Some c ->
      Alcotest.(check (float 1e-9)) "fsc applied" 250_000.
        (match Hfsc.fsc c with Some f -> f.Sc.m2 | None -> nan)
  | None -> Alcotest.fail "class c not in hierarchy");
  (* ... but the backlogged class itself is protected *)
  let e = err_exec (exec1 eng ~now:0.002 "modify class a fsc 1Mbit") in
  check_contains "active class" e "active";
  (* the new class takes traffic immediately *)
  Alcotest.(check bool) "flow 9 mapped" true
    (E.enqueue_flow eng ~now:0.002 (pkt ~flow:9 ~seq:0 ~now:0.002));
  (* a backlogged class cannot be deleted *)
  let e = err_exec (exec1 eng ~now:0.003 "delete class c") in
  check_contains "delete backlogged" e "queued";
  drain eng;
  (* once passive: modify and delete succeed, the flow is unmapped *)
  ignore (ok_exec (exec1 eng ~now:20. "modify class a fsc 1Mbit"));
  let r = ok_exec (exec1 eng ~now:20. "delete class c") in
  check_contains "unmaps flow" r "flow 9";
  Alcotest.(check bool) "flow 9 gone" true (E.flow_class eng 9 = None);
  Alcotest.(check bool) "class c gone" true
    (Hfsc.find_class sched "c" = None)

(* --- telemetry counters vs the scheduler --------------------------- *)

let test_counters_match_service () =
  let eng = make_engine () in
  let sched = E.scheduler eng in
  let now = ref 0. in
  for s = 0 to 19 do
    now := !now +. 0.004;
    ignore (E.enqueue_flow eng ~now:!now (pkt ~flow:1 ~seq:s ~now:!now));
    ignore (E.enqueue_flow eng ~now:!now (pkt ~flow:2 ~seq:s ~now:!now));
    ignore (E.dequeue eng ~now:!now)
  done;
  drain eng;
  let check_class flow name =
    let cls = Option.get (Hfsc.find_class sched name) in
    let c = counters eng ~id:(Hfsc.id cls) in
    Alcotest.(check int) (name ^ " enq") 20 c.T.enq_pkts;
    Alcotest.(check int) (name ^ " enq bytes") 20_000 c.T.enq_bytes;
    (* everything drained: served = enqueued, split across criteria *)
    Alcotest.(check int) (name ^ " served pkts") 20 (c.T.rt_pkts + c.T.ls_pkts);
    Alcotest.(check (float 1e-9)) (name ^ " served bytes")
      (Hfsc.total_bytes cls)
      (float_of_int (c.T.rt_bytes + c.T.ls_bytes));
    Alcotest.(check (float 1e-9)) (name ^ " rt bytes")
      (Hfsc.realtime_bytes cls)
      (float_of_int c.T.rt_bytes);
    Alcotest.(check int) (name ^ " drops") 0 c.T.drop_pkts;
    Alcotest.(check bool) (name ^ " hiwater sane") true (c.T.hiwater_pkts >= 1);
    ignore flow
  in
  check_class 1 "a";
  check_class 2 "b";
  (* b has a real-time curve, so some of its service is rt *)
  let b = Option.get (Hfsc.find_class sched "b") in
  let cb = counters eng ~id:(Hfsc.id b) in
  Alcotest.(check bool) "b served under rt" true (cb.T.rt_pkts > 0)

let test_drops_counted () =
  let eng = make_engine () in
  ignore (ok_exec (exec1 eng ~now:0. "add class d parent root flow 5 fsc 0.4Mbit qlimit 2"));
  let accepted = ref 0 in
  for s = 0 to 4 do
    if E.enqueue_flow eng ~now:0. (pkt ~flow:5 ~seq:s ~now:0.) then
      incr accepted
  done;
  Alcotest.(check int) "qlimit enforced" 2 !accepted;
  let id = Option.get (E.flow_class eng 5) in
  let c = counters eng ~id in
  Alcotest.(check int) "drops" 3 c.T.drop_pkts;
  Alcotest.(check int) "enq" 2 c.T.enq_pkts;
  Alcotest.(check int) "hiwater pkts" 2 c.T.hiwater_pkts;
  Alcotest.(check int) "hiwater bytes" 2000 c.T.hiwater_bytes

(* --- the trace ring ------------------------------------------------ *)

let test_trace_ring_wrap () =
  let t = T.create ~trace_capacity:8 () in
  T.ensure_class t ~id:1;
  for s = 0 to 19 do
    T.note_enqueue t ~id:1 ~now:(float_of_int s) ~size:100 ~flow:4 ~seq:s
      ~qlen:1 ~qbytes:100
  done;
  Alcotest.(check int) "total counts everything" 20 (T.recorded_total t);
  let evs = T.events t in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length evs);
  Alcotest.(check (list int)) "oldest surviving first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : T.event) -> e.T.seq) evs);
  List.iter
    (fun (e : T.event) ->
      Alcotest.(check bool) "kind" true (e.T.kind = T.Enq);
      Alcotest.(check int) "cls" 1 e.T.cls_id;
      Alcotest.(check int) "flow" 4 e.T.flow;
      Alcotest.(check (float 0.)) "ts" (float_of_int e.T.seq) e.T.ts)
    evs;
  Alcotest.(check int) "dropped_events" 12 (T.dropped_events t);
  (* text export: a '#' header counting drops, one line per survivor *)
  let all_lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (T.trace_text t))
  in
  (match all_lines with
  | hd :: _ when String.length hd > 0 && hd.[0] = '#' ->
      check_contains "header counts drops" hd "12"
  | _ -> Alcotest.fail "expected a # header when the ring wrapped");
  let lines =
    List.filter (fun l -> String.length l = 0 || l.[0] <> '#') all_lines
  in
  Alcotest.(check int) "trace_text lines" 8 (List.length lines);
  check_contains "line format" (List.hd lines) "enq"

let test_trace_kinds_and_toggle () =
  let t = T.create ~trace_capacity:16 () in
  T.ensure_class t ~id:0;
  T.note_enqueue t ~id:0 ~now:0. ~size:1 ~flow:0 ~seq:0 ~qlen:1 ~qbytes:1;
  T.note_dequeue t ~id:0 ~now:0. ~size:1 ~flow:0 ~seq:0 ~arrival:0.
    ~realtime:true;
  T.note_dequeue t ~id:0 ~now:0. ~size:1 ~flow:0 ~seq:1 ~arrival:0.
    ~realtime:false;
  T.note_drop t ~id:0 ~now:0. ~size:1 ~flow:0 ~seq:2;
  T.set_tracing t false;
  T.note_drop t ~id:0 ~now:0. ~size:1 ~flow:0 ~seq:3;
  Alcotest.(check int) "tracing off stops recording" 4 (T.recorded_total t);
  Alcotest.(check (list bool)) "kinds decode" [ true; true; true; true ]
    (List.map2
       (fun (e : T.event) k -> e.T.kind = k)
       (T.events t)
       [ T.Enq; T.Deq_rt; T.Deq_ls; T.Drop ]);
  (* counters still accumulate with tracing off *)
  Alcotest.(check int) "drop counter" 2 (T.counters t ~id:0).T.drop_pkts

let test_deadline_miss () =
  let t = T.create () in
  T.ensure_class t ~id:0;
  T.set_rsc t ~id:0 (Some (Sc.linear 1000.));
  (* S^-1(1000 B) = 1 s: a 0.5 s sojourn is fine, 1.5 s is a miss *)
  T.note_dequeue t ~id:0 ~now:0.5 ~size:1000 ~flow:0 ~seq:0 ~arrival:0.
    ~realtime:true;
  Alcotest.(check int) "within bound" 0 (T.counters t ~id:0).T.deadline_misses;
  T.note_dequeue t ~id:0 ~now:1.5 ~size:1000 ~flow:0 ~seq:1 ~arrival:0.
    ~realtime:true;
  Alcotest.(check int) "miss counted" 1 (T.counters t ~id:0).T.deadline_misses;
  (* link-sharing service is never judged against the rsc *)
  T.note_dequeue t ~id:0 ~now:9. ~size:1000 ~flow:0 ~seq:2 ~arrival:0.
    ~realtime:false;
  Alcotest.(check int) "ls not judged" 1 (T.counters t ~id:0).T.deadline_misses;
  (* two-piece inverse: m1 2000 for 0.25 s (500 B), then 1000 *)
  T.set_rsc t ~id:0 (Some (Sc.make ~m1:2000. ~d:0.25 ~m2:1000.));
  (* S^-1(1000) = 0.25 + 500/1000 = 0.75 s *)
  T.note_dequeue t ~id:0 ~now:0.7 ~size:1000 ~flow:0 ~seq:3 ~arrival:0.
    ~realtime:true;
  Alcotest.(check int) "concave within" 1 (T.counters t ~id:0).T.deadline_misses;
  T.note_dequeue t ~id:0 ~now:0.8 ~size:1000 ~flow:0 ~seq:4 ~arrival:0.
    ~realtime:true;
  Alcotest.(check int) "concave miss" 2 (T.counters t ~id:0).T.deadline_misses

(* --- classifier attach/detach -------------------------------------- *)

let test_attach_detach () =
  let eng = make_engine () in
  let h ?(proto = Pkt.Header.Udp) ?(dport = 5004) () =
    Pkt.Header.make ~src:"10.1.2.3" ~dst:"192.168.0.1" ~proto ~sport:9
      ~dport ()
  in
  (* the compiled table a router shards over: header -> flow *)
  let route h = Classify.Rules.classify (E.rules eng) h in
  Alcotest.(check bool) "no filters yet" true (route (h ()) = None);
  ignore
    (ok_exec
       (exec1 eng ~now:0.
          "attach filter flow 1 src 10.0.0.0/8 proto udp dport 5004 5005"));
  Alcotest.(check int) "one filter" 1 (E.filter_count eng);
  (match Option.bind (route (h ())) (E.flow_class eng) with
  | Some id ->
      Alcotest.(check string) "routed to a" "a"
        (Runtime.Backend.cls_name (E.backend eng) id)
  | None -> Alcotest.fail "udp/5004 should match");
  Alcotest.(check bool) "tcp does not match" true
    (route (h ~proto:Pkt.Header.Tcp ()) = None);
  Alcotest.(check bool) "port outside range" true
    (route (h ~dport:6000 ()) = None);
  (* unmapped flows are rejected at attach time *)
  check_contains "unmapped flow"
    (err_exec (exec1 eng ~now:0. "attach filter flow 77 proto udp"))
    "not mapped";
  ignore (ok_exec (exec1 eng ~now:0. "detach filter flow 1"));
  Alcotest.(check bool) "detached" true (route (h ()) = None);
  check_contains "double detach"
    (err_exec (exec1 eng ~now:0. "detach filter flow 1"))
    "no filter"

(* --- the zero-allocation promise ----------------------------------- *)

(* Minor words per dequeue through [deq], with the clock pre-boxed so
   the caller's float boxing is not charged to the scheduler. *)
let words_per_dequeue ~prefill ~deq =
  let k = 2048 in
  prefill (k + 64);
  let now = ref 0. in
  for _ = 1 to 64 do
    now := !now +. 1e-4;
    ignore (deq ~now:!now)
  done;
  match Sys.opaque_identity [ !now +. 1e-4 ] with
  | [ boxed_now ] ->
      let w0 = Gc.minor_words () in
      for _ = 1 to k do
        ignore (deq ~now:boxed_now)
      done;
      (Gc.minor_words () -. w0) /. float_of_int k
  | _ -> assert false

let test_traced_dequeue_allocates_nothing_extra () =
  let bare =
    let t = Hfsc.create ~link_rate:1e6 () in
    let leaf =
      Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"l"
        ~fsc:(Sc.linear 1e6) ~qlimit:1_000_000 ()
    in
    words_per_dequeue
      ~prefill:(fun n ->
        for s = 0 to n - 1 do
          ignore (Hfsc.enqueue t ~now:0. leaf (pkt ~flow:1 ~seq:s ~now:0.))
        done)
      ~deq:(fun ~now -> Hfsc.dequeue t ~now)
  in
  let traced =
    let t = Hfsc.create ~link_rate:1e6 () in
    let leaf =
      Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"l"
        ~fsc:(Sc.linear 1e6) ~qlimit:1_000_000 ()
    in
    let eng =
      E.create ~link_rate:1e6 t ~flow_map:[ (1, leaf) ] ~tracing:true ()
    in
    let leaf_id = Hfsc.id leaf in
    words_per_dequeue
      ~prefill:(fun n ->
        for s = 0 to n - 1 do
          ignore (E.enqueue eng ~now:0. leaf_id (pkt ~flow:1 ~seq:s ~now:0.))
        done)
      ~deq:(fun ~now -> E.dequeue eng ~now)
  in
  (* same per-op footprint: the telemetry hooks allocate nothing *)
  Alcotest.(check (float 0.)) "extra minor words per traced dequeue" bare
    traced;
  (* and the footprint is the returned option/tuple, nothing more *)
  Alcotest.(check bool) "bare footprint is the result value" true (bare <= 6.)

(* One simulated poll: what [Netsim.Sim] calls per transmit completion,
   through a traced engine's adapter, with a packet each time. *)
let test_simulated_poll_allocation () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let leaf =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"l" ~fsc:(Sc.linear 1e6)
      ~qlimit:1_000_000 ()
  in
  let eng = E.create ~link_rate:1e6 t ~flow_map:[ (1, leaf) ] ~tracing:true () in
  let a = E.adapter eng in
  let leaf_id = Hfsc.id leaf in
  let words =
    words_per_dequeue
      ~prefill:(fun n ->
        for s = 0 to n - 1 do
          ignore (E.enqueue eng ~now:0. leaf_id (pkt ~flow:1 ~seq:s ~now:0.))
        done)
      ~deq:(fun ~now ->
        match Sched.Scheduler.dequeue_burst a ~now ~max:1 with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "a backlogged poll must return one packet")
  in
  (* the served record, its option and the one-element list *)
  Alcotest.(check (float 0.)) "minor words per simulated poll" 9. words

(* The per-packet flow lookup ([Engine.enqueue_flow] on a mapped flow)
   through either backend into a queue whose ring has grown: the
   lookup, the enqueue and the traced telemetry hook allocate nothing,
   and a queued packet needs no option cell. *)
let test_enqueue_flow_hit_allocation () =
  List.iter
    (fun (kind, attrs) ->
      let eng = E.create_link ~link_rate:1e6 kind in
      ignore
        (ok_exec
           (exec1 eng ~now:0.
              ("add class a parent root flow 1 qlimit 1000000 " ^ attrs)));
      let pkts = Array.init 4096 (fun s -> pkt ~flow:1 ~seq:s ~now:0.) in
      let fill () =
        for i = 0 to Array.length pkts - 1 do
          if not (E.enqueue_flow eng ~now:0. (Array.unsafe_get pkts i)) then
            Alcotest.fail "a mapped flow's packet was refused"
        done
      in
      fill ();
      drain eng;
      ignore (E.enqueue_flow eng ~now:0. pkts.(0));
      let w0 = Gc.minor_words () in
      fill ();
      let w = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.))
        (Runtime.Backend.kind_name kind ^ ": minor words per enqueue_flow hit")
        0.
        (w /. float_of_int (Array.length pkts)))
    [
      (Runtime.Backend.Hfsc_kind, "fsc 1Mbit");
      (Runtime.Backend.Rr_kind, "quantum 1500");
    ]

(* Flow ids are any int: one far above 2^32 and a negative one map,
   carry packets, unmap with their class and map again. *)
let test_extreme_flow_ids () =
  let eng =
    E.create_link ~audit_every:1 ~link_rate:1e6 Runtime.Backend.Hfsc_kind
  in
  let big = 1 lsl 40 in
  let add name flow =
    ok_exec
      (exec1 eng ~now:0.
         (Printf.sprintf "add class %s parent root flow %d fsc 1Mbit" name
            flow))
  in
  ignore (add "a" big);
  ignore (add "b" (-3));
  Alcotest.(check (list int)) "flows, sorted" [ -3; big ] (E.flows eng);
  Alcotest.(check (option int)) "big maps to a"
    (Runtime.Backend.find_id (E.backend eng) "a")
    (E.flow_class eng big);
  Alcotest.(check (option int)) "-3 maps to b"
    (Runtime.Backend.find_id (E.backend eng) "b")
    (E.flow_class eng (-3));
  let offer flow = E.enqueue_flow eng ~now:0. (pkt ~flow ~seq:0 ~now:0.) in
  Alcotest.(check bool) "big enqueued" true (offer big);
  Alcotest.(check bool) "-3 enqueued" true (offer (-3));
  Alcotest.(check bool) "unmapped flow refused" false (offer 3);
  Alcotest.(check bool) "big's neighbour refused" false (offer (big + 1));
  Alcotest.(check int) "both queued" 2 (E.backlog_pkts eng);
  let served = ref [] in
  let rec go now =
    match E.dequeue eng ~now with
    | Some (p, _, _) ->
        served := p.Pkt.Packet.flow :: !served;
        go (now +. 0.01)
    | None -> ()
  in
  go 1.;
  Alcotest.(check (list int)) "both served" [ -3; big ]
    (List.sort Int.compare !served);
  let reply = ok_exec (exec1 eng ~now:0. "delete class a") in
  check_contains "delete unmaps big" reply
    (Printf.sprintf "(unmapped flow %d)" big);
  Alcotest.(check (option int)) "big unmapped" None (E.flow_class eng big);
  Alcotest.(check bool) "big refused after delete" false (offer big);
  Alcotest.(check bool) "-3 still mapped" true (offer (-3));
  ignore (add "a2" big);
  Alcotest.(check (option int)) "big re-mapped"
    (Runtime.Backend.find_id (E.backend eng) "a2")
    (E.flow_class eng big);
  Alcotest.(check bool) "big enqueued again" true (offer big);
  Alcotest.(check (list int)) "flows after re-map" [ -3; big ] (E.flows eng);
  Alcotest.(check (list string)) "audit clean" [] (E.audit eng)

(* Class names may hold any byte but space and tab, so the stats-json
   exporter must escape control bytes: strict JSON readers reject them
   raw inside a string. *)
let test_stats_json_escapes_control_bytes () =
  let eng =
    E.create ~link_rate:1e6 (Hfsc.create ~link_rate:1e6 ()) ~flow_map:[] ()
  in
  ignore
    (ok_exec (exec1 eng ~now:0. "add class a\001b\rc parent root flow 3 fsc 1Mbit"));
  let doc = E.stats_json eng in
  let s = Json_lite.to_string doc in
  let in_string = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if not !in_string then in_string := c = '"'
      else if c < ' ' then
        Alcotest.failf "raw byte 0x%02x inside a string" (Char.code c)
      else if !escaped then escaped := false
      else if c = '\\' then escaped := true
      else if c = '"' then in_string := false)
    s;
  Alcotest.(check bool) "parses back to the same value" true
    (Json_lite.parse s = doc)

(* --- transactional execution and typed errors ---------------------- *)

(* A configuration-and-scheduling-state fingerprint: if a rejected
   command changed anything an operator or the datapath can observe,
   two fingerprints differ. *)
let fingerprint eng =
  let sched = E.scheduler eng in
  let b = Buffer.create 512 in
  Buffer.add_string b (Format.asprintf "%a" Hfsc.pp_hierarchy sched);
  List.iter
    (fun c ->
      Buffer.add_string b (Hfsc.name c);
      Buffer.add_char b ' ';
      Buffer.add_string b (Hfsc.debug_state c);
      if Hfsc.is_leaf c then
        Buffer.add_string b
          (Printf.sprintf " ql=%d qb=%d\n" (Hfsc.queue_limit_pkts c)
             (Hfsc.queue_limit_bytes c)))
    (Hfsc.classes sched);
  Buffer.add_string b
    (Printf.sprintf "agg=%d/%d pol=%s bl=%d/%d nfilters=%d"
       (Hfsc.aggregate_limit_pkts sched)
       (Hfsc.aggregate_limit_bytes sched)
       (match Hfsc.drop_policy sched with
       | Hfsc.Tail_drop -> "tail"
       | Hfsc.Drop_longest -> "longest")
       (Hfsc.backlog_pkts sched) (Hfsc.backlog_bytes sched)
       (E.filter_count eng));
  Buffer.contents b

(* Every command variant with a failing input: the typed code is right
   and the engine state is bit-identical afterwards. *)
let test_error_paths_leave_state () =
  let eng = make_engine () in
  (* live backlog so rejections happen against a non-trivial state *)
  for s = 0 to 4 do
    ignore (E.enqueue_flow eng ~now:0. (pkt ~flow:1 ~seq:s ~now:0.))
  done;
  ignore (E.dequeue eng ~now:0.001);
  let cases =
    [
      ("add duplicate", "add class a parent root fsc 1Mbit",
       E.Duplicate_class);
      ("add unknown parent", "add class z parent nowhere fsc 1Mbit",
       E.Unknown_class);
      ("add duplicate flow", "add class z parent root flow 1 fsc 1Mbit",
       E.Duplicate_flow);
      ("add rt overload", "add class z parent root rsc 9Mbit",
       E.Admission_realtime);
      ("add ls overload", "add class z parent g fsc 1Mbit",
       E.Admission_linkshare);
      ("add ulimit below rsc",
       "add class z parent root rsc 1Mbit ulimit 0.5Mbit",
       E.Admission_ulimit);
      ("modify unknown", "modify class nowhere fsc 1Mbit", E.Unknown_class);
      ("modify active", "modify class a fsc 1Mbit", E.Class_active);
      ("modify bad qlimit", "modify class b qlimit -3", E.Bad_value);
      ("modify interior qlimit", "modify class g qlimit 5", E.Structural);
      ("delete unknown", "delete class nowhere", E.Unknown_class);
      ("delete backlogged", "delete class a", E.Class_active);
      ("delete root", "delete class root", E.Structural);
      ("attach unmapped", "attach filter flow 77 proto udp", E.Unknown_flow);
      ("detach none", "detach filter flow 1", E.Unknown_flow);
      ("stats unknown", "stats nowhere", E.Unknown_class);
    ]
  in
  List.iter
    (fun (what, line, code) ->
      let before = fingerprint eng in
      let r = exec1 eng ~now:0.002 line in
      check_code what code r;
      Alcotest.(check string) (what ^ ": state unchanged") before
        (fingerprint eng))
    cases;
  Alcotest.(check (list string)) "still audits clean" [] (E.audit eng)

(* A modify whose new curve is valid but whose queue limit is not must
   change nothing: the curve must not land before the limit is
   refused. *)
let test_modify_rollback () =
  let eng = make_engine () in
  let sched = E.scheduler eng in
  let b = Option.get (Hfsc.find_class sched "b") in
  let state_before = Hfsc.debug_state b in
  let fsc_before = Hfsc.fsc b in
  let r = exec1 eng ~now:0. "modify class b fsc 1Mbit qlimit -3" in
  check_code "bad qlimit fails the whole command" E.Bad_value r;
  Alcotest.(check bool) "fsc rolled back" true (Hfsc.fsc b = fsc_before);
  Alcotest.(check string) "internal state bit-identical" state_before
    (Hfsc.debug_state b);
  (* the same command without the poison pill applies both parts *)
  ignore (ok_exec (exec1 eng ~now:0. "modify class b fsc 1Mbit qlimit 7"));
  Alcotest.(check int) "qlimit applied" 7 (Hfsc.queue_limit_pkts b);
  Alcotest.(check bool) "fsc applied" true
    (match Hfsc.fsc b with Some f -> f.Sc.m2 = 125_000. | None -> false)

let test_limit_command () =
  let eng = make_engine () in
  let sched = E.scheduler eng in
  let r = ok_exec (exec1 eng ~now:0. "limit pkts 3 policy longest") in
  check_contains "response" r "pkts=3";
  Alcotest.(check int) "agg pkts" 3 (Hfsc.aggregate_limit_pkts sched);
  for s = 0 to 2 do
    ignore (E.enqueue_flow eng ~now:0. (pkt ~flow:1 ~seq:s ~now:0.))
  done;
  (* 4th packet exceeds the aggregate: the longest queue loses its tail *)
  Alcotest.(check bool) "eviction admits the arrival" true
    (E.enqueue_flow eng ~now:0. (pkt ~flow:2 ~seq:0 ~now:0.));
  Alcotest.(check int) "aggregate bound holds" 3 (Hfsc.backlog_pkts sched);
  let a = Option.get (Hfsc.find_class sched "a") in
  Alcotest.(check int) "victim shortened" 2 (Hfsc.queue_length a);
  (* the eviction is charged to the victim class, via the drop hook *)
  let ca = counters eng ~id:(Hfsc.id a) in
  Alcotest.(check int) "victim drop counted" 1 ca.T.drop_pkts;
  (* tail policy refuses the arrival instead *)
  ignore (ok_exec (exec1 eng ~now:0. "limit policy tail"));
  Alcotest.(check bool) "tail refuses" false
    (E.enqueue_flow eng ~now:0. (pkt ~flow:2 ~seq:1 ~now:0.));
  let cb =
    counters eng ~id:(Hfsc.id (Option.get (Hfsc.find_class sched "b")))
  in
  Alcotest.(check int) "refusal counted against the destination" 1
    cb.T.drop_pkts;
  (* lifting the bound re-admits *)
  ignore (ok_exec (exec1 eng ~now:0. "limit pkts none"));
  Alcotest.(check bool) "unlimited again" true
    (E.enqueue_flow eng ~now:0. (pkt ~flow:2 ~seq:2 ~now:0.));
  Alcotest.(check (list string)) "audits clean" [] (E.audit eng)

let test_usc_admission () =
  let eng = make_engine () in
  (* ulimit dominating the rsc: accepted *)
  ignore
    (ok_exec
       (exec1 eng ~now:0.
          "add class u parent root flow 8 rsc 1Mbit ulimit 2Mbit"));
  (* ulimit dipping below the rsc's burst: rejected, breakpoint named *)
  let r =
    exec1 eng ~now:0.
      "add class v parent root rsc m1 2Mbit d 10ms m2 0.1Mbit fsc 0.1Mbit \
       ulimit m1 1Mbit d 10ms m2 0.2Mbit"
  in
  check_code "code" E.Admission_ulimit r;
  check_contains "breakpoint named" (err_exec r) "breakpoint t=0.01";
  (* a modify that adds only the offending ulimit is also caught *)
  let r2 = exec1 eng ~now:0. "modify class u ulimit 0.5Mbit" in
  check_code "modify caught" E.Admission_ulimit r2

let test_audit_runs_clean () =
  let eng = make_engine ~audit_every:1 () in
  Alcotest.(check (list string)) "fresh engine" [] (E.audit eng);
  (* audit_every:1 re-validates after every op — any violation raises *)
  for s = 0 to 9 do
    ignore (E.enqueue_flow eng ~now:0. (pkt ~flow:1 ~seq:s ~now:0.));
    ignore (E.enqueue_flow eng ~now:0. (pkt ~flow:2 ~seq:s ~now:0.))
  done;
  ignore (ok_exec (exec1 eng ~now:0. "add class c parent root fsc 1Mbit"));
  let now = ref 0.001 in
  let rec go () =
    match E.dequeue eng ~now:!now with
    | Some _ ->
        now := !now +. 0.001;
        go ()
    | None -> ()
  in
  go ();
  Alcotest.(check (list string)) "after drain" [] (E.audit eng)

(* --- exec_script ---------------------------------------------------- *)

(* A one-link router over a bare engine runs unscoped commands exactly
   as the engine would. *)
let test_exec_script_lenient () =
  let eng = make_engine () in
  let script =
    "add class c parent root flow 9 fsc 1Mbit\n\
     at 1 add class c parent root fsc 1Mbit\n\
     at 2 delete class c\n"
  in
  let outcomes =
    Runtime.Router.exec_script ~lenient:true
      (Runtime.Router.of_engines [ ("link0", eng) ])
      (ok_script (C.parse_script script))
  in
  (match outcomes with
  | [ (0., _, Ok _); (1., _, Error dup); (2., _, Ok _) ] ->
      check_contains "duplicate name" (E.error_message dup) "already exists";
      Alcotest.(check string) "duplicate code" "duplicate-class"
        (E.error_code_name (E.error_code dup))
  | _ -> Alcotest.fail "unexpected outcome shape");
  Alcotest.(check bool) "c deleted again" true
    (Hfsc.find_class (E.scheduler eng) "c" = None)

let test_exec_script_strict () =
  let eng = make_engine () in
  let script =
    "add class c parent root flow 9 fsc 1Mbit\n\
     at 1 add class c parent root fsc 1Mbit\n\
     at 2 delete class c\n"
  in
  let outcomes =
    Runtime.Router.exec_script
      (Runtime.Router.of_engines [ ("link0", eng) ])
      (ok_script (C.parse_script script))
  in
  (* strict mode stops at the failing line, which is the last outcome *)
  (match outcomes with
  | [ (0., _, Ok _); (1., _, Error _) ] -> ()
  | _ -> Alcotest.fail "strict replay should stop at the error");
  Alcotest.(check bool) "delete never ran" true
    (Hfsc.find_class (E.scheduler eng) "c" <> None)

(* --- full-grammar pp/parse round-trip properties ------------------- *)

(* Every [Command.t] the grammar can express must satisfy
   [parse (pp cmd) = Ok cmd], link scope included. Floats survive
   exactly: pp_float falls back to %.17g and the Bps/s units multiply
   by 1.0. Generated [On_link] names avoid the reserved router verbs
   (add/delete/list) — the grammar cannot address links so named,
   which is asserted separately below. *)

module G = QCheck2.Gen

(* [long_factor]: how many times [count] the long run ([QCHECK_LONG],
   the @fuzz alias) draws *)
let qt ?(count = 250) ?(long_factor = 1) name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~long_factor ~name ~print gen prop)

let name_gen = G.string_size ~gen:(G.char_range 'a' 'z') (G.int_range 1 8)

let link_name_gen =
  G.map
    (function ("add" | "delete" | "list") as n -> n ^ "x" | n -> n)
    name_gen

let rate_gen = G.float_range 0.25 2.5e9

(* Bare-rate curves print as a single RATE token, so only [Sc.linear]
   shapes round-trip when d = 0; two-piece shapes need d > 0 or pp
   would drop a (semantically dead) m1. *)
let curve_gen =
  G.(
    oneof
      [
        map Sc.linear rate_gen;
        map3
          (fun m1 d m2 -> Sc.make ~m1 ~d ~m2)
          (oneof [ return 0.; rate_gen ])
          (float_range 1e-6 4.) rate_gen;
      ])

(* [ensure] forces the rsc-or-fsc requirement of [add class]. *)
let curves_gen ~ensure =
  G.(
    opt curve_gen >>= fun rsc ->
    opt curve_gen >>= fun fsc ->
    opt curve_gen >>= fun usc ->
    if ensure && rsc = None && fsc = None then
      map (fun c -> { C.rsc = None; fsc = Some c; usc }) curve_gen
    else return { C.rsc; fsc; usc })

let limit_val_gen =
  G.(oneof [ return C.Unlimited; map (fun n -> C.At n) (int_range 1 100_000) ])

let port_gen = G.int_range 0 65535

let filter_gen =
  G.(
    int_range 0 999 >>= fun fflow ->
    opt (map (Printf.sprintf "10.%d.0.0/16") (int_range 0 255)) >>= fun fsrc ->
    opt (map (Printf.sprintf "192.168.%d.0/24") (int_range 0 255))
    >>= fun fdst ->
    opt
      (oneof
         [
           return Pkt.Header.Tcp;
           return Pkt.Header.Udp;
           return Pkt.Header.Icmp;
           map (fun n -> Pkt.Header.Other n) (int_range 0 255);
         ])
    >>= fun fproto ->
    opt (pair port_gen port_gen) >>= fun fsport ->
    opt (pair port_gen port_gen) >>= fun fdport ->
    return { C.fflow; fsrc; fdst; fproto; fsport; fdport })

let op_gen =
  G.(
    frequency
      [
        ( 3,
          name_gen >>= fun name ->
          name_gen >>= fun parent ->
          opt (int_range 0 999) >>= fun flow ->
          curves_gen ~ensure:true >>= fun curves ->
          opt (int_range 1 100_000) >>= fun quantum ->
          opt (int_range 1 500) >>= fun qlimit ->
          opt (int_range 1 2_000_000) >>= fun qbytes ->
          return
            (C.Add_class { name; parent; flow; curves; quantum; qlimit; qbytes })
        );
        ( 3,
          name_gen >>= fun name ->
          curves_gen ~ensure:false >>= fun curves ->
          opt (int_range 1 100_000) >>= fun quantum ->
          opt (int_range 1 500) >>= fun qlimit ->
          opt (int_range 1 2_000_000) >>= fun qbytes ->
          (* the parser rejects a modify with nothing to change *)
          if
            curves = { C.rsc = None; fsc = None; usc = None }
            && quantum = None && qlimit = None && qbytes = None
          then
            map
              (fun q ->
                C.Modify_class { name; curves; quantum; qlimit = Some q; qbytes })
              (int_range 1 500)
          else return (C.Modify_class { name; curves; quantum; qlimit; qbytes })
        );
        (2, map (fun n -> C.Delete_class n) name_gen);
        (3, map (fun f -> C.Attach_filter f) filter_gen);
        (1, map (fun n -> C.Detach_filter n) (int_range 0 999));
        (1, map (fun n -> C.Stats n) (opt name_gen));
        ( 1,
          map
            (fun t -> C.Trace t)
            (oneofl [ C.Trace_on; C.Trace_off; C.Trace_dump ]) );
        ( 2,
          opt limit_val_gen >>= fun lpkts ->
          opt limit_val_gen >>= fun lbytes ->
          opt (oneofl [ C.Policy_tail; C.Policy_longest ]) >>= fun lpolicy ->
          (* likewise, [limit] needs at least one field *)
          if lpkts = None && lbytes = None && lpolicy = None then
            map
              (fun v -> C.Set_limit { lpkts = Some v; lbytes; lpolicy })
              limit_val_gen
          else return (C.Set_limit { lpkts; lbytes; lpolicy }) );
        ( 1,
          map3
            (fun link rate backend -> C.Link_add { link; rate; backend })
            link_name_gen rate_gen
            (oneofl [ Runtime.Backend.Hfsc_kind; Runtime.Backend.Rr_kind ]) );
        (1, map (fun l -> C.Link_delete l) link_name_gen);
        (1, return C.Link_list);
      ])

let cmd_gen =
  G.(
    op_gen >>= fun op ->
    match op with
    | C.Link_add _ | C.Link_delete _ | C.Link_list ->
        (* the router verbs always parse as Default_link *)
        return { C.target = C.Default_link; op }
    | _ ->
        oneof
          [ return C.Default_link; map (fun n -> C.On_link n) link_name_gen ]
        >>= fun target -> return { C.target; op })

let pp_cmd cmd = Format.asprintf "%a" C.pp cmd

let roundtrip_cmd =
  qt "parse (pp cmd) = Ok cmd over the full grammar" cmd_gen pp_cmd (fun cmd ->
      C.parse (pp_cmd cmd) = Ok cmd)

(* The float text the journal's bytes are made of: [%.12g] when that
   reads back as the same float, else [%.17g]. The writer may shortcut
   integers; its text must stay exactly this rule's, around the
   shortcut's edges (±0., 1e12 ± 1) and at the extremes. *)
let float_text_rule v =
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let float_text_matches_rule =
  let edges =
    [ 0.; -0.; 1.; -1.; 1e12 -. 1.; 1e12; 1e12 +. 1.; -.(1e12 -. 1.); -1e12;
      -.(1e12 +. 1.); 4503599627370496.5; 9007199254740993.; 1e-300; 1e300;
      -1e300; 5e-324; 2.5e-310; Float.min_float; Float.max_float;
      Float.epsilon; 0.1; 1. /. 3.; infinity; neg_infinity; nan ]
  in
  let gen =
    G.oneof
      [
        G.oneofl edges;
        G.float;
        G.map Float.of_int (G.int_range (-2_000_000_000_000) 2_000_000_000_000);
        G.map (fun n -> Float.of_int n *. 0.125) (G.int_range (-1_000_000) 1_000_000);
        G.map Int64.float_of_bits G.int64;
      ]
  in
  qt ~count:2000 "pp_float text = %.12g if it round-trips, else %.17g" gen
    (Printf.sprintf "%h") (fun v ->
      Format.asprintf "%a" C.pp_float v = float_text_rule v)

(* The direct Buffer writers behind the journal's bytes and the
   fingerprint's preimage, against the conversions they replace. *)
let buffer_text write v =
  let b = Buffer.create 32 in
  write b v;
  Buffer.contents b

let add_int_matches_string_of_int =
  let pow10 = List.init 19 (fun k -> int_of_float (10. ** float_of_int k)) in
  let edges =
    [ 0; min_int; max_int; min_int + 1; max_int - 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; -p; 1 - p ]) pow10
  in
  let gen =
    G.oneof [ G.oneofl edges; G.int; G.int_range (-100_000) 100_000 ]
  in
  qt ~count:2000 "add_int text = string_of_int" gen string_of_int (fun n ->
      buffer_text C.add_int n = string_of_int n)

let add_hex_float_matches_printf =
  let edges =
    [ 0.; -0.; 5e-324; -5e-324; 2.5e-310; -2.5e-310; Float.min_float;
      Float.max_float; -.Float.max_float; 1e300; -1e300; infinity;
      neg_infinity; nan; Float.neg nan; 1.; -1.; 0.1; 1. /. 3.; 1.25e6 ]
  in
  let gen =
    G.oneof
      [ G.oneofl edges; G.float; G.map Int64.float_of_bits G.int64;
        G.float_range (-1e6) 1e6 ]
  in
  qt ~count:2000 "add_hex_float text = %h" gen (Printf.sprintf "%h") (fun v ->
      buffer_text E.add_hex_float v = Printf.sprintf "%h" v)

let add_quoted_matches_printf =
  let edges =
    [ ""; "\""; "\\"; "a\"b\\c"; "\n\t\r\b"; "\000\001\031\127";
      "\128\200\255"; "caf\195\169"; "'" ]
  in
  let gen =
    G.oneof
      [ G.oneofl edges;
        G.string_size ~gen:G.char (G.int_range 0 40);
        G.string_size ~gen:(G.oneofl [ '"'; '\\'; '\n'; '\000'; '\255'; 'a' ])
          (G.int_range 0 12) ]
  in
  qt ~count:2000 "add_quoted text = %S" gen (Printf.sprintf "%S") (fun s ->
      buffer_text E.add_quoted s = Printf.sprintf "%S" s)

let script_roundtrip =
  let gen =
    G.(list_size (int_range 1 12) (pair (float_range 0. 100.) cmd_gen))
  in
  let print entries =
    String.concat "\n"
      (List.map
         (fun (t, c) -> Printf.sprintf "at %.17g %s" t (pp_cmd c))
         entries)
  in
  qt ~count:100 "parse_script (pp script) recovers every command and time" gen
    print (fun entries ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "# generated script\n";
      List.iteri
        (fun i (t, c) ->
          (* blank lines and trailing comments must not shift anything *)
          if i mod 3 = 2 then Buffer.add_char buf '\n';
          Buffer.add_string buf
            (Printf.sprintf "at %.17g %s # c%d\n" t (pp_cmd c) i))
        entries;
      match C.parse_script (Buffer.contents buf) with
      | Error _ -> false
      | Ok got -> got = entries)

let script_attribution =
  let gen = G.(pair (int_range 0 6) (list_size (int_range 0 6) cmd_gen)) in
  let print (k, cmds) =
    Printf.sprintf "bad line after %d of [%s]" k
      (String.concat "; " (List.map pp_cmd cmds))
  in
  qt ~count:100 "script errors carry the physical 1-based line" gen print
    (fun (k, cmds) ->
      let k = min k (List.length cmds) in
      let lines = List.map pp_cmd cmds in
      let before = List.filteri (fun i _ -> i < k) lines in
      let after = List.filteri (fun i _ -> i >= k) lines in
      let cat ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
      let body = "# header\n" ^ cat before ^ "frobnicate now\n" ^ cat after in
      match C.parse_script body with
      | Ok _ -> false
      | Error { C.line; _ } -> line = k + 2)

(* Which attributes a class needs is its backend's rule, not the
   grammar's: a curve-less [add class] parses, an hfsc link refuses it
   as [bad-value], and an rr class without [quantum] — from a config
   too — gets the default quantum. *)
let test_class_rules_are_the_backends () =
  let cmd = ok (C.parse "add class x parent root flow 9") in
  check_code "curve-less hfsc class" E.Bad_value
    (E.exec (make_engine ()) ~now:0. cmd);
  let r, _ =
    ok
      (Runtime.Router.of_config
         (ok
            (Config.parse
               "link t rate 1Gbit backend rr\nclass x parent root flow 9\n")))
  in
  match
    List.filter
      (function C.Add_class _ -> true | _ -> false)
      (E.checkpoint_ops (Option.get (Runtime.Router.find_link r "t")))
  with
  | [ C.Add_class { name = "x"; quantum = Some q; _ } ] ->
      Alcotest.(check int) "default quantum" Sched.Hls.default_quantum q
  | _ -> Alcotest.fail "expected exactly class x"

let test_reserved_link_names () =
  (* the router verbs win: this is [link delete] of "stats", never a
     scope on a link named "delete" *)
  (match C.parse "link delete stats" with
  | Ok { C.target = C.Default_link; op = C.Link_delete "stats" } -> ()
  | _ -> Alcotest.fail "link delete wins over scope");
  (* a command addressed to a reserved-named link cannot be expressed:
     its own pp does not survive a round trip *)
  List.iter
    (fun n ->
      let cmd = { C.target = C.On_link n; op = C.Stats None } in
      match C.parse (pp_cmd cmd) with
      | Ok c when c = cmd -> Alcotest.failf "reserved name %S round-tripped" n
      | _ -> ())
    [ "add"; "delete"; "list" ];
  (* nor can [link add] create one: the router refuses the name *)
  let r = Runtime.Router.create () in
  List.iter
    (fun n ->
      check_code ("link add " ^ n) E.Bad_value
        (Runtime.Router.exec r ~now:0.
           (ok (C.parse (Printf.sprintf "link add %s rate 1Mbit" n)))))
    [ "add"; "delete"; "list" ];
  Alcotest.(check int) "no link created" 0 (Runtime.Router.link_count r);
  (* read failures attribute to line 0, never a line of some other file *)
  match C.parse_script_file "/nonexistent/no_such_script.ctl" with
  | Ok _ -> Alcotest.fail "expected read failure"
  | Error { C.line; _ } -> Alcotest.(check int) "line 0" 0 line

(* --- admission from scratch ------------------------------------------ *)

(* The backend answers every class op from integer aggregates it keeps
   op by op. The oracle here shares no code with them: on every op it
   collects the scope's curves from [Hfsc.classes] afresh, converts each
   as the scheduler does, and evaluates demand and capacity at every
   knee tick of either side from the definition — an engine whose
   backend has its admission tests swapped for that. Every reply — the
   text, or the error code and message — must be the same. *)

module B = Runtime.Backend
module Fp = Curve.Fixed_point

let pp_violation ~what (at, demand, capacity) =
  if Float.is_finite at then
    Printf.sprintf
      "%s infeasible at breakpoint t=%.6gs: demand %.0f B > capacity %.0f B"
      what at demand capacity
  else
    Printf.sprintf
      "%s infeasible asymptotically: demand rate %.0f B/s > capacity %.0f B/s"
      what demand capacity

(* [curves] under [capacity]: the witness with the largest excess, the
   earlier knee on a tie, else the tail rates; [None] when they fit *)
let scratch_violation ~capacity curves =
  let knee c =
    let i = Fp.isc_of_sc c in
    if i.Fp.dx = 0 || i.sm1 = i.sm2 then (0, i.sm2, i.sm2)
    else (i.dx, i.sm1, i.sm2)
  in
  let secs tick = float_of_int tick /. Fp.tick_hz in
  let eval (dx, sm1, sm2) tick =
    if tick <= dx then float_of_int sm1 *. secs tick
    else
      (float_of_int sm1 *. secs dx)
      +. (float_of_int sm2 *. (secs tick -. secs dx))
  in
  let cap = knee capacity and ks = List.map knee curves in
  let ticks =
    List.sort_uniq compare
      (List.filter_map
         (fun (dx, _, _) -> if dx > 0 then Some dx else None)
         (cap :: ks))
  in
  let worst =
    List.fold_left
      (fun acc tick ->
        let d = List.fold_left (fun s k -> s +. eval k tick) 0. ks in
        let c = eval cap tick in
        match acc with
        | Some (_, d0, c0) when d0 -. c0 >= d -. c -> acc
        | _ when d > c -> Some (secs tick, d, c)
        | acc -> acc)
      None ticks
  in
  let tail = List.fold_left (fun s (_, _, sm2) -> s + sm2) 0 ks in
  let _, _, cap_rate = cap in
  match worst with
  | Some _ -> worst
  | None when tail > cap_rate ->
      Some (infinity, float_of_int tail, float_of_int cap_rate)
  | None -> None

let fold_admission ~link_rate sched (be : B.t) =
  let ( let* ) = Result.bind in
  let refuse code what = function
    | None -> Ok ()
    | Some v -> Error { B.code; message = pp_violation ~what v }
  in
  (* the scope's curves with [replace] for [target], or added when there
     is no target *)
  let scope ~target ~replace cls_curve classes =
    let curves =
      List.filter_map
        (fun c ->
          match target with
          | Some tc when tc == c -> replace
          | _ -> cls_curve c)
        classes
    in
    if target = None then Option.to_list replace @ curves else curves
  in
  let rsc ~target ~replace =
    refuse B.Admission_realtime "real-time guarantees"
      (scratch_violation ~capacity:(Sc.linear link_rate)
         (scope ~target ~replace
            (fun c -> if Hfsc.is_leaf c then Hfsc.rsc c else None)
            (Hfsc.classes sched)))
  in
  let fsc_under ~parent ~target ~replace =
    match Hfsc.fsc parent with
    | None -> Ok ()
    | Some pfsc ->
        refuse B.Admission_linkshare
          (Printf.sprintf "link-sharing under class %S" (Hfsc.name parent))
          (scratch_violation ~capacity:pfsc
             (scope ~target ~replace Hfsc.fsc (Hfsc.children parent)))
  in
  let usc ~name ~rsc ~usc =
    match (rsc, usc) with
    | Some rsc, Some usc ->
        refuse B.Admission_ulimit
          (Printf.sprintf "upper limit of class %S against its rsc" name)
          (scratch_violation ~capacity:usc [ rsc ])
    | _ -> Ok ()
  in
  let params ~name (p : B.params) =
    match
      Hfsc.check_curves (Printf.sprintf "class %S" name) ~rsc:p.rsc ~fsc:p.fsc
        ~usc:p.usc
    with
    | () -> Ok ()
    | exception Invalid_argument message ->
        Error { B.code = B.Bad_value; message }
  in
  let admit_add ~parent ~name (p : B.params) =
    let* () = params ~name p in
    let* () =
      if p.rsc = None && p.fsc = None then
        Error
          {
            B.code = B.Bad_value;
            message = Printf.sprintf "class %S needs an rsc or an fsc" name;
          }
      else Ok ()
    in
    let parent = Hfsc.class_of_id sched parent in
    let* () = if p.rsc = None then Ok () else rsc ~target:None ~replace:p.rsc in
    let eff_fsc = if p.fsc = None then p.rsc else p.fsc in
    let* () = fsc_under ~parent ~target:None ~replace:eff_fsc in
    usc ~name ~rsc:p.rsc ~usc:p.usc
  in
  let admit_modify ~id ~name (p : B.params) =
    let* () = params ~name p in
    let cls = Hfsc.class_of_id sched id in
    let* () =
      if p.rsc = None then Ok () else rsc ~target:(Some cls) ~replace:p.rsc
    in
    let* () =
      match (p.fsc, Hfsc.parent cls) with
      | Some _, Some parent ->
          fsc_under ~parent ~target:(Some cls) ~replace:p.fsc
      | _ -> Ok ()
    in
    let* () =
      match p.fsc with
      | Some nfsc when not (Hfsc.is_leaf cls) ->
          refuse B.Admission_linkshare
            (Printf.sprintf "children of class %S against its new fsc" name)
            (scratch_violation ~capacity:nfsc
               (List.filter_map Hfsc.fsc (Hfsc.children cls)))
      | _ -> Ok ()
    in
    let or_own o f = if o = None then f cls else o in
    usc ~name ~rsc:(or_own p.rsc Hfsc.rsc) ~usc:(or_own p.usc Hfsc.usc)
  in
  { be with B.admit_add; admit_modify }

let fold_engine ~link_rate =
  let sched = Hfsc.create ~link_rate () in
  E.create_backend
    (fold_admission ~link_rate sched (B.of_hfsc ~link_rate sched))
    ~flow_map:[] ()

let reply = function
  | Ok text -> "ok " ^ text
  | Error e -> E.error_code_name (E.error_code e) ^ " " ^ E.error_message e

let add_op ?rsc ?fsc ?usc name parent =
  C.Add_class
    {
      name;
      parent;
      flow = None;
      curves = { C.rsc; fsc; usc };
      quantum = None;
      qlimit = None;
      qbytes = None;
    }

let modify_op ?rsc ?fsc ?usc name =
  C.Modify_class
    {
      name;
      curves = { C.rsc; fsc; usc };
      quantum = None;
      qlimit = None;
      qbytes = None;
    }

(* 0.2 + 0.3 + 0.4 (x 2^30 B/s) is 0.9 summed in that order and one
   ulp more summed 0.4 + 0.2 + 0.3: at 2^30 B/s that ulp is 1.2e-7 B/s,
   so a float sum's verdict on a 0.9 x 2^30 B/s link rests on the order
   the classes arrived in. In the scheduler's whole B/s the rates are
   214748365, 322122547 and 429496730 and the link 966367642: an exact
   fit in every order. *)
let order_scale = 1073741824.

let order_ops order =
  let lin k = Sc.linear (k *. order_scale) in
  let small = Sc.linear 1e3 in
  List.map
    (fun (name, k) -> add_op name "root" ~rsc:(lin k) ~fsc:small)
    order
  @ [ modify_op "b" ~rsc:(lin 0.3); modify_op "a" ~rsc:(lin 0.2) ]

let test_order_case () =
  let link_rate = 0.9 *. order_scale in
  let abc = [ ("a", 0.2); ("b", 0.3); ("c", 0.4) ] in
  let orders =
    List.concat_map
      (fun x ->
        let rest = List.filter (( != ) x) abc in
        List.concat_map
          (fun y -> [ [ x; y; List.find (fun z -> z != x && z != y) rest ] ])
          rest)
      abc
  in
  Alcotest.(check int) "six orders" 6 (List.length orders);
  List.iter
    (fun order ->
      let eng =
        E.create ~audit_every:1 ~link_rate (Hfsc.create ~link_rate ())
          ~flow_map:[] ()
      and oracle = fold_engine ~link_rate in
      let replies e =
        List.map (fun op -> reply (E.exec_op e ~now:0. op)) (order_ops order)
      in
      let got = replies eng in
      Alcotest.(check (list string))
        "replies = the reference's" (replies oracle) got;
      List.iter
        (fun r -> Alcotest.(check bool) ("admitted: " ^ r) true (r.[0] = 'o'))
        got;
      check_contains "a fourth rsc is refused on its tail"
        (reply
           (E.exec_op eng ~now:0.
              (add_op "d" "root" ~rsc:(Sc.linear 1.) ~fsc:(Sc.linear 1e3))))
        "admission-realtime real-time guarantees infeasible asymptotically")
    orders

(* Curves shaped as test_analysis's sweep cases draws them, at 0.8-1.2x
   of [base]: a few ops fill a scope to around its capacity, so
   verdicts land on both sides of it and near the boundary. *)
let curve_gen base =
  let open G in
  (* 0.8 + [0, 0.4]: float_range's shrinker leaves its own range *)
  let scale = map (( +. ) 0.8) (float_bound_inclusive 0.4) in
  let* a = scale and* b = scale in
  let a = a *. base and b = b *. base in
  let* d = oneofl [ 0.001; 0.002; 0.01; 0.05 ] in
  oneofl
    [
      Sc.make ~m1:(Float.max a b) ~d ~m2:(Float.min a b);
      Sc.make ~m1:(Float.min a b) ~d ~m2:(Float.max a b);
      Sc.linear a;
      Sc.make ~m1:a ~d:0. ~m2:b;
      Sc.make ~m1:a ~d ~m2:a;
    ]

let class_names = [ "a"; "b"; "c"; "d"; "e"; "f" ]

let ops_gen ~link_rate =
  let open G in
  let name = oneofl class_names in
  let curve =
    let* share = oneofl [ 4.; 4.; 12. ] in
    curve_gen (link_rate /. share)
  in
  let maybe p g = frequency [ (p, map Option.some g); (10 - p, pure None) ] in
  let op =
    frequency
      [
        ( 6,
          let* n = name
          and* parent = frequency [ (2, pure "root"); (3, name) ] in
          let* rsc = maybe 5 curve and* fsc = maybe 7 curve in
          let* usc = maybe 1 curve in
          pure (add_op ?rsc ?fsc ?usc n parent) );
        ( 3,
          let* n = oneofl ("root" :: class_names) in
          let* rsc = maybe 4 curve and* fsc = maybe 6 curve in
          let* usc = maybe 1 curve in
          pure (modify_op ?rsc ?fsc ?usc n) );
        (2, map (fun n -> C.Delete_class n) name);
      ]
  in
  list_size (int_range 1 60) op

let sums_match_fold =
  let gen =
    let open G in
    let* link_rate = oneofl [ 1e6; 1.25e8; 0.9 *. order_scale ] in
    let* ops =
      frequency
        [
          (9, ops_gen ~link_rate);
          (1, pure (order_ops [ ("c", 0.4); ("a", 0.2); ("b", 0.3) ]));
        ]
    in
    pure (link_rate, ops)
  in
  let print (link_rate, ops) =
    Printf.sprintf "link %h:\n%s" link_rate
      (String.concat "\n"
         (List.map (fun op -> pp_cmd { C.target = C.Default_link; op }) ops))
  in
  qt ~count:300 ~long_factor:20 "replies = a fold from scratch, op by op" gen
    print
    (fun (link_rate, ops) ->
      let eng =
        E.create ~audit_every:1 ~link_rate (Hfsc.create ~link_rate ())
          ~flow_map:[] ()
      and oracle = fold_engine ~link_rate in
      List.for_all
        (fun op ->
          let want = reply (E.exec_op oracle ~now:0. op) in
          let got = reply (E.exec_op eng ~now:0. op) in
          want = got
          || QCheck2.Test.fail_reportf "%s\n  scratch: %s\n  sums: %s"
               (pp_cmd { C.target = C.Default_link; op })
               want got)
        ops)

(* One multiset of curves, inserted in random orders interleaved with
   adds and removes of other classes, must get one reply for a probe:
   the same verdict and, on a refusal, the same text. The multiset's
   classes are leaves under a parent [p], each with its curve as rsc
   and fsc, so they fill both the link's scope and [p]'s; at most 0.12
   of the link each, under a [p] of at least 0.64, they fit both in
   any order. The others are
   small leaves under the root, all gone before the probe, which adds
   one more class to [p] with an rsc and a small fsc (judged on the
   link) or an fsc only (judged under [p]), sized around what is
   left. *)
let order_independent =
  let gen =
    let open G in
    let* link_rate = oneofl [ 1e6; 1.25e8; 0.9 *. order_scale ] in
    let* members = list_size (int_range 2 5) (curve_gen (link_rate /. 10.)) in
    let* pfsc = curve_gen (link_rate *. 0.8) in
    let left =
      link_rate -. List.fold_left (fun s c -> s +. Sc.rate c) 0. members
    in
    let* with_rsc = bool in
    let* probe =
      curve_gen (if with_rsc then left else Sc.rate pfsc -. (link_rate -. left))
    in
    (* per order: the permutation, and before each member maybe an
       other class added (true) or the oldest removed (false) *)
    let order =
      pair (shuffle_l (List.init (List.length members) Fun.id))
        (list_repeat (List.length members) (opt bool))
    in
    let* orders = list_size (int_range 2 5) order in
    pure (link_rate, members, pfsc, with_rsc, probe, orders)
  in
  let print (link_rate, members, pfsc, with_rsc, probe, orders) =
    Format.asprintf "link %h, p %a, members [%a], probe %s %a, orders %s"
      link_rate Sc.pp pfsc
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Sc.pp)
      members
      (if with_rsc then "rsc" else "fsc")
      Sc.pp probe
      (String.concat "; "
         (List.map
            (fun (perm, _) -> String.concat "," (List.map string_of_int perm))
            orders))
  in
  qt ~count:200 ~long_factor:20 "one multiset, one reply, in any order" gen
    print
    (fun (link_rate, members, pfsc, with_rsc, probe, orders) ->
      let members = Array.of_list members in
      let run (perm, others) =
        let eng =
          E.create ~audit_every:1 ~link_rate (Hfsc.create ~link_rate ())
            ~flow_map:[] ()
        in
        let exec op =
          let r = reply (E.exec_op eng ~now:0. op) in
          if r.[0] <> 'o' then
            QCheck2.Test.fail_reportf "%s refused: %s"
              (pp_cmd { C.target = C.Default_link; op })
              r
        in
        exec (add_op "p" "root" ~fsc:pfsc);
        let small = Sc.linear (link_rate /. 128.) in
        let alive = Queue.create () and next = ref 0 in
        List.iter2
          (fun i other ->
            (match other with
            | Some true when Queue.length alive < 3 ->
                let n = Printf.sprintf "o%d" !next in
                incr next;
                exec (add_op n "root" ~rsc:small ~fsc:small);
                Queue.push n alive
            | Some false when not (Queue.is_empty alive) ->
                exec (C.Delete_class (Queue.pop alive))
            | _ -> ());
            let c = members.(i) in
            exec (add_op (Printf.sprintf "m%d" i) "p" ~rsc:c ~fsc:c))
          perm others;
        Queue.iter (fun n -> exec (C.Delete_class n)) alive;
        (* an acceptance names the new id, which the others moved *)
        match
          E.exec_op eng ~now:0.
            (if with_rsc then add_op "z" "p" ~rsc:probe ~fsc:small
             else add_op "z" "p" ~fsc:probe)
        with
        | Ok _ -> "ok"
        | r -> reply r
      in
      match List.map run orders with
      | [] -> true
      | first :: rest ->
          List.for_all (String.equal first) rest
          || QCheck2.Test.fail_reportf "replies differ:\n%s"
               (String.concat "\n" (first :: rest)))

(* A class op's cost must not grow with the classes the link already
   holds: with 16 groups of leaves the next op costs what it does with
   one group. Adds go into a tree where every leaf has an rsc, so a
   fold over the link's real-time curves would walk all of them; an
   rsc leaf added and deleted again, in a tree of fsc-only leaves,
   empties the link's sum each time, where any rebuild from the
   classes would cost as much. The ids stay clear of a power of two,
   where the telemetry tables double. *)
(* Announcing class ids makes one counters record per announced id,
   not one per slot of the grown table. Ids 0-1010 grow the tables to
   1,024 slots: 1,011 records of 11 words, plus the growth steps still
   small enough for the minor heap (the record and flag tables at 8 to
   256 slots, 510 words each; the curve table at 32 to 256 floats, 484
   words), 12,625 words in all. A record per slot, made at each
   doubling, costs 231 words more. *)
let test_ensure_class_allocation () =
  let t = T.create () in
  let before = Gc.minor_words () in
  for id = 0 to 1010 do
    T.ensure_class t ~id
  done;
  let words = Gc.minor_words () -. before in
  let expected = float_of_int ((1011 * 11) + (2 * 510) + 484) in
  if words > expected then
    Alcotest.failf
      "announcing ids 0-1010 allocated %.0f minor words, want at most %.0f"
      words expected

let test_add_allocation () =
  let rsc = Sc.make ~m1:6e4 ~d:0.002 ~m2:4e4 and fsc = Sc.linear 4e4 in
  let words_per_op ~leaf_rsc ~churn groups =
    let link_rate = 2e9 in
    let eng =
      E.create ~link_rate (Hfsc.create ~link_rate ()) ~flow_map:[] ()
    in
    let exec op = ignore (ok_exec (E.exec_op eng ~now:0. op)) in
    for g = 0 to groups - 1 do
      let group = Printf.sprintf "g%d" g in
      exec (add_op group "root" ~fsc:(Sc.linear 1e8));
      for i = 0 to 959 do
        exec (add_op (Printf.sprintf "%s.%d" group i) group ?rsc:leaf_rsc ~fsc)
      done
    done;
    let names = List.init 32 (Printf.sprintf "x%d") in
    let before = Gc.minor_words () in
    List.iter
      (fun n ->
        exec (add_op n "g0" ~rsc ~fsc);
        if churn then exec (C.Delete_class n))
      names;
    (Gc.minor_words () -. before) /. 32.
  in
  List.iter
    (fun (what, leaf_rsc, churn) ->
      let small = words_per_op ~leaf_rsc ~churn 1
      and large = words_per_op ~leaf_rsc ~churn 16 in
      if large > 2. *. small then
        Alcotest.failf
          "%s at 16k classes allocates %.0f minor words, at 1k %.0f: want \
           at most twice"
          what large small)
    [
      ("an add among rsc leaves", Some rsc, false);
      ("an rsc add and delete among fsc-only leaves", None, true);
    ]

let () =
  Alcotest.run "runtime"
    [
      ( "command",
        [
          Alcotest.test_case "parse add" `Quick test_parse_add;
          Alcotest.test_case "parse others" `Quick test_parse_others;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "parse link grammar" `Quick
            test_parse_link_grammar;
          Alcotest.test_case "parse limit + queue bounds" `Quick
            test_parse_limit;
          Alcotest.test_case "script" `Quick test_script;
          Alcotest.test_case "script error line" `Quick
            test_script_error_line;
          Alcotest.test_case "class rules are the backend's" `Quick
            test_class_rules_are_the_backends;
        ] );
      ( "admission",
        [
          Alcotest.test_case "rt asymptotic" `Quick
            test_admission_rt_asymptotic;
          Alcotest.test_case "rt breakpoint" `Quick
            test_admission_rt_breakpoint;
          Alcotest.test_case "fsc under parent" `Quick
            test_admission_fsc_under_parent;
          Alcotest.test_case "ulimit vs rsc" `Quick test_usc_admission;
          Alcotest.test_case "every order admits 0.2 + 0.3 + 0.4" `Quick
            test_order_case;
          sums_match_fold;
          order_independent;
          Alcotest.test_case "add allocation independent of classes" `Quick
            test_add_allocation;
        ] );
      ( "transactional",
        [
          Alcotest.test_case "error paths leave state" `Quick
            test_error_paths_leave_state;
          Alcotest.test_case "modify rollback" `Quick test_modify_rollback;
          Alcotest.test_case "limit command" `Quick test_limit_command;
          Alcotest.test_case "audit runs clean" `Quick test_audit_runs_clean;
        ] );
      ( "reconfigure",
        [
          Alcotest.test_case "live add/modify/delete" `Quick
            test_live_reconfigure;
          Alcotest.test_case "exec_script lenient" `Quick
            test_exec_script_lenient;
          Alcotest.test_case "exec_script strict" `Quick
            test_exec_script_strict;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters match service" `Quick
            test_counters_match_service;
          Alcotest.test_case "drops counted" `Quick test_drops_counted;
          Alcotest.test_case "trace ring wrap" `Quick test_trace_ring_wrap;
          Alcotest.test_case "trace kinds + toggle" `Quick
            test_trace_kinds_and_toggle;
          Alcotest.test_case "deadline misses" `Quick test_deadline_miss;
          Alcotest.test_case "traced dequeue allocation" `Quick
            test_traced_dequeue_allocates_nothing_extra;
          Alcotest.test_case "simulated poll allocation" `Quick
            test_simulated_poll_allocation;
          Alcotest.test_case "stats-json escapes control bytes" `Quick
            test_stats_json_escapes_control_bytes;
          Alcotest.test_case "class announcement allocation" `Quick
            test_ensure_class_allocation;
        ] );
      ( "flows",
        [
          Alcotest.test_case "enqueue_flow hit allocates nothing" `Quick
            test_enqueue_flow_hit_allocation;
          Alcotest.test_case "extreme flow ids" `Quick test_extreme_flow_ids;
        ] );
      ( "classify",
        [ Alcotest.test_case "attach/detach" `Quick test_attach_detach ] );
      ( "grammar",
        [
          roundtrip_cmd;
          float_text_matches_rule;
          add_int_matches_string_of_int;
          add_hex_float_matches_printf;
          add_quoted_matches_printf;
          script_roundtrip;
          script_attribution;
          Alcotest.test_case "reserved link names + attribution" `Quick
            test_reserved_link_names;
        ] );
    ]
