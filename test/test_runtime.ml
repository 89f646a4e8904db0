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
        op = C.Link_add { link = "north"; rate; backend = Config.Hfsc_backend };
      } ->
      Alcotest.(check (float 1e-9)) "rate in B/s" 625_000. rate
  | _ -> Alcotest.fail "link add");
  (match C.parse "link add south rate 5Mbit backend rr" with
  | Ok
      {
        C.target = C.Default_link;
        op = C.Link_add { link = "south"; backend = Config.Rr_backend; _ };
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
  check_contains "no curves"
    (err (C.parse "add class x parent root"))
    "rsc or an fsc";
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

let make_engine ?trace_capacity () =
  E.of_config ?trace_capacity (ok (Config.parse cfg_text))

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
  | Some id -> Alcotest.(check string) "routed to a" "a" (E.class_name eng id)
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

(* set_curves applies curve by curve, so a modify that fails on its
   queue limits after the curves landed must roll the class back. *)
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
  let eng = E.of_config ~audit_every:1 (ok (Config.parse cfg_text)) in
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

let test_exec_script_lenient () =
  let eng = make_engine () in
  let script =
    "add class c parent root flow 9 fsc 1Mbit\n\
     at 1 add class c parent root fsc 1Mbit\n\
     at 2 delete class c\n"
  in
  let outcomes =
    E.exec_script ~lenient:true eng (ok_script (C.parse_script script))
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
  let outcomes = E.exec_script eng (ok_script (C.parse_script script)) in
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

let qt ?(count = 250) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

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
            (oneofl [ Config.Hfsc_backend; Config.Rr_backend ]) );
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
  (* read failures attribute to line 0, never a line of some other file *)
  match C.parse_script_file "/nonexistent/no_such_script.ctl" with
  | Ok _ -> Alcotest.fail "expected read failure"
  | Error { C.line; _ } -> Alcotest.(check int) "line 0" 0 line

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
          Alcotest.test_case "stats-json escapes control bytes" `Quick
            test_stats_json_escapes_control_bytes;
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
