(* Sequential-vs-multicore differential fuzz: the same fuzzed
   command/packet interleaving (shared generator in [Hfsc_gen]) drives
   a [Runtime.Router] and a [Runtime.Mc_router] in lockstep, packets
   through each link's simulator adapter ([Engine.adapter] vs
   [Mc_router.adapter]), and every observable must match
   bit-identically per link:

   - every command reply (success string or typed error) — the control
     plane is [Router_core] on both sides, but this pins the worker
     turn's transactional semantics too;
   - every dequeued packet (identity, class, rt/ls criterion, order),
     one packet per [dequeue] on both sides, so engine audit ticks line
     up — half the drains are one [dequeue_burst], half a loop of
     single [dequeue]s — and the backlog and next-ready polls after
     each;
   - refusals: the multicore adapter's enqueue does not wait, so after
     every op but a packet, each link posted to since must show a
     [deferred_drops] equal to the number of [false]s the sequential
     adapter answered on it — late refusals are counted exactly even
     when a command (a class delete, say) runs while posts are
     unserved;
   - periodic cross-domain [snapshot]s against the sequential engine's;
   - the final auditor reports, stats exporters, and — after [stop]
     hands the engines back — the full per-engine state fingerprint.

   Link add/delete churn is part of the stream, so links joining and
   leaving a worker and directory rebuilds are exercised under
   load.

   Plain executable so op counts scale:
   [test_domains.exe [OPS] [SEEDS] [DOMAINS] [CALLS]], defaulting to
   400 1 2 2000 — the short deterministic run wired into [dune
   runtest]; CALLS is the watchdog case's call count per router. The
   [@domains] alias runs longer streams with 2 and 4 domains, and
   200,000 watchdog calls. *)

open Hfsc_gen

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("domains: " ^ s);
      exit 1)
    fmt

let audit_every = 64

module E = Runtime.Engine
module R = Runtime.Router
module M = Runtime.Mc_router

(* Same command pool as the router-level fuzz in test_fuzz: scoped
   reconfiguration, link churn, cross-link violations, ambiguous
   unscoped ops, and the hostile pool. *)
let router_command_pool =
  Array.append
    [|
      "link l0 add class tmp parent root flow 10 fsc 0.5Mbit qlimit 16";
      "link l0 delete class tmp";
      "link l1 modify class b qlimit 20 qbytes 32768";
      "link l1 attach filter flow 2 proto udp";
      "link l1 detach filter flow 2";
      "link l2 stats";
      "link l2 limit pkts 100 policy longest";
      "stats";
      "stats c";
      "trace on";
      "trace dump";
      "link add extra rate 2Mbit";
      "link extra add class x parent root flow 20 fsc 1Mbit";
      "link delete extra";
      "link list";
      "link nowhere stats";
      "link l0 add class dup parent root flow 2 fsc 0.1Mbit";
      "link l2 attach filter flow 1 proto tcp";
      "add class amb parent root fsc 1Mbit";
      "link add l0 rate 1Mbit";
      "attach filter flow 3 dst 10.9.0.0/16";
      "detach filter flow 3";
    |]
    Netsim.Faults.bad_commands

let show_res = function
  | Ok s -> "ok: " ^ s
  | Error e ->
      Printf.sprintf "error[%s]: %s"
        (E.error_code_name (E.error_code e))
        (E.error_message e)

(* one dequeued packet, fully observable *)
type deq = { flow : int; seq : int; size : int; cls : string; rt : bool }

let show_deq d =
  Printf.sprintf "flow=%d seq=%d size=%d cls=%s %s" d.flow d.seq d.size d.cls
    (if d.rt then "rt" else "ls")

let run_differential ~domains ~seed ~nops =
  let r = R.create ~audit_every ~trace_capacity:256 () in
  let m = M.create ~audit_every ~trace_capacity:256 ~domains () in
  let ctx = ref "setup" in
  let check_res what a b =
    if show_res a <> show_res b then
      fail "seed %d (%s, %s): %s:\n  sequential: %s\n  multicore:  %s" seed
        !ctx what what (show_res a) (show_res b)
  in
  List.iter
    (fun name ->
      check_res
        (Printf.sprintf "add_link %s" name)
        (R.add_link r ~name ~link_rate:1e6)
        (M.add_link m ~name ~link_rate:1e6))
    [ "l0"; "l1"; "l2" ];
  let exec_both ~now line =
    match Runtime.Command.parse line with
    | Error _ -> None (* garbage stops at the parser, both sides *)
    | Ok cmd ->
        let a = R.exec r ~now cmd in
        let b = M.exec m ~now cmd in
        check_res (Printf.sprintf "exec %S" line) a b;
        Some cmd
  in
  List.iter
    (fun line -> ignore (exec_both ~now:0. line))
    [
      "link l0 add class a parent root flow 1 fsc 2Mbit qlimit 64";
      "link l1 add class b parent root flow 2 fsc 2Mbit rsc 1Mbit";
      "link l2 add class c parent root flow 3 fsc 2Mbit qbytes 65536";
    ];
  let rng = Random.State.make [| 0x5eed; seed; 3 |] in
  (* a fixed opening: 20 posts into a 16-packet class, then the class's
     delete while they may still be pending on the worker *)
  let at0 eact = { edt = 0.; eact } in
  let ops =
    (at0 (Cmd "link l0 add class tmp parent root flow 10 fsc 0.5Mbit qlimit 16")
     :: List.init 20 (fun _ -> at0 (Pkt (10, 500))))
    @ at0 (Cmd "link l0 delete class tmp")
      :: gen_eng_ops ~rng ~pool:router_command_pool
           ~flows:[| 1; 2; 3; 10; 20; 77 |] ~nops ()
  in
  let dump = lazy (eng_dump ~what:"domains" ~seed ops) in
  let now = ref 0. in
  let pseq = ref 0 in
  let nop = ref 0 in
  (* one sequential adapter per link, dropped with the link, as the
     worker keeps one per port *)
  let seq_adapters : (string, Sched.Scheduler.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let seq_adapter name eng =
    match Hashtbl.find_opt seq_adapters name with
    | Some a -> a
    | None ->
        let a = E.adapter eng in
        Hashtbl.replace seq_adapters name a;
        a
  in
  let mc_adapter name =
    match M.adapter m ~link:name with
    | Some a -> a
    | None -> fail "seed %d (op %d): no adapter for %S" seed !nop name
  in
  let observe (s : Sched.Scheduler.served) =
    let p = s.Sched.Scheduler.pkt in
    {
      flow = p.Pkt.Packet.flow;
      seq = p.Pkt.Packet.seq;
      size = p.Pkt.Packet.size;
      cls = s.Sched.Scheduler.cls;
      rt = s.Sched.Scheduler.criterion = "rt";
    }
  in
  let drain pick =
    match R.links r with
    | [] ->
        if M.link_count m <> 0 then
          fail "seed %d (op %d): link counts diverge: 0 vs %d" seed !nop
            (M.link_count m)
    | links ->
        let name, eng = List.nth links (pick mod List.length links) in
        let max = 1 + (pick mod 8) in
        let now = !now in
        (* even picks: one [dequeue_burst]; odd: single dequeues *)
        let take (a : Sched.Scheduler.t) =
          List.map observe
            (if pick land 1 = 0 then Sched.Scheduler.dequeue_burst a ~now ~max
             else
               List.filter_map
                 (fun _ -> a.Sched.Scheduler.dequeue ~now)
                 (List.init max Fun.id))
        in
        let sa = seq_adapter name eng and ma = mc_adapter name in
        let seq_pkts = take sa and mc_pkts = take ma in
        if seq_pkts <> mc_pkts then
          fail
            "seed %d (op %d): dequeues diverge on link %S (max %d):\n\
            \  sequential (%d): %s\n\
            \  multicore  (%d): %s\n\
             %s"
            seed !nop name max (List.length seq_pkts)
            (String.concat "; " (List.map show_deq seq_pkts))
            (List.length mc_pkts)
            (String.concat "; " (List.map show_deq mc_pkts))
            (Lazy.force dump);
        let polls (a : Sched.Scheduler.t) =
          ( a.Sched.Scheduler.backlog_pkts (),
            a.Sched.Scheduler.backlog_bytes (),
            a.Sched.Scheduler.next_ready ~now )
        in
        if polls sa <> polls ma then
          fail "seed %d (op %d): polls diverge on link %S after a drain\n%s"
            seed !nop name (Lazy.force dump)
  in
  (* per link: the sequential adapter's [false] answers, reset with the
     link (a re-added link is a fresh port with a fresh count) *)
  let refused : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  (* links posted to since their count was last compared: no other
     link's count can have moved *)
  let unchecked : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let posted = ref 0 and late = ref 0 in
  let post flow size =
    incr pseq;
    let pkt = Pkt.Packet.make ~flow ~size ~seq:!pseq ~arrival:!now in
    match (R.link_of_flow r flow, M.link_of_flow m flow) with
    | None, None -> () (* no link owns it: nothing to post *)
    | Some name, Some name' when name = name' -> (
        let eng = List.assoc name (R.links r) in
        if not ((mc_adapter name).Sched.Scheduler.enqueue ~now:!now pkt) then
          fail "seed %d (op %d): healthy link %S refused a post" seed !nop name;
        incr posted;
        Hashtbl.replace unchecked name ();
        if not ((seq_adapter name eng).Sched.Scheduler.enqueue ~now:!now pkt)
        then begin
          incr late;
          match Hashtbl.find_opt refused name with
          | Some n -> incr n
          | None -> Hashtbl.replace refused name (ref 1)
        end)
    | a, b ->
        let show = Option.value ~default:"-" in
        fail "seed %d (op %d): flow %d routes to %s vs %s" seed !nop flow
          (show a) (show b)
  in
  let compare_refused () =
    let names = Hashtbl.to_seq_keys unchecked |> List.of_seq in
    Hashtbl.reset unchecked;
    List.iter
      (fun name ->
        let want =
          match Hashtbl.find_opt refused name with Some n -> !n | None -> 0
        in
        match M.adapter m ~link:name with
        | Some { Sched.Scheduler.deferred_drops = Some f; _ } ->
            let got = f () in
            if got <> want then
              fail
                "seed %d (op %d): link %S counts %d deferred drops, the \
                 sequential adapter refused %d\n\
                 %s"
                seed !nop name got want (Lazy.force dump)
        | _ -> fail "seed %d: link %S has no deferred count" seed name)
      (List.filter (fun name -> List.mem name (M.link_names m)) names)
  in
  let compare_snapshots () =
    List.iter
      (fun (name, eng) ->
        let a = E.snapshot eng in
        match M.snapshot m ~link:name with
        | None ->
            fail "seed %d (op %d): link %S missing on the multicore side" seed
              !nop name
        | Some b ->
            if a <> b then
              fail "seed %d (op %d): snapshot of link %S diverges\n%s" seed
                !nop name (Lazy.force dump))
      (R.links r)
  in
  (try
     List.iter
       (fun { edt; eact } ->
         incr nop;
         ctx := Printf.sprintf "op %d" !nop;
         now := !now +. edt;
         (match eact with
         | Cmd line -> (
             match exec_both ~now:!now line with
             | Some { Runtime.Command.op = Runtime.Command.Link_delete l; _ } ->
                 Hashtbl.remove seq_adapters l;
                 if not (List.mem l (M.link_names m)) then
                   Hashtbl.remove refused l
             | _ -> ())
         | Pkt (flow, size) -> post flow size
         | Drain pick -> drain pick);
         (match eact with Pkt _ -> () | _ -> compare_refused ());
         if !nop mod 97 = 0 then compare_snapshots ();
         if !nop mod 151 = 0 then begin
           let a = R.audit r and b = M.audit m in
           if a <> b then
             fail "seed %d (op %d): auditor reports diverge:\n%s\nvs\n%s" seed
               !nop (String.concat "\n" a) (String.concat "\n" b)
         end)
       ops
   with E.Audit_failure errs ->
     fail "seed %d (%s): audit failed:\n  %s\n%s" seed !ctx
       (String.concat "\n  " errs)
       (Lazy.force dump));
  (* final: auditor, exporters, then stop the workers and fingerprint
     the engines they hand back against the sequential ones *)
  ctx := "final";
  (match (R.audit r, M.audit m) with
  | [], [] -> ()
  | a, b ->
      fail "seed %d: final audits: %s vs %s" seed (String.concat "; " a)
        (String.concat "; " b));
  if R.stats_text r <> M.stats_text m then
    fail "seed %d: stats_text diverges\n%s" seed (Lazy.force dump);
  if
    Json_lite.to_string (R.stats_json r)
    <> Json_lite.to_string (M.stats_json m)
  then fail "seed %d: stats_json diverges\n%s" seed (Lazy.force dump);
  compare_snapshots ();
  let mc_links = M.stop m in
  let seq_links = R.links r in
  if List.map fst mc_links <> List.map fst seq_links then
    fail "seed %d: link sets diverge after stop: [%s] vs [%s]" seed
      (String.concat "; " (List.map fst seq_links))
      (String.concat "; " (List.map fst mc_links));
  List.iter2
    (fun (name, a) (_, b) ->
      if engine_fingerprint a <> engine_fingerprint b then
        fail "seed %d: engine fingerprints diverge on link %S\n%s" seed name
          (Lazy.force dump))
    seq_links mc_links;
  let fp_seq =
    device_fingerprint ~links:seq_links ~link_of_flow:(R.link_of_flow r)
  in
  let fp_mc =
    device_fingerprint ~links:mc_links ~link_of_flow:(M.link_of_flow m)
  in
  if fp_seq <> fp_mc then
    fail "seed %d: device fingerprints diverge\n%s" seed (Lazy.force dump);
  (!posted, !late)

(* Graceful degradation: poison one link's worker-side service and
   check the producer latches it — typed [Link_failed] replies, a dead
   data path, degraded queries, a checkpoint that keeps the [link add]
   but nothing below, an adapter whose posts were unserved at the
   failure keeping their refusal count whole — while every other link
   (including those sharing the poisoned link's worker domain) keeps
   serving, and [stop] does not re-raise a failure that was already
   surfaced as a reply. After [stop] every link is down: each call —
   command, snapshot, adapter post, dequeue or poll, a link added
   later — answers degraded at once instead of waiting on a worker
   that is gone. *)
let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let run_degradation ~domains =
  let m = M.create ~audit_every ~domains () in
  let check what b =
    if not b then fail "degradation (domains %d): %s" domains what
  in
  List.iter
    (fun name ->
      match M.add_link m ~name ~link_rate:1e6 with
      | Ok _ -> ()
      | Error e ->
          fail "degradation: add_link %s: %s" name (E.error_message e))
    [ "l0"; "l1"; "l2" ];
  let exec_line line =
    match Runtime.Command.parse line with
    | Error e -> fail "degradation: parse %S: %s" line e
    | Ok cmd -> M.exec m ~now:0. cmd
  in
  let ok_line line =
    match exec_line line with
    | Ok _ -> ()
    | Error e ->
        fail "degradation (domains %d): %S: %s" domains line
          (E.error_message e)
  in
  ok_line "link l0 add class a parent root flow 1 fsc 2Mbit qlimit 64";
  ok_line "link l1 add class b parent root flow 2 fsc 2Mbit qlimit 64";
  ok_line "link l2 add class c parent root flow 3 fsc 2Mbit qlimit 64";
  let adapter name =
    match M.adapter m ~link:name with
    | Some a -> a
    | None -> fail "degradation (domains %d): no adapter for %s" domains name
  in
  let a0 = adapter "l0" and a1 = adapter "l1" in
  let post (a : Sched.Scheduler.t) ~flow seq =
    a.Sched.Scheduler.enqueue ~now:0.
      (Pkt.Packet.make ~flow ~size:1000 ~seq ~arrival:0.)
  in
  let deferred (a : Sched.Scheduler.t) =
    match a.Sched.Scheduler.deferred_drops with
    | Some f -> f ()
    | None ->
        fail "degradation (domains %d): adapter has no deferred count" domains
  in
  check "pre-failure post on l0" (post a0 ~flow:1 1);
  check "pre-failure post on l1" (post a1 ~flow:2 2);
  check "pre-failure posts admitted" (deferred a0 = 0 && deferred a1 = 0);
  (* 70 posts into l1's 64-packet class (one slot taken), left pending
     on the worker when the failure is injected *)
  for seq = 100 to 169 do
    check "healthy adapter enqueue answers true" (post a1 ~flow:2 seq)
  done;
  check "unknown link refuses injection"
    (not (M.inject_failure m ~link:"nowhere"));
  check "injection reaches l1" (M.inject_failure m ~link:"l1");
  (* the injection queued behind every post, so the count is complete *)
  check "downed link's deferred drops cover every post" (deferred a1 = 7);
  check "downed adapter enqueue answers false" (not (post a1 ~flow:2 170));
  check "downed adapter dequeue_burst yields nothing"
    (Sched.Scheduler.dequeue_burst a1 ~now:0. ~max:4 = []);
  check "downed adapter dequeue yields nothing"
    (a1.Sched.Scheduler.dequeue ~now:0. = None);
  check "downed polls degrade"
    (a1.Sched.Scheduler.next_ready ~now:0. = None
    && a1.Sched.Scheduler.backlog_pkts () = 0
    && a1.Sched.Scheduler.backlog_bytes () = 0);
  check "downed deferred drops hold" (deferred a1 = 7);
  (match M.link_down m ~link:"l1" with
  | Some why ->
      check "latched reason names the injection" (contains why "Injected_failure")
  | None -> fail "degradation (domains %d): l1 not latched down" domains);
  check "l0 stays healthy" (M.link_down m ~link:"l0" = None);
  let check_link_failed what line =
    match exec_line line with
    | Error e ->
        check (what ^ ": typed Link_failed code") (E.error_code e = E.Link_failed);
        check (what ^ ": error message says down")
          (contains (E.error_message e) "down")
    | Ok r ->
        fail "degradation (domains %d): %s answered ok: %s" domains what r
  in
  (* a downed link still reports the rate and backend it was made with,
     and nothing below them *)
  let check_down_l1 stage =
    let want =
      Printf.sprintf "%-12s rate 1000000 B/s  classes 0  flows 0  backlog 0/0"
        "l1"
    in
    (match exec_line "link list" with
    | Ok list ->
        check (stage ^ ": link list shows l1 at its rate, empty")
          (List.mem want (String.split_on_char '\n' list))
    | Error e ->
        fail "degradation (domains %d): %s: link list: %s" domains stage
          (E.error_message e));
    check (stage ^ ": checkpoint's link add l1 carries rate 1e6")
      (List.exists
         (fun (_, c) ->
           match c.Runtime.Command.op with
           | Runtime.Command.Link_add { link = "l1"; rate; _ } -> rate = 1e6
           | _ -> false)
         (M.checkpoint m));
    check (stage ^ ": l1 keeps its rate")
      (List.exists
         (fun (link, rate, _) -> link = "l1" && rate = 1e6)
         (Runtime.Router_core.adapters (M.core m)))
  in
  check_down_l1 "downed l1";
  check_link_failed "command on downed l1" "link l1 stats";
  check "downed snapshot is None" (M.snapshot m ~link:"l1" = None);
  check "audit reports the downed link"
    (List.exists (fun l -> contains l "marked down") (M.audit m));
  check "stats shows the down marker" (contains (M.stats_text m) "down");
  let ck =
    List.map
      (fun (_, c) -> Format.asprintf "%a" Runtime.Command.pp c)
      (M.checkpoint m)
  in
  check "checkpoint keeps the downed link add"
    (List.exists (fun l -> contains l "add l1") ck);
  check "checkpoint drops the downed link's classes"
    (not (List.exists (fun l -> contains l "l1 add class") ck));
  check "checkpoint keeps the healthy link's classes"
    (List.exists (fun l -> contains l "l0 add class a") ck);
  (* survivors keep serving — even on the same worker domain as l1 *)
  ok_line "link l0 modify class a qlimit 32";
  ok_line "link l2 add class d parent root flow 4 fsc 1Mbit";
  check "healthy post survives" (post a0 ~flow:1 4);
  check "healthy link refused nothing" (deferred a0 = 0);
  check "healthy dequeue still delivers"
    (Sched.Scheduler.dequeue_burst a0 ~now:0.01 ~max:8 <> []);
  check "healthy polls answer" (a0.Sched.Scheduler.backlog_pkts () = 0);
  ignore (M.config_fingerprint m);
  (* must not raise: the failure was already surfaced as a reply *)
  let links = M.stop m in
  check "stop hands back every engine" (List.length links = 3);
  check "deferred drops after stop" (deferred a1 = 7);
  (* a stopped router has no workers: every call answers degraded at
     once instead of waiting on a worker that is gone *)
  check_link_failed "command after stop" "link l0 stats";
  check "snapshot after stop is None" (M.snapshot m ~link:"l0" = None);
  check "post after stop answers false" (not (post a0 ~flow:1 5));
  check "dequeue after stop yields nothing"
    (Sched.Scheduler.dequeue_burst a0 ~now:0.02 ~max:4 = []
    && a0.Sched.Scheduler.dequeue ~now:0.02 = None);
  check "polls after stop degrade"
    (a0.Sched.Scheduler.next_ready ~now:0.02 = None
    && a0.Sched.Scheduler.backlog_pkts () = 0
    && a0.Sched.Scheduler.backlog_bytes () = 0);
  check "deferred drops after stop hold" (deferred a0 = 0);
  check "every link is down after stop"
    (List.for_all (fun l -> M.link_down m ~link:l <> None) (M.link_names m));
  check_down_l1 "after stop";
  (* many links added after stop: none may wait on a worker *)
  for i = 1 to 100 do
    ignore (exec_line (Printf.sprintf "link add late%d rate 1Mbit" i))
  done;
  check_link_failed "command on a link added after stop" "link late1 stats";
  check "link added after stop is down" (M.link_down m ~link:"late100" <> None);
  check "stop stays idempotent" (List.length (M.stop m) = 103)

(* A full pending FIFO: far more posts into one link than its worker's
   FIFO holds (1024 posts, see mc_router.mli), with no dequeue in
   between, so the producer flushes the FIFO with an empty call four
   times. A small qlimit refuses most of them. The refusal count, the
   drained (flow, seq) order and the final engine fingerprint must be
   the sequential adapter's. *)
let run_full_ring () =
  let posts = 4 * 1024 in
  let r = R.create ~audit_every () in
  let m = M.create ~audit_every ~domains:1 () in
  let check what b = if not b then fail "full ring: %s" what in
  let setup =
    [
      "link add l0 rate 1Mbit";
      "link l0 add class a parent root flow 1 fsc 600Kbit qlimit 8";
      "link l0 add class b parent root flow 2 fsc 300Kbit qlimit 8";
    ]
  in
  List.iter
    (fun line ->
      match Runtime.Command.parse line with
      | Error e -> fail "full ring: parse %S: %s" line e
      | Ok cmd ->
          check (line ^ " agrees")
            (show_res (R.exec r ~now:0. cmd) = show_res (M.exec m ~now:0. cmd)))
    setup;
  let sa = E.adapter (List.assoc "l0" (R.links r)) in
  let ma =
    match M.adapter m ~link:"l0" with
    | Some a -> a
    | None -> fail "full ring: no adapter"
  in
  let pkts =
    Array.init posts (fun i ->
        let seq = i + 1 in
        let now = float_of_int seq *. 1e-6 in
        ( now,
          Pkt.Packet.make ~flow:(1 + (seq land 1)) ~size:500 ~seq
            ~arrival:now ))
  in
  (* the posts in a tight loop: the producer outruns the worker *)
  Array.iter
    (fun (now, pkt) ->
      check "a healthy link's post answers true"
        (ma.Sched.Scheduler.enqueue ~now pkt))
    pkts;
  let refused = ref 0 in
  Array.iter
    (fun (now, pkt) ->
      if not (sa.Sched.Scheduler.enqueue ~now pkt) then incr refused)
    pkts;
  check "most posts are refused" (!refused > posts / 2);
  (match ma.Sched.Scheduler.deferred_drops with
  | Some f ->
      let got = f () in
      if got <> !refused then
        fail "full ring: deferred drops %d, sequential refused %d" got
          !refused
  | None -> fail "full ring: no deferred count");
  let rec drain (a : Sched.Scheduler.t) acc =
    match Sched.Scheduler.dequeue_burst a ~now:1. ~max:8 with
    | [] -> List.rev acc
    | l ->
        drain a
          (List.rev_append
             (List.map
                (fun (s : Sched.Scheduler.served) ->
                  (s.Sched.Scheduler.pkt.Pkt.Packet.flow,
                   s.Sched.Scheduler.pkt.Pkt.Packet.seq))
                l)
             acc)
  in
  let want = drain sa [] in
  check "the sequential drain serves the admitted packets"
    (List.length want = posts - !refused);
  check "drained (flow, seq) order" (drain ma [] = want);
  let mc_links = M.stop m in
  check "engine fingerprints"
    (engine_fingerprint (List.assoc "l0" (R.links r))
    = engine_fingerprint (List.assoc "l0" mc_links))

(* --- the simulator through both routers -------------------------------- *)

(* A two-link [Netsim.Sim]: an H-FSC link built through the control
   plane (a real-time leaf, a 3-packet leaf that drops, an upper-limited
   leaf that forces [next_ready] polls) beside a flat round-robin link,
   with an outage, rate changes and a mid-run class add/delete. Driven
   through [Router] + [Engine.adapter] and through [Mc_router.adapter] —
   whose enqueue does not wait for its verdict — every output must be
   identical: departure digest and count, [Sim.enqueue_drops] (late
   refusals included), transmitted bytes, command replies and the final
   config fingerprint. test_netsim's golden digests build their H-FSC
   link from [Hfsc] directly, which the multicore router cannot adopt;
   this is their multicore counterpart. *)
type sim_out = {
  digest : int;
  departures : int;
  drops : int;
  bytes : float;
  replies : string list;
  fingerprint : string;
}

let mix h v = (h lxor v) * 0x100000001b3

let sim_setup =
  [
    "link add hfsc rate 1MBps";
    "link hfsc add class rt parent root flow 1 rsc umax 500 dmax 5ms rate \
     100KBps fsc 100KBps qlimit 40";
    "link hfsc add class a parent root flow 3 fsc 250KBps qlimit 40";
    "link hfsc add class small parent root flow 4 fsc 250KBps qlimit 3";
    "link hfsc add class capped parent root flow 5 fsc 250KBps ulimit 60KBps \
     qlimit 40";
  ]

(* [domains = 0]: the sequential router *)
let run_sim ~domains =
  let exec, adapter, fingerprint, stop =
    if domains = 0 then
      let r = R.create ~audit_every () in
      ( R.exec r,
        (fun name -> E.adapter (List.assoc name (R.links r))),
        (fun () -> R.config_fingerprint r),
        ignore )
    else
      let m = M.create ~audit_every ~domains () in
      ( M.exec m,
        (fun name -> Option.get (M.adapter m ~link:name)),
        (fun () -> M.config_fingerprint m),
        fun () -> ignore (M.stop m) )
  in
  let replies = ref [] in
  let exec_line ~now line =
    match Runtime.Command.parse line with
    | Ok cmd -> replies := show_res (exec ~now cmd) :: !replies
    | Error e -> fail "sim differential: parse %S: %s" line e
  in
  List.iter (exec_line ~now:0.) sim_setup;
  (* the round-robin link is a bare engine beside either router: one
     leaf per flow with its quantum, 8-packet queues *)
  let rr =
    let s = Sched.Hls.create () in
    let leaf flow quantum =
      ( flow,
        Sched.Hls.id
          (Sched.Hls.add_class s ~parent:(Sched.Hls.root s)
             ~name:(Printf.sprintf "f%d" flow) ~quantum ~qlimit_pkts:8 ()) )
    in
    let flow_map = [ leaf 6 500; leaf 7 900 ] in
    E.adapter
      (E.create_backend (Runtime.Backend.of_hls ~link_rate:2e5 s) ~flow_map ())
  in
  let route p =
    match p.Pkt.Packet.flow with
    | 1 | 2 | 3 | 4 | 5 -> Some 0
    | 6 | 7 -> Some 1
    | _ -> None
  in
  let sim =
    Netsim.Sim.create_multi
      ~links:[ ("hfsc", 1e6, adapter "hfsc"); ("rr", 2e5, rr) ]
      ~route ()
  in
  let stop_at = 2.5 in
  List.iter (Netsim.Sim.add_source sim)
    [
      Netsim.Source.cbr ~flow:1 ~rate:80_000. ~pkt_size:400 ~start:0.0013
        ~stop:stop_at ();
      Netsim.Source.poisson ~flow:2 ~rate:60_000. ~pkt_size:300 ~seed:21
        ~stop:stop_at ();
      Netsim.Source.poisson ~flow:3 ~rate:450_000. ~pkt_size:700 ~seed:22
        ~stop:stop_at ();
      Netsim.Source.on_off_exp ~flow:4 ~peak_rate:900_000. ~pkt_size:1000
        ~mean_on:0.05 ~mean_off:0.04 ~seed:23 ~stop:stop_at ();
      Netsim.Source.on_off_pareto ~flow:5 ~peak_rate:400_000. ~pkt_size:600
        ~mean_on:0.03 ~mean_off:0.03 ~shape:1.4 ~seed:24 ~stop:stop_at ();
      Netsim.Source.poisson ~flow:7 ~rate:150_000. ~pkt_size:900 ~seed:25
        ~stop:stop_at ();
      Netsim.Source.script ~flow:6
        (List.init 60 (fun i -> (0.02 *. float_of_int i, 200 + (37 * i mod 900))));
      Netsim.Source.script ~flow:9 [ (0.1, 100); (0.7, 100) ];
    ];
  Netsim.Faults.schedule ~link:0 sim
    [ (0.8, Netsim.Faults.Outage 0.3); (1.5, Netsim.Faults.Set_rate 8e5) ];
  Netsim.Faults.schedule ~link:1 sim [ (1.0, Netsim.Faults.Set_rate 1.5e5) ];
  (* flow 2 is refused until its class exists, and loses the class
     again with packets queued *)
  Netsim.Sim.at sim 1.2 (fun ~now ->
      exec_line ~now
        "link hfsc add class late parent root flow 2 fsc 100KBps qlimit 10");
  Netsim.Sim.at sim 1.9 (fun ~now -> exec_line ~now "link hfsc delete class late");
  let digest = ref 0x4bf29ce484222325 and departures = ref 0 in
  Netsim.Sim.on_departure sim (fun ~now served ->
      let p = served.Sched.Scheduler.pkt in
      incr departures;
      digest :=
        mix
          (mix (mix !digest p.Pkt.Packet.flow) p.Pkt.Packet.seq)
          (Int64.to_int (Int64.bits_of_float now)));
  Netsim.Sim.run sim ~until:3.;
  let out =
    {
      digest = !digest;
      departures = !departures;
      drops = Netsim.Sim.enqueue_drops sim;
      bytes = Netsim.Sim.transmitted_bytes sim;
      replies = List.rev !replies;
      fingerprint = fingerprint ();
    }
  in
  stop ();
  out

let run_sim_differential () =
  let want = run_sim ~domains:0 in
  if want.drops = 0 then fail "sim differential: the scenario drops nothing";
  List.iter
    (fun domains ->
      let got = run_sim ~domains in
      let check what ok =
        if not ok then
          fail "sim differential (domains %d): %s differ" domains what
      in
      check "command replies" (got.replies = want.replies);
      check "departure counts" (got.departures = want.departures);
      check
        (Printf.sprintf "enqueue drops (%d vs %d)" got.drops want.drops)
        (got.drops = want.drops);
      check "transmitted bytes" (got.bytes = want.bytes);
      check "departure digests" (got.digest = want.digest);
      check "config fingerprints" (got.fingerprint = want.fingerprint))
    [ 1; 2 ]

(* A two-hop [Netsim.Tandem] with cross traffic at hop 1, each hop the
   adapter of its own one-link router. The tandem carries a packet to
   the next hop from a departure hook, so over [Mc_router] a departure
   on one worker's link posts to the other worker between two
   dequeues; every output must equal the same tandem over
   [Engine.adapter] hops. Hop 0's upper-limited class exercises the
   next-ready polls, hop 1's short queues the late refusals. *)
type tandem_out = {
  t_digest : int;
  t_departures : int;
  t_drops : int;
  t_delivered : float;
  t_end : float;
}

let tandem_hops =
  [
    ( 5e5,
      [
        "link add h rate 500KBps";
        "link h add class rt parent root flow 1 rsc umax 500 dmax 5ms rate \
         100KBps fsc 100KBps qlimit 40";
        "link h add class b parent root flow 2 fsc 300KBps ulimit 200KBps \
         qlimit 20";
      ] );
    ( 2.5e5,
      [
        "link add h rate 250KBps";
        "link h add class rt parent root flow 1 fsc 100KBps qlimit 40";
        "link h add class b parent root flow 2 fsc 100KBps qlimit 8";
        "link h add class x parent root flow 3 fsc 50KBps qlimit 8";
      ] );
  ]

(* [mc]: every hop a one-link [Mc_router] at one worker domain *)
let run_tandem ~mc =
  let hop (rate, setup) =
    let exec, adapter, stop =
      if mc then
        let m = M.create ~audit_every ~domains:1 () in
        (M.exec m, (fun () -> Option.get (M.adapter m ~link:"h")), fun () ->
          ignore (M.stop m))
      else
        let r = R.create ~audit_every () in
        (R.exec r, (fun () -> E.adapter (List.assoc "h" (R.links r))), ignore)
    in
    List.iter
      (fun line ->
        match Runtime.Command.parse line with
        | Error e -> fail "tandem: parse %S: %s" line e
        | Ok cmd -> (
            match exec ~now:0. cmd with
            | Ok _ -> ()
            | Error _ as r -> fail "tandem: %S: %s" line (show_res r)))
      setup;
    ((rate, adapter ()), stop)
  in
  let hops = List.map hop tandem_hops in
  let tandem = Netsim.Tandem.create ~hops:(List.map fst hops) () in
  Netsim.Tandem.add_source tandem
    (Netsim.Source.cbr ~flow:1 ~rate:90_000. ~pkt_size:500 ~stop:1.5 ());
  Netsim.Tandem.add_source tandem
    (Netsim.Source.poisson ~flow:2 ~rate:250_000. ~pkt_size:400 ~seed:41
       ~stop:1.5 ());
  Netsim.Tandem.add_source_at tandem ~hop:1
    (Netsim.Source.on_off_exp ~flow:3 ~peak_rate:300_000. ~pkt_size:600
       ~mean_on:0.05 ~mean_off:0.05 ~seed:42 ~stop:1.5 ());
  let digest = ref 0x4bf29ce484222325 and departures = ref 0 in
  Netsim.Tandem.on_hop_departure tandem (fun ~hop ~now served ->
      let p = served.Sched.Scheduler.pkt in
      incr departures;
      digest :=
        mix
          (mix (mix (mix !digest hop) p.Pkt.Packet.flow) p.Pkt.Packet.seq)
          (Int64.to_int (Int64.bits_of_float now)));
  Netsim.Tandem.run_until_idle tandem ~max_time:20.;
  let out =
    {
      t_digest = !digest;
      t_departures = !departures;
      t_drops = Netsim.Tandem.drops tandem;
      t_delivered = Netsim.Tandem.delivered_bytes tandem;
      t_end = Netsim.Tandem.now tandem;
    }
  in
  List.iter (fun (_, stop) -> stop ()) hops;
  out

let run_tandem_differential () =
  let want = run_tandem ~mc:false and got = run_tandem ~mc:true in
  if want.t_drops = 0 then fail "tandem: the scenario drops nothing";
  let check what ok = if not ok then fail "tandem over Mc_router: %s differ" what in
  check "departure counts" (got.t_departures = want.t_departures);
  check
    (Printf.sprintf "drops (%d vs %d)" got.t_drops want.t_drops)
    (got.t_drops = want.t_drops);
  check "delivered bytes" (got.t_delivered = want.t_delivered);
  check "end times" (Float.equal got.t_end want.t_end);
  check "departure digests" (got.t_digest = want.t_digest)

(* --- the turn under a watchdog ------------------------------------------ *)

(* Turns through 1- and 2-domain routers: back-to-back calls, and
   post/flush cycles — 1500 posts between two calls, more than the 1024
   a worker's FIFO holds before the producer flushes it — each followed
   by the refusal count, a backlog poll and a drain. At two domains the
   links alternate workers. A lost wakeup leaves producer and worker
   asleep for good; the watchdog domain turns that into a failed run:
   if the call count stops moving for 30 s it names the router and
   exits 2. [calls] is the call count per router. *)
let with_watchdog what f =
  let progress = Atomic.make 0 and finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let last = ref (-1) and since = ref (Unix.gettimeofday ()) in
        while not (Atomic.get finished) do
          Unix.sleepf 0.05;
          let p = Atomic.get progress and now = Unix.gettimeofday () in
          if p <> !last then begin
            last := p;
            since := now
          end
          else if now -. !since > 30. then begin
            Printf.eprintf
              "domains: %s made no progress for 30 s at call %d (lost \
               wakeup?)\n%!"
              what p;
            Unix._exit 2
          end
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    (fun () -> f progress)

let run_turns ~domains ~calls =
  let what = Printf.sprintf "turns (domains %d)" domains in
  let check name b = if not b then fail "%s: %s" what name in
  let m = M.create ~audit_every ~domains () in
  let links = [| "l0"; "l1" |] in
  let qlimit = 16 and posts = 1500 in
  Array.iteri
    (fun i name ->
      List.iter
        (fun line ->
          match Runtime.Command.parse line with
          | Error e -> fail "%s: parse %S: %s" what line e
          | Ok cmd ->
              check (line ^ " accepted") (Result.is_ok (M.exec m ~now:0. cmd)))
        [
          Printf.sprintf "link add %s rate 1Mbit" name;
          Printf.sprintf "link %s add class c parent root flow %d fsc 500Kbit \
                          qlimit %d"
            name (i + 1) qlimit;
        ])
    links;
  let adapters =
    Array.map
      (fun name ->
        match M.adapter m ~link:name with
        | Some a -> a
        | None -> fail "%s: no adapter for %s" what name)
      links
  in
  let refused = Array.make 2 0 in
  with_watchdog what (fun progress ->
      let made = ref 0 and step = ref 0 in
      while !made < calls do
        let k = !step land 1 in
        let a = adapters.(k) and now = float_of_int !step in
        if !step land 127 = 127 then begin
          for seq = 1 to posts do
            check "a healthy post answers true"
              (a.Sched.Scheduler.enqueue ~now
                 (Pkt.Packet.make ~flow:(k + 1) ~size:100 ~seq ~arrival:now))
          done;
          refused.(k) <- refused.(k) + posts - qlimit;
          (match a.Sched.Scheduler.deferred_drops with
          | Some f ->
              let got = f () in
              if got <> refused.(k) then
                fail "%s: deferred drops %d after a flush cycle, want %d" what
                  got refused.(k)
          | None -> fail "%s: no deferred count" what);
          check "the class holds its qlimit"
            (a.Sched.Scheduler.backlog_pkts () = qlimit);
          let rec drain n =
            match a.Sched.Scheduler.dequeue ~now with
            | Some _ -> drain (n + 1)
            | None -> n
          in
          check "the drain serves what the class held" (drain 0 = qlimit);
          made := !made + qlimit + 3
        end
        else begin
          check "an idle link polls empty"
            (a.Sched.Scheduler.backlog_pkts () = 0);
          incr made
        end;
        incr step;
        Atomic.set progress !made
      done);
  ignore (M.stop m)

let () =
  let arg i d =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else d
  in
  let nops = arg 1 400 in
  let seeds = arg 2 1 in
  let domains = arg 3 2 in
  let calls = arg 4 2000 in
  List.iter (fun domains -> run_degradation ~domains) [ 1; 2 ];
  run_full_ring ();
  run_sim_differential ();
  run_tandem_differential ();
  List.iter (fun domains -> run_turns ~domains ~calls) [ 1; 2 ];
  let posted = ref 0 and late = ref 0 in
  for seed = 0 to seeds - 1 do
    let p, l = run_differential ~domains ~seed ~nops in
    posted := !posted + p;
    late := !late + l
  done;
  Printf.printf
    "domains ok: worker poison degrades one link (typed link-failed, \
     checkpoint keeps its add) while the others keep serving; a stopped \
     router answers every call degraded\n";
  Printf.printf
    "domains ok: 4096 posts into its worker's 1024-post FIFO with no \
     dequeue between them: refusals, drained order and fingerprint match \
     the sequential adapter\n";
  Printf.printf
    "domains ok: a two-link simulation through Mc_router.adapter (1 and 2 \
     domains) matches Router + Engine.adapter (digest, departures, drops, \
     bytes, replies, fingerprint)\n";
  Printf.printf
    "domains ok: a two-hop tandem over one-link Mc_router hops (cross \
     traffic at hop 1) matches the same tandem over Engine.adapter hops \
     (digest, departures, drops, delivered bytes, end time)\n";
  Printf.printf
    "domains ok: %d calls through each of a 1- and a 2-domain router under \
     a watchdog (back-to-back calls; post/flush cycles of 1500 posts \
     between two calls): refusal counts and drains exact\n"
    calls;
  Printf.printf
    "domains ok: %d seed%s x %d ops x %d domain%s: multicore router \
     bit-identical to the sequential router through the adapters (replies, \
     dequeues, polls, snapshots, audits, exporters, final engine \
     fingerprints); %d posts, %d refused late and counted exactly\n"
    seeds
    (if seeds = 1 then "" else "s")
    nops domains
    (if domains = 1 then "" else "s")
    !posted !late
