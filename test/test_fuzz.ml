(* Fuzz harness for the hardened data path (robustness): random
   command+packet interleavings with the invariant auditor on.

   Two layers:

   - scheduler differential fuzz: the same generated hierarchy and the
     same op stream (enqueue/dequeue — single and batched —
     queue-limit/aggregate-limit/policy changes) driven through [Hfsc]
     and the linear-scan [Hfsc_ref], each in both burst modes, with [audit]
     run every 64 ops; all four traces must be bit-identical (floats
     rendered with %h) — pinning both the optimized-vs-reference
     differential and the batch-equals-singles identity;

   - engine fuzz: a live [Runtime.Engine] with [audit_every:64] fed a
     mix of traffic and control lines, including the malformed pool
     from [Netsim.Faults]; every rejected command must leave the
     observable engine state byte-identical.

   Every failure report ends with a replayable dump of the exact op
   stream (OCaml literals for the scheduler layer, one line per op for
   the engine/router layers), so a failing seed reproduces as a
   deterministic test without rerunning the fuzzer.

   Plain executable so op counts scale: [test_fuzz.exe [OPS] [SEEDS]],
   defaulting to 1000 1 — the short deterministic run wired into
   [dune runtest]. The [@fuzz] alias runs 50k ops over 8 seeds. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("fuzz: " ^ s);
      exit 1)
    fmt

let audit_every = 64

(* --- scheduler-level differential fuzz ------------------------------ *)

module DOpt = Hfsc_gen.Drive (Hfsc)
module DRef = Hfsc_gen.Drive (Hfsc_ref)

let sched_fuzz ~seed ~nops =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let spec = QCheck2.Gen.generate1 ~rand:rng Hfsc_gen.tree_gen in
  let ops =
    Hfsc_gen.gen_ops ~rng ~nleaves:(Hfsc_gen.leaves_of_spec spec) ~nops
  in
  let dump = lazy (Hfsc_gen.dump ~seed ~spec ~ops) in
  let guard f =
    try f ()
    with Failure msg -> fail "seed %d: %s\n%s" seed msg (Lazy.force dump)
  in
  let traces =
    [
      ( "Hfsc/batched",
        guard (fun () ->
            DOpt.run ~audit_every ~what:"Hfsc/batched" ~expand_bursts:false
              ~spec ~ops ()) );
      ( "Hfsc/singles",
        guard (fun () ->
            DOpt.run ~audit_every ~what:"Hfsc/singles" ~expand_bursts:true
              ~spec ~ops ()) );
      ( "Hfsc_ref/batched",
        guard (fun () ->
            DRef.run ~audit_every ~what:"Hfsc_ref/batched"
              ~expand_bursts:false ~spec ~ops ()) );
      ( "Hfsc_ref/singles",
        guard (fun () ->
            DRef.run ~audit_every ~what:"Hfsc_ref/singles" ~expand_bursts:true
              ~spec ~ops ()) );
    ]
  in
  let base_name, base = List.hd traces in
  List.iter
    (fun (name, tr) ->
      if tr <> base then begin
        (* find the first divergence for the report *)
        let n = min (String.length base) (String.length tr) in
        let i = ref 0 in
        while !i < n && base.[!i] = tr.[!i] do
          incr i
        done;
        let ctx s =
          String.sub s
            (max 0 (!i - 40))
            (min 80 (String.length s - max 0 (!i - 40)))
        in
        fail "seed %d: %s and %s diverge at byte %d:\n  %s: %s\n  %s: %s\n%s"
          seed base_name name !i base_name (ctx base) name (ctx tr)
          (Lazy.force dump)
      end)
    (List.tl traces)

(* --- engine-level fuzz ---------------------------------------------- *)

let cfg_text =
  {|
link rate 8Mbit
class a parent root flow 1 fsc 2Mbit qlimit 64
class b parent root flow 2 fsc 2Mbit rsc 2Mbit
class g parent root fsc 2Mbit
class g1 parent g flow 3 fsc 1.5Mbit qbytes 65536
limit pkts 500 policy longest
|}

(* Control lines thrown at the engine: live-reconfiguration commands
   that mostly succeed, plus the malformed pool the fault injector
   uses. Parse failures never reach the engine; engine rejections must
   not change state. *)
let command_pool =
  Array.append
    [|
      "add class tmp parent root flow 9 fsc 0.5Mbit qlimit 16";
      "delete class tmp";
      "modify class g1 qlimit 10 qbytes 32768";
      "modify class a fsc 2Mbit";
      "modify class b rsc 1Mbit";
      "limit pkts 200 policy tail";
      "limit pkts none policy longest";
      "limit bytes 300000";
      "attach filter flow 1 proto udp";
      "detach filter flow 1";
      "stats";
      "stats g1";
      "trace dump";
    |]
    Netsim.Faults.bad_commands

(* The op-stream generator, its dump and the state fingerprints live in
   [Hfsc_gen] (shared with the sequential-vs-multicore differential in
   test_domains); the open brings [Cmd]/[Pkt]/[Drain] and the
   [gen_eng_ops]/[eng_dump] helpers into scope. *)
open Hfsc_gen

module E = Runtime.Engine

let fingerprint = engine_fingerprint

let engine_fuzz ~seed ~nops =
  let cfg =
    match Config.parse cfg_text with Ok c -> c | Error e -> fail "cfg: %s" e
  in
  let eng = E.of_config ~audit_every ~trace_capacity:256 cfg in
  let rng = Random.State.make [| 0x5eed; seed; 1 |] in
  let ops =
    gen_eng_ops ~rng ~pool:command_pool ~flows:[| 1; 2; 3; 9 |] ~nops ()
  in
  let dump = lazy (eng_dump ~what:"engine" ~seed ops) in
  let now = ref 0. in
  let seq = ref 0 in
  let rejected = ref 0 and applied = ref 0 in
  (try
     List.iter
       (fun { edt; eact } ->
         now := !now +. edt;
         match eact with
         | Cmd line -> (
             match Runtime.Command.parse line with
             | Error _ -> () (* garbage stops at the parser *)
             | Ok cmd -> (
                 let before = fingerprint eng in
                 match E.exec eng ~now:!now cmd with
                 | Ok _ -> incr applied
                 | Error _ ->
                     incr rejected;
                     if fingerprint eng <> before then
                       fail "seed %d: rejected command mutated state: %s\n%s"
                         seed line (Lazy.force dump)))
         | Pkt (flow, size) ->
             incr seq;
             ignore
               (E.enqueue_flow eng ~now:!now
                  (Pkt.Packet.make ~flow ~size ~seq:!seq ~arrival:!now))
         | Drain _ -> ignore (E.dequeue eng ~now:!now))
       ops
   with E.Audit_failure errs ->
     fail "seed %d: engine audit failed:\n  %s\n%s" seed
       (String.concat "\n  " errs)
       (Lazy.force dump));
  (match E.audit eng with
  | [] -> ()
  | errs ->
      fail "seed %d: final engine audit:\n  %s\n%s" seed
        (String.concat "\n  " errs)
        (Lazy.force dump));
  (!applied, !rejected)

(* --- router-level fuzz ----------------------------------------------- *)

module R = Runtime.Router

(* Device-wide observable state: every link's engine fingerprint plus
   the flow directory — a rejected router command must change none of
   it. *)
let router_fingerprint r =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, eng) ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      Buffer.add_string b (fingerprint eng);
      Buffer.add_char b '\n')
    (R.links r);
  for flow = 0 to 30 do
    match R.link_of_flow r flow with
    | Some l -> Buffer.add_string b (Printf.sprintf "f%d->%s;" flow l)
    | None -> ()
  done;
  Buffer.contents b

(* Scoped reconfiguration, link add/delete churn, deliberate
   cross-link violations, ambiguous unscoped ops, and the hostile pool
   — the router must apply or reject each without corrupting any
   link. *)
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

let router_fuzz ~seed ~nops =
  let r = R.create ~audit_every ~trace_capacity:256 () in
  let ok_r what = function
    | Ok _ -> ()
    | Error e -> fail "router setup %s: %s" what (E.error_message e)
  in
  List.iter
    (fun name -> ok_r name (R.add_link r ~name ~link_rate:1e6))
    [ "l0"; "l1"; "l2" ];
  let setup line =
    match Runtime.Command.parse line with
    | Ok cmd -> ok_r line (R.exec r ~now:0. cmd)
    | Error e -> fail "router setup parse %S: %s" line e
  in
  setup "link l0 add class a parent root flow 1 fsc 2Mbit qlimit 64";
  setup "link l1 add class b parent root flow 2 fsc 2Mbit rsc 1Mbit";
  setup "link l2 add class c parent root flow 3 fsc 2Mbit qbytes 65536";
  let rng = Random.State.make [| 0x5eed; seed; 2 |] in
  let ops =
    gen_eng_ops ~rng ~pool:router_command_pool
      ~flows:[| 1; 2; 3; 10; 20; 77 |] ~nops ()
  in
  let dump = lazy (eng_dump ~what:"router" ~seed ops) in
  let now = ref 0. in
  let seq = ref 0 in
  let rejected = ref 0 and applied = ref 0 in
  (try
     List.iter
       (fun { edt; eact } ->
         now := !now +. edt;
         match eact with
         | Cmd line -> (
             match Runtime.Command.parse line with
             | Error _ -> ()
             | Ok cmd -> (
                 let before = router_fingerprint r in
                 match R.exec r ~now:!now cmd with
                 | Ok _ -> incr applied
                 | Error _ ->
                     incr rejected;
                     if router_fingerprint r <> before then
                       fail
                         "seed %d: rejected router command mutated state: \
                          %s\n%s"
                         seed line (Lazy.force dump)))
         | Pkt (flow, size) ->
             incr seq;
             ignore
               (R.enqueue_flow r ~now:!now
                  (Pkt.Packet.make ~flow ~size ~seq:!seq ~arrival:!now))
         | Drain pick -> (
             (* each link drains independently: pick one (mod the live
                link count — churn changes it) *)
             match R.links r with
             | [] -> ()
             | links ->
                 let _, eng =
                   List.nth links (pick mod List.length links)
                 in
                 ignore (E.dequeue eng ~now:!now)))
       ops
   with E.Audit_failure errs ->
     fail "seed %d: router engine audit failed:\n  %s\n%s" seed
       (String.concat "\n  " errs)
       (Lazy.force dump));
  (match R.audit r with
  | [] -> ()
  | errs ->
      fail "seed %d: final router audit:\n  %s\n%s" seed
        (String.concat "\n  " errs)
        (Lazy.force dump));
  (!applied, !rejected)

(* --- main ----------------------------------------------------------- *)

let () =
  let arg i d =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else d
  in
  let nops = arg 1 1000 in
  let seeds = arg 2 1 in
  let applied = ref 0 and rejected = ref 0 in
  let r_applied = ref 0 and r_rejected = ref 0 in
  for seed = 0 to seeds - 1 do
    sched_fuzz ~seed ~nops;
    let a, r = engine_fuzz ~seed ~nops in
    applied := !applied + a;
    rejected := !rejected + r;
    let a, r = router_fuzz ~seed ~nops in
    r_applied := !r_applied + a;
    r_rejected := !r_rejected + r
  done;
  Printf.printf
    "fuzz ok: %d seed%s x %d ops: scheduler and batched paths match the \
     reference under audit; engine applied %d and rejected %d commands with \
     state intact; router (3 links + churn) applied %d and rejected %d\n"
    seeds
    (if seeds = 1 then "" else "s")
    nops !applied !rejected !r_applied !r_rejected
