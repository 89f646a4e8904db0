(* Tests for the pluggable-backend tier (lib/sched/hls +
   lib/runtime/backend): the round-robin scheduler's own properties —
   work conservation, quantum-proportional long-run shares (flat and
   hierarchical), batch-equals-singles, a batched drain that allocates
   nothing at 10k classes (H-FSC's too) — the engine driving it through
   the Runtime.Backend record (grammar, admission, telemetry, stats,
   checkpoint round-trip), and the differential pin that the hfsc
   backend behind the same record stays bit-identical to a raw Hfsc
   scheduler driven directly. *)

module E = Runtime.Engine
module B = Runtime.Backend
module C = Runtime.Command
module T = Runtime.Telemetry
module Hls = Sched.Hls

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let ok_exec = function
  | Ok v -> v
  | Error e -> Alcotest.fail (E.error_message e)

let err_exec = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> E.error_message e

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S does not mention %S" what hay needle

let pkt ?(size = 1000) ~flow ~seq () =
  Pkt.Packet.make ~flow ~size ~seq ~arrival:0.

let exec1 eng line = E.exec eng ~now:0. (ok (C.parse line))

(* --- the scheduler's own properties -------------------------------- *)

(* Deficit round-robin on a flat link: with a quantum a tenth of the
   packet size, each class still progresses, accumulating deficit over
   rounds, and the two take turns. *)
let test_drr_large_packets_small_quantum () =
  let t = Hls.create () in
  let leaf name = Hls.add_class t ~parent:(Hls.root t) ~name ~quantum:100 () in
  let a = leaf "a" and b = leaf "b" in
  for s = 0 to 9 do
    ignore (Hls.enqueue t ~now:0. a (pkt ~flow:1 ~seq:s ()));
    ignore (Hls.enqueue t ~now:0. b (pkt ~flow:2 ~seq:s ()))
  done;
  let rec drain acc =
    match Hls.dequeue t ~now:0. with
    | Some (p, _) -> drain (p.Pkt.Packet.flow :: acc)
    | None -> List.rev acc
  in
  let served = drain [] in
  Alcotest.(check int) "all served" 20 (List.length served);
  Alcotest.(check (list int)) "the flows take turns"
    (List.concat (List.init 10 (fun _ -> [ 1; 2 ])))
    served

(* Work conservation: while any leaf holds a packet, dequeue serves
   one; an idle scheduler reports idle; everything enqueued comes back
   out exactly once, FIFO within each class. *)
let test_work_conservation () =
  let t = Hls.create () in
  let root = Hls.root t in
  let a = Hls.add_class t ~parent:root ~name:"a" ~quantum:1000 () in
  let b = Hls.add_class t ~parent:root ~name:"b" ~quantum:500 () in
  Alcotest.(check bool) "idle at birth" true
    (Hls.next_ready_time t ~now:0. = None);
  let n = 200 in
  for s = 0 to n - 1 do
    Alcotest.(check bool) "a accepts" true
      (Hls.enqueue t ~now:0. a (pkt ~flow:1 ~seq:s ()));
    Alcotest.(check bool) "b accepts" true
      (Hls.enqueue t ~now:0. b (pkt ~flow:2 ~seq:s ()))
  done;
  Alcotest.(check int) "backlog counts" (2 * n) (Hls.backlog_pkts t);
  let last_seq = Hashtbl.create 2 in
  let served = ref 0 in
  let rec drain () =
    if Hls.backlog_pkts t > 0 then begin
      Alcotest.(check bool) "backlogged means ready" true
        (Hls.next_ready_time t ~now:0. = Some 0.);
      match Hls.dequeue t ~now:0. with
      | None -> Alcotest.fail "backlogged scheduler refused to serve"
      | Some (p, _) ->
          incr served;
          let f = p.Pkt.Packet.flow in
          let prev =
            match Hashtbl.find_opt last_seq f with Some s -> s | None -> -1
          in
          Alcotest.(check bool) "FIFO within the class" true
            (p.Pkt.Packet.seq = prev + 1);
          Hashtbl.replace last_seq f p.Pkt.Packet.seq;
          drain ()
    end
  in
  drain ();
  Alcotest.(check int) "everything served once" (2 * n) !served;
  Alcotest.(check bool) "idle again" true (Hls.dequeue t ~now:0. = None);
  Alcotest.(check (list string)) "audit clean" [] (Hls.audit t)

(* Long-run throughput among persistently backlogged siblings converges
   to the ratio of their quanta. Keep every leaf topped up, serve many
   packets, and compare byte shares against the quantum shares: each
   class's long-run share may be off by at most one round's worth of
   service, far under the 5% slack. *)
let check_shares ~what served quanta =
  let tot_served = Array.fold_left ( +. ) 0. served in
  let tot_q = float_of_int (Array.fold_left ( + ) 0 quanta) in
  Array.iteri
    (fun i s ->
      let got = s /. tot_served in
      let want = float_of_int quanta.(i) /. tot_q in
      if Float.abs (got -. want) > 0.05 then
        Alcotest.failf "%s: leaf %d share %.4f, expected %.4f" what i got want)
    served

let saturate_and_serve t leaves ~rounds =
  let seq = Array.make (Array.length leaves) 0 in
  let top_up () =
    Array.iteri
      (fun i leaf ->
        while Hls.queue_length leaf < 32 do
          ignore
            (Hls.enqueue t ~now:0. leaf (pkt ~flow:i ~seq:seq.(i) ()));
          seq.(i) <- seq.(i) + 1
        done)
      leaves
  in
  for _ = 1 to rounds do
    top_up ();
    for _ = 1 to 16 do
      ignore (Hls.dequeue t ~now:0.)
    done
  done;
  Array.map Hls.served_bytes leaves

let test_quantum_shares_flat () =
  let t = Hls.create () in
  let root = Hls.root t in
  let quanta = [| 1000; 2000; 4000 |] in
  let leaves =
    Array.mapi
      (fun i q ->
        Hls.add_class t ~parent:root
          ~name:(Printf.sprintf "l%d" i)
          ~quantum:q ())
      quanta
  in
  let served = saturate_and_serve t leaves ~rounds:500 in
  check_shares ~what:"flat 1:2:4" served quanta;
  Alcotest.(check (list string)) "audit clean" [] (Hls.audit t)

(* Hierarchical max-min: two equal interior shares, one split between
   two children — the lone child of the right subtree gets half the
   link, the two left children a quarter each, regardless of their
   (equal) leaf quanta. *)
let test_quantum_shares_hierarchical () =
  let t = Hls.create () in
  let root = Hls.root t in
  let left = Hls.add_class t ~parent:root ~name:"left" ~quantum:2000 () in
  let right = Hls.add_class t ~parent:root ~name:"right" ~quantum:2000 () in
  let a = Hls.add_class t ~parent:left ~name:"a" ~quantum:1000 () in
  let b = Hls.add_class t ~parent:left ~name:"b" ~quantum:1000 () in
  let c = Hls.add_class t ~parent:right ~name:"c" ~quantum:1000 () in
  let served = saturate_and_serve t [| a; b; c |] ~rounds:500 in
  check_shares ~what:"hierarchical 1:1:2" served [| 1; 1; 2 |];
  Alcotest.(check (list string)) "audit clean" [] (Hls.audit t)

(* The batched entry point is bit-identical in service order to that
   many single dequeues: two schedulers built identically, one drained
   through [dequeue_batch] with varying capacities, one through
   singles. *)
let test_batch_equals_singles () =
  let build () =
    let t = Hls.create () in
    let root = Hls.root t in
    let leaves =
      Array.init 5 (fun i ->
          Hls.add_class t ~parent:root
            ~name:(Printf.sprintf "l%d" i)
            ~quantum:(500 * (i + 1))
            ())
    in
    (t, leaves)
  in
  let ta, la = build () and tb, lb = build () in
  let rng = Random.State.make [| 0xb47c4 |] in
  (* random interleaving of bursts and drains, mirrored on both *)
  for _ = 1 to 200 do
    let leaf = Random.State.int rng 5 in
    let burst = 1 + Random.State.int rng 8 in
    for s = 0 to burst - 1 do
      let p = pkt ~size:(64 + Random.State.int rng 1400) ~flow:leaf ~seq:s () in
      ignore (Hls.enqueue ta ~now:0. la.(leaf) p);
      ignore (Hls.enqueue tb ~now:0. lb.(leaf) p)
    done;
    let want = 1 + Random.State.int rng 6 in
    let hb = Hls.batch ~capacity:want () in
    let n = Hls.dequeue_batch ta ~now:0. hb in
    for i = 0 to n - 1 do
      match Hls.dequeue tb ~now:0. with
      | None -> Alcotest.fail "singles ran dry before the batch"
      | Some (p, cls) ->
          Alcotest.(check bool) "same packet" true (Hls.batch_pkt hb i == p);
          Alcotest.(check string) "same class" (Hls.name cls)
            (Hls.name (Hls.batch_cls hb i))
    done;
    if n < want then
      Alcotest.(check bool) "both idle after a short fill" true
        (Hls.dequeue tb ~now:0. = None)
  done;
  Alcotest.(check int) "same final backlog" (Hls.backlog_pkts ta)
    (Hls.backlog_pkts tb);
  Alcotest.(check (list string)) "audit a" [] (Hls.audit ta);
  Alcotest.(check (list string)) "audit b" [] (Hls.audit tb)

(* Both backends' batched drains land in preallocated slots: exactly
   zero minor words per packet at 10k classes, on the two-level
   hierarchy E7's backend table times (leaves under aggregates of
   1000; fsc-only for H-FSC). The standing backlog sits on the first
   4096 leaves. The clock never advances (the fsc-only H-FSC build
   serves by virtual time), so no float is boxed in the timed loop. *)
let test_batched_drain_allocates_nothing () =
  let n = 10_000 and fanout = 1000 and hot = 4096 in
  let burst = 64 and warm = 8 and k = 128 in
  let per = ((k + warm) * burst / hot) + 2 in
  let two_level ~root ~add_agg ~add_leaf =
    let agg = ref root in
    Array.init n (fun i ->
        if i mod fanout = 0 then
          agg := add_agg (Printf.sprintf "agg%d" (i / fanout));
        add_leaf !agg (Printf.sprintf "leaf%d" i))
  in
  let words_per_packet ~what ~enqueue ~drain =
    for i = 0 to hot - 1 do
      for s = 0 to per - 1 do
        enqueue i (pkt ~flow:i ~seq:s ())
      done
    done;
    for _ = 1 to warm do
      ignore (drain ())
    done;
    let served = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to k do
      served := !served + drain ()
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) (what ^ ": every drain filled the batch") (k * burst)
      !served;
    Alcotest.(check (float 0.)) (what ^ ": minor words per batched packet") 0.
      (words /. float_of_int (k * burst))
  in
  (let t = Hls.create () in
   let leaves =
     two_level ~root:(Hls.root t)
       ~add_agg:(fun name -> Hls.add_class t ~parent:(Hls.root t) ~name ())
       ~add_leaf:(fun parent name ->
         Hls.add_class t ~parent ~name ~qlimit_pkts:1_000_000 ())
   in
   let b = Hls.batch ~capacity:burst () in
   words_per_packet ~what:"rr"
     ~enqueue:(fun i p -> ignore (Hls.enqueue t ~now:0. leaves.(i) p))
     ~drain:(fun () -> Hls.dequeue_batch t ~now:0. b));
  let link_rate = 12_500_000. in
  let t = Hfsc.create ~link_rate () in
  let leaf_sc = Curve.Service_curve.linear (link_rate /. float_of_int n) in
  let agg_sc =
    Curve.Service_curve.linear (link_rate *. float_of_int fanout /. float_of_int n)
  in
  let leaves =
    two_level ~root:(Hfsc.root t)
      ~add_agg:(fun name ->
        Hfsc.add_class t ~parent:(Hfsc.root t) ~name ~fsc:agg_sc ())
      ~add_leaf:(fun parent name ->
        Hfsc.add_class t ~parent ~name ~fsc:leaf_sc ~qlimit:1_000_000 ())
  in
  let b = Hfsc.batch ~capacity:burst () in
  words_per_packet ~what:"hfsc"
    ~enqueue:(fun i p -> ignore (Hfsc.enqueue t ~now:0. leaves.(i) p))
    ~drain:(fun () -> Hfsc.dequeue_batch t ~now:0. b)

(* --- the engine over the rr backend -------------------------------- *)

let rr_engine () =
  let t = Hls.create () in
  E.create_rr ~link_rate:1.25e6 t ~flow_map:[] ()

let test_rr_engine_grammar_and_admission () =
  let eng = rr_engine () in
  Alcotest.(check bool) "kind" true (E.backend_kind eng = B.Rr_kind);
  let r = ok_exec (exec1 eng "add class a parent root flow 1 quantum 3000") in
  check_contains "add reply" r "added class \"a\"";
  ignore (ok_exec (exec1 eng "add class b parent root flow 2 quantum 1500"));
  (* curves are the hfsc backend's vocabulary *)
  check_contains "curves rejected"
    (err_exec (exec1 eng "add class c parent root fsc 1Mbit"))
    "hfsc-backend";
  check_contains "modify curves rejected"
    (err_exec (exec1 eng "modify class a fsc 1Mbit"))
    "hfsc-backend";
  (* quantum bounds are the rr admission rule *)
  check_contains "zero quantum"
    (err_exec (exec1 eng "add class c parent root quantum 0"))
    "quantum";
  check_contains "oversized quantum"
    (err_exec
       (exec1 eng
          (Printf.sprintf "add class c parent root quantum %d"
             (Hls.max_quantum + 1))))
    "quantum";
  ignore (ok_exec (exec1 eng "modify class a quantum 4500"));
  (* and the hfsc backend rejects the quantum vocabulary symmetrically *)
  let hfsc_eng =
    E.create ~link_rate:1.25e6 (Hfsc.create ~link_rate:1.25e6 ()) ~flow_map:[]
      ()
  in
  check_contains "quantum rejected on hfsc"
    (err_exec (exec1 hfsc_eng "add class q parent root quantum 1000"))
    "rr-backend";
  Alcotest.(check (list string)) "audit clean" [] (E.audit eng)

let test_rr_engine_datapath_and_stats () =
  let eng = rr_engine () in
  ignore (ok_exec (exec1 eng "add class a parent root flow 1 quantum 3000"));
  ignore
    (ok_exec (exec1 eng "add class b parent root flow 2 quantum 1000 qlimit 4"));
  for s = 0 to 7 do
    ignore (E.enqueue_flow eng ~now:0. (pkt ~flow:1 ~seq:s ()));
    ignore (E.enqueue_flow eng ~now:0. (pkt ~flow:2 ~seq:s ()))
  done;
  (* b's qlimit sheds half its burst, counted in telemetry *)
  let b_id = Option.get (E.find_class_id eng "b") in
  Alcotest.(check int) "qlimit enforced" 4 (E.class_queue_length eng b_id);
  (match T.snapshot_counters (E.snapshot eng) ~id:b_id with
  | Some c ->
      Alcotest.(check int) "drops counted" 4 c.T.drop_pkts;
      Alcotest.(check int) "enq counted" 4 c.T.enq_pkts
  | None -> Alcotest.fail "no counters for b");
  (* drain through the batched path; rr serves everything as link-share *)
  let batch = E.make_batch ~capacity:4 () in
  let served = ref 0 in
  let rec go () =
    let n = E.dequeue_batch eng ~now:0. batch in
    if n > 0 then begin
      for i = 0 to n - 1 do
        Alcotest.(check bool) "never realtime" false (B.batch_realtime batch i)
      done;
      served := !served + n;
      go ()
    end
  in
  go ();
  Alcotest.(check int) "all admitted packets served" 12 !served;
  (* the stats document names the backend and each class's quantum *)
  let doc = Json_lite.to_string (E.stats_json eng) in
  check_contains "backend field" doc "\"backend\": \"rr\"";
  check_contains "quantum field" doc "\"quantum\": 3000";
  (* ... and the hfsc stats document stays free of both *)
  let hfsc_eng =
    E.create ~link_rate:1.25e6 (Hfsc.create ~link_rate:1.25e6 ()) ~flow_map:[]
      ()
  in
  let hdoc = Json_lite.to_string (E.stats_json hfsc_eng) in
  Alcotest.(check bool) "no backend field on hfsc" false
    (contains hdoc "\"backend\"");
  Alcotest.(check (list string)) "audit clean" [] (E.audit eng)

let test_rr_checkpoint_roundtrip () =
  let eng = rr_engine () in
  List.iter
    (fun l -> ignore (ok_exec (exec1 eng l)))
    [
      "add class agg parent root quantum 4000";
      "add class a parent agg flow 1 quantum 3000 qlimit 64";
      "add class b parent agg flow 2 quantum 1000 qbytes 90000";
      "attach filter flow 1 proto udp dport 5004 5005";
      "limit pkts 500 policy longest";
    ];
  (* the digest covers the quanta: changing one changes the print,
     restoring it restores the print *)
  let fp0 = E.config_fingerprint eng in
  ignore (ok_exec (exec1 eng "modify class a quantum 2000"));
  Alcotest.(check bool) "quantum feeds the fingerprint" false
    (E.config_fingerprint eng = fp0);
  ignore (ok_exec (exec1 eng "modify class a quantum 3000"));
  Alcotest.(check string) "restoring the quantum restores it" fp0
    (E.config_fingerprint eng);
  let fresh = rr_engine () in
  List.iter
    (fun op ->
      match E.exec fresh ~now:0. { C.target = C.Default_link; op } with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "replay: %s" (E.error_message e))
    (E.checkpoint_ops eng);
  Alcotest.(check string) "checkpoint replays bit-identically"
    (E.config_fingerprint eng)
    (E.config_fingerprint fresh)

(* --- the hfsc backend through the record, vs the raw scheduler ----- *)

(* The same hierarchy, the same packet schedule: one side a raw [Hfsc.t]
   driven directly, the other the engine (whose every data-path call
   now crosses the Backend record). Service order, criteria, class
   names, backlogs and the scheduler's own debug state must be
   bit-identical — the interface adds observable nothing. *)
let test_hfsc_through_backend_is_identical () =
  let build_raw () =
    let t = Hfsc.create ~link_rate:1.25e6 () in
    let sc = Curve.Service_curve.linear in
    let agg =
      Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"agg" ~fsc:(sc 1e6) ()
    in
    let a =
      Hfsc.add_class t ~parent:agg ~name:"a" ~fsc:(sc 6e5)
        ~rsc:(Curve.Service_curve.make ~m1:2.5e5 ~d:0.01 ~m2:1.25e5)
        ~qlimit:64 ()
    in
    let b = Hfsc.add_class t ~parent:agg ~name:"b" ~fsc:(sc 4e5) ~qlimit:64 () in
    (t, [| a; b |])
  in
  let raw, raw_leaves = build_raw () in
  let mirror, mirror_leaves = build_raw () in
  let eng =
    E.create ~link_rate:1.25e6 mirror
      ~flow_map:[ (1, mirror_leaves.(0)); (2, mirror_leaves.(1)) ]
      ()
  in
  let rng = Random.State.make [| 0xd1ff |] in
  let now = ref 0. in
  for _ = 1 to 400 do
    now := !now +. 0.0005;
    (match Random.State.int rng 3 with
    | 0 | 1 ->
        let i = Random.State.int rng 2 in
        let p =
          Pkt.Packet.make
            ~flow:(i + 1)
            ~size:(64 + Random.State.int rng 1400)
            ~seq:(Random.State.int rng 1000)
            ~arrival:!now
        in
        let r = Hfsc.enqueue raw ~now:!now raw_leaves.(i) p in
        let e = E.enqueue_flow eng ~now:!now p in
        Alcotest.(check bool) "same admission" r e
    | _ -> (
        let r = Hfsc.dequeue raw ~now:!now in
        let e = E.dequeue eng ~now:!now in
        match (r, e) with
        | None, None -> ()
        | Some (rp, rc, rcrit), Some (ep, eid, ecrit) ->
            Alcotest.(check int) "same flow" rp.Pkt.Packet.flow
              ep.Pkt.Packet.flow;
            Alcotest.(check int) "same seq" rp.Pkt.Packet.seq ep.Pkt.Packet.seq;
            Alcotest.(check string) "same class" (Hfsc.name rc)
              (E.class_name eng eid);
            Alcotest.(check bool) "same criterion" (rcrit = Hfsc.Realtime)
              (ecrit = Hfsc.Realtime)
        | Some _, None -> Alcotest.fail "engine idle, raw served"
        | None, Some _ -> Alcotest.fail "raw idle, engine served"));
    Alcotest.(check int) "same backlog" (Hfsc.backlog_pkts raw)
      (E.backlog_pkts eng)
  done;
  (* the scheduler state underneath is bit-identical, class by class *)
  List.iter2
    (fun rc mc ->
      Alcotest.(check string)
        (Printf.sprintf "debug state of %S" (Hfsc.name rc))
        (Hfsc.debug_state rc) (Hfsc.debug_state mc))
    (Hfsc.classes raw)
    (Hfsc.classes (E.scheduler eng));
  Alcotest.(check (list string)) "audit clean" [] (E.audit eng)

let () =
  Alcotest.run "hls"
    [
      ( "scheduler",
        [
          Alcotest.test_case "work conservation" `Quick test_work_conservation;
          Alcotest.test_case "quantum shares, flat" `Quick
            test_quantum_shares_flat;
          Alcotest.test_case "quantum shares, hierarchical" `Quick
            test_quantum_shares_hierarchical;
          Alcotest.test_case "batch equals singles" `Quick
            test_batch_equals_singles;
          Alcotest.test_case "batched drains allocate nothing" `Quick
            test_batched_drain_allocates_nothing;
        ] );
      ( "drr",
        [
          Alcotest.test_case "large packets, small quantum" `Quick
            test_drr_large_packets_small_quantum;
        ] );
      ( "engine-rr",
        [
          Alcotest.test_case "grammar + admission" `Quick
            test_rr_engine_grammar_and_admission;
          Alcotest.test_case "datapath + stats" `Quick
            test_rr_engine_datapath_and_stats;
          Alcotest.test_case "checkpoint round-trip" `Quick
            test_rr_checkpoint_roundtrip;
        ] );
      ( "engine-hfsc",
        [
          Alcotest.test_case "backend record adds nothing observable" `Quick
            test_hfsc_through_backend_is_identical;
        ] );
    ]
