(* Differential tests: the optimized scheduler (Hfsc, augmented
   intrusive trees) against the linear-scan reference (Hfsc_ref) on
   random hierarchies and traffic, and on tie-heavy inputs where only
   the id tie-break rules decide — asserting bit-identical dequeue
   decisions and float aggregates.

   Between the deterministic big runs and the QCheck cases this drives
   well over 10k operations through each pair. *)

let qt ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- full schedulers: Hfsc vs Hfsc_ref ----------------------------- *)

(* Drive a scheduler through a seeded enqueue/dequeue schedule and
   render every decision and the final per-class aggregates into a
   string; two implementations agree iff the strings are equal. Floats
   are printed with %h, so agreement is bit-exact. *)
module Trace (H : Hfsc.S) = struct
  module B = Hfsc_gen.Build (H)

  let crit_int (c : H.criterion) =
    match c with H.Realtime -> 0 | H.Linkshare -> 1

  let run ~spec ~seed ~nops =
    let link_rate = 1e6 in
    let t, leaves = B.build_tree link_rate spec in
    let leaves = Array.of_list leaves in
    let nl = Array.length leaves in
    let rng = Random.State.make [| seed |] in
    let now = ref 0. in
    let seqs = Array.make nl 0 in
    let buf = Buffer.create (64 * nops) in
    for _ = 1 to nops do
      now := !now +. Random.State.float rng 0.002;
      if Random.State.float rng 1. < 0.6 then begin
        let i = Random.State.int rng nl in
        let flow, cls, _ = leaves.(i) in
        let size = 40 + Random.State.int rng 1460 in
        let p = Pkt.Packet.make ~flow ~size ~seq:seqs.(i) ~arrival:!now in
        seqs.(i) <- seqs.(i) + 1;
        let accepted = H.enqueue t ~now:!now cls p in
        Buffer.add_string buf
          (Printf.sprintf "E%d:%d:%b;" flow p.Pkt.Packet.seq accepted)
      end
      else
        match H.dequeue t ~now:!now with
        | None -> Buffer.add_string buf "D-;"
        | Some (p, c, crit) ->
            Buffer.add_string buf
              (Printf.sprintf "D%d:%d:%s:%d;" p.Pkt.Packet.flow
                 p.Pkt.Packet.seq (H.name c) (crit_int crit))
    done;
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "C%s:%h:%h:%h:%d;" (H.name c) (H.total_bytes c)
             (H.realtime_bytes c) (H.virtual_time c) (H.queue_length c)))
      (H.classes t);
    Buffer.contents buf
end

module TOpt = Trace (Hfsc)
module TRef = Trace (Hfsc_ref)

let det_spec =
  let leaf k u =
    Hfsc_gen.Leaf { rsc_kind = k; with_usc = u; share = 0.4; qlimit = 60 }
  in
  Hfsc_gen.Node
    ( 0.9,
      [
        Hfsc_gen.Node (0.5, [ leaf 1 false; leaf 3 false; leaf 0 false ]);
        Hfsc_gen.Node (0.5, [ leaf 2 false; leaf 1 true ]);
        leaf 3 false;
      ] )

let test_sched_diff_big () =
  let a = TOpt.run ~spec:det_spec ~seed:42 ~nops:12_000 in
  let b = TRef.run ~spec:det_spec ~seed:42 ~nops:12_000 in
  Alcotest.(check string) "identical 12k-op trace" b a

let sched_diff_random =
  qt ~count:25 "random hierarchy + schedule: Hfsc = Hfsc_ref"
    QCheck2.Gen.(pair Hfsc_gen.tree_gen (int_range 0 100_000))
    (fun (spec, seed) ->
      TOpt.run ~spec ~seed ~nops:400 = TRef.run ~spec ~seed ~nops:400)

(* --- the record entry point vs singles ------------------------------ *)

(* [dequeue_into]'s contract is bit-identity with [dequeue]. Drive the
   shared op stream (which includes Enq_burst and Deq_burst ops)
   through the optimized scheduler in both modes and through the
   reference, and require one trace — the short default form of the
   @fuzz four-way differential. *)
module BOpt = Hfsc_gen.Drive (Hfsc)
module BRef = Hfsc_gen.Drive (Hfsc_ref)

let record_identity =
  qt ~count:25 "batched = singles = reference over random op streams"
    QCheck2.Gen.(pair Hfsc_gen.tree_gen (int_range 0 100_000))
    (fun (spec, seed) ->
      let rng = Random.State.make [| 0xba7c4; seed |] in
      let ops =
        Hfsc_gen.gen_ops ~rng
          ~nleaves:(Hfsc_gen.leaves_of_spec spec)
          ~nops:400
      in
      let record = BOpt.run ~expand_bursts:false ~spec ~ops () in
      let singles = BOpt.run ~expand_bursts:true ~spec ~ops () in
      let ref_r = BRef.run ~expand_bursts:false ~spec ~ops () in
      record = singles && record = ref_r)

(* --- tie-heavy inputs ------------------------------------------------ *)

(* Random traffic almost never makes two keys equal, so it leaves the
   id tie-breaks unexercised: real-time (d, id), link-sharing (vt, id)
   and drop-longest (queued bytes, id). Here sibling leaves have equal
   curves, every packet has one size, and each burst puts one packet
   on every leaf at a single instant, so deadlines, virtual times and
   queue bytes tie and only the ids decide. A 10-packet aggregate limit
   under Drop_longest makes the second burst evict from equal-byte
   queues. *)
let tie_spec =
  let leaf rsc_kind =
    Hfsc_gen.Leaf { rsc_kind; with_usc = false; share = 0.3; qlimit = 50 }
  in
  Hfsc_gen.Node
    ( 1.,
      [
        Hfsc_gen.Node (0.5, [ leaf 3; leaf 3; leaf 3 ]);
        Hfsc_gen.Node (0.5, [ leaf 0; leaf 0; leaf 0 ]);
      ] )

let tie_ops =
  let open Hfsc_gen in
  let burst = Enq_burst (List.init 6 (fun i -> (i, 500))) in
  let round =
    [
      { dt = 0.02; act = burst };
      { dt = 0.; act = burst };
      { dt = 0.; act = Deq_burst 4 };
      { dt = 0.001; act = Deq_burst 3 };
      { dt = 0.01; act = Deq_burst 12 };
    ]
  in
  { dt = 0.; act = Policy true }
  :: { dt = 0.; act = Agg_limit (10, max_int) }
  :: List.concat (List.init 20 (fun _ -> round))

let test_ties () =
  let spec = tie_spec and ops = tie_ops in
  let record = BOpt.run ~expand_bursts:false ~spec ~ops () in
  let singles = BOpt.run ~expand_bursts:true ~spec ~ops () in
  let reference = BRef.run ~expand_bursts:false ~spec ~ops () in
  Alcotest.(check string) "singles = record" record singles;
  Alcotest.(check string) "reference = record" record reference

(* --- modify_class while the hierarchy holds backlog ----------------- *)

(* The runtime control plane reconfigures passive classes while their
   siblings stay backlogged. Drive that exact pattern through both
   implementations: serve a greedy [a] for a while, change passive
   [b]'s curves mid-run (including giving it an rsc), then let [b]
   start its next backlogged period and compete. Decisions and
   aggregates must stay bit-identical to the reference. *)
module Reconf (H : Hfsc.S) = struct
  let crit_int (c : H.criterion) =
    match c with H.Realtime -> 0 | H.Linkshare -> 1

  let run ~seed ~nops =
    let link = 1e6 in
    let t = H.create ~link_rate:link () in
    let a =
      H.add_class t ~parent:(H.root t) ~name:"a"
        ~fsc:(Curve.Service_curve.linear (0.5 *. link))
        ~qlimit:200 ()
    in
    let b =
      H.add_class t ~parent:(H.root t) ~name:"b"
        ~fsc:(Curve.Service_curve.linear (0.5 *. link))
        ~qlimit:200 ()
    in
    let rng = Random.State.make [| seed |] in
    let now = ref 0. in
    let seqs = [| 0; 0 |] in
    let buf = Buffer.create (64 * nops) in
    let enq flow cls =
      let size = 40 + Random.State.int rng 1460 in
      let p =
        Pkt.Packet.make ~flow ~size ~seq:seqs.(flow) ~arrival:!now
      in
      seqs.(flow) <- seqs.(flow) + 1;
      Buffer.add_string buf
        (Printf.sprintf "E%d:%b;" flow (H.enqueue t ~now:!now cls p))
    in
    let deq () =
      match H.dequeue t ~now:!now with
      | None -> Buffer.add_string buf "D-;"
      | Some (p, c, crit) ->
          Buffer.add_string buf
            (Printf.sprintf "D%d:%d:%s:%d;" p.Pkt.Packet.flow
               p.Pkt.Packet.seq (H.name c) (crit_int crit))
    in
    (* phase 1: only [a] backlogged *)
    for _ = 1 to nops do
      now := !now +. Random.State.float rng 0.002;
      if Random.State.float rng 1. < 0.55 then enq 0 a else deq ()
    done;
    (* mid-run, with [a]'s backlog live: give passive [b] a concave rsc
       and a bigger share — the control plane's modify *)
    H.modify_class t b
      ~rsc:(Curve.Service_curve.make ~m1:(0.6 *. link) ~d:0.01
              ~m2:(0.25 *. link))
      ~fsc:(Curve.Service_curve.linear (0.6 *. link))
      ();
    Buffer.add_string buf "M;";
    (* phase 2: [b]'s next backlogged period begins under the new curves *)
    for _ = 1 to nops do
      now := !now +. Random.State.float rng 0.002;
      let r = Random.State.float rng 1. in
      if r < 0.3 then enq 0 a
      else if r < 0.6 then enq 1 b
      else deq ()
    done;
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "C%s:%h:%h:%h:%d;" (H.name c) (H.total_bytes c)
             (H.realtime_bytes c) (H.virtual_time c) (H.queue_length c)))
      (H.classes t);
    Buffer.contents buf
end

module ROpt = Reconf (Hfsc)
module RRef = Reconf (Hfsc_ref)

let test_reconf_diff_big () =
  let a = ROpt.run ~seed:5 ~nops:3000 in
  let b = RRef.run ~seed:5 ~nops:3000 in
  Alcotest.(check string) "identical trace across set_curves" b a

let reconf_diff_random =
  qt ~count:30 "set_curves mid-backlog: Hfsc = Hfsc_ref"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> ROpt.run ~seed ~nops:300 = RRef.run ~seed ~nops:300)

(* The semantic half of the guarantee: the new curves govern the next
   backlogged period. After [b]'s fair curve is tripled, a greedy [b]
   must draw ~3x [a]'s service in the following window. *)
let test_reconf_takes_effect () =
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let mk name r =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name
      ~fsc:(Curve.Service_curve.linear r) ~qlimit:5000 ()
  in
  let a = mk "a" (0.5 *. link) in
  let b = mk "b" (0.5 *. link) in
  let now = ref 0. in
  let seq = ref 0 in
  let feed cls flow =
    ignore
      (Hfsc.enqueue t ~now:!now cls
         (Pkt.Packet.make ~flow ~size:1000 ~seq:!seq ~arrival:!now));
    incr seq
  in
  (* both greedy: equal split under the initial equal curves *)
  let run_window () =
    let a0 = Hfsc.total_bytes a and b0 = Hfsc.total_bytes b in
    for _ = 1 to 2000 do
      now := !now +. 0.001;
      feed a 0;
      feed a 0;
      feed b 1;
      feed b 1;
      ignore (Hfsc.dequeue t ~now:!now);
      ignore (Hfsc.dequeue t ~now:!now)
    done;
    (Hfsc.total_bytes a -. a0, Hfsc.total_bytes b -. b0)
  in
  let da, db = run_window () in
  Alcotest.(check bool) "equal shares before" true
    (abs_float (db /. da -. 1.) < 0.1);
  (* drain b, reconfigure it, resume *)
  let rec drain_b () =
    if Hfsc.queue_length b > 0 then begin
      now := !now +. 0.001;
      ignore (Hfsc.dequeue t ~now:!now);
      drain_b ()
    end
  in
  drain_b ();
  Hfsc.modify_class t b ~fsc:(Curve.Service_curve.linear (1.5 *. link)) ();
  let da, db = run_window () in
  Alcotest.(check bool) "3:1 after (next backlogged period)" true
    (abs_float ((db /. da /. 3.) -. 1.) < 0.15)

(* --- the name index: Hfsc's find_class against Hfsc_ref's scan ----- *)

(* Random adds and removes over a 4-name pool, so names repeat and the
   class removed is often the earliest of its name. After every op both
   schedulers must list the same classes (id, name), resolve every name
   to the same id, and Hfsc's audit (which checks its name index) must
   be clean. *)
let name_pool = [| "root"; "a"; "b"; "c"; "d" |]

let name_index_diff =
  qt ~count:200 "add/remove churn: find_class and classes agree"
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (triple bool (int_range 1 4) (int_range 0 1000)))
    (fun ops ->
      let t = Hfsc.create ~link_rate:1e6 ()
      and r = Hfsc_ref.create ~link_rate:1e6 () in
      let fsc = Curve.Service_curve.linear 1000. in
      (* the pairs of live classes, in creation order *)
      let live = ref [] in
      let agree () =
        List.map (fun c -> (Hfsc.id c, Hfsc.name c)) (Hfsc.classes t)
        = List.map (fun c -> (Hfsc_ref.id c, Hfsc_ref.name c))
            (Hfsc_ref.classes r)
        && Array.for_all
             (fun n ->
               Option.map Hfsc.id (Hfsc.find_class t n)
               = Option.map Hfsc_ref.id (Hfsc_ref.find_class r n))
             name_pool
        && Hfsc.audit t = []
      in
      List.for_all
        (fun (add, k, pick) ->
          let l = !live in
          (if add then begin
             let n = List.length l in
             let pt, pr =
               if pick mod (n + 1) = n then (Hfsc.root t, Hfsc_ref.root r)
               else List.nth l (pick mod (n + 1))
             in
             let name = name_pool.(k) in
             let ct = Hfsc.add_class t ~parent:pt ~name ~fsc ()
             and cr = Hfsc_ref.add_class r ~parent:pr ~name ~fsc () in
             live := l @ [ (ct, cr) ]
           end
           else
             match List.filter (fun (ct, _) -> Hfsc.is_leaf ct) l with
             | [] -> ()
             | leaves ->
                 let ct, cr = List.nth leaves (pick mod List.length leaves) in
                 Hfsc.remove_class t ct;
                 Hfsc_ref.remove_class r cr;
                 live := List.filter (fun (c, _) -> c != ct) l);
          agree ())
        ops)

let () =
  Alcotest.run "hfsc-diff"
    [
      ( "scheduler",
        [
          Alcotest.test_case "deterministic big run" `Quick
            test_sched_diff_big;
          sched_diff_random;
          Alcotest.test_case "tie-heavy bursts" `Quick test_ties;
        ] );
      ("batch", [ record_identity ]);
      ("name index", [ name_index_diff ]);
      ( "set_curves",
        [
          Alcotest.test_case "mid-backlog big run" `Quick
            test_reconf_diff_big;
          reconf_diff_random;
          Alcotest.test_case "takes effect next period" `Quick
            test_reconf_takes_effect;
        ] );
    ]
