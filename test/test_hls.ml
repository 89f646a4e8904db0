(* Tests for the pluggable-backend tier (lib/sched/hls +
   lib/runtime/backend): the round-robin scheduler's own properties —
   work conservation, quantum-proportional long-run shares (flat and
   hierarchical), [dequeue_into] against [dequeue], drains that
   allocate nothing at 10k classes (H-FSC's too), drop-longest eviction
   (H-FSC's too, every victim against a linear scan) — the engine driving
   it through the Runtime.Backend record (grammar, admission,
   telemetry, stats, checkpoint round-trip), and the differential pin
   that the hfsc backend behind the same record stays bit-identical to
   a raw Hfsc scheduler driven directly. *)

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

(* Drop-from-longest eviction, pinned step by step: the victim is the
   leaf with the most queued bytes among leaves holding two or more
   packets, ties to the smaller id; one arrival may evict several
   tails; with no queue of two the arrival itself is dropped. Every
   loss reaches the drop hook and the losing queue's [drops], and the
   subtree counters stay exact (audit after each step). *)
let test_drop_longest () =
  let t = Hls.create () in
  let g = Hls.add_class t ~parent:(Hls.root t) ~name:"g" () in
  let a = Hls.add_class t ~parent:g ~name:"a" () in
  let b = Hls.add_class t ~parent:g ~name:"b" () in
  let c = Hls.add_class t ~parent:(Hls.root t) ~name:"c" () in
  let d = Hls.add_class t ~parent:(Hls.root t) ~name:"d" () in
  let lost = ref [] in
  Hls.set_drop_hook t (fun _ cls p ->
      lost := (Hls.name cls, p.Pkt.Packet.seq) :: !lost);
  Hls.set_drop_policy t Hls.Drop_longest;
  Hls.set_aggregate_limit t ~pkts:7 ();
  let seq = ref 0 in
  let put cls size =
    incr seq;
    let r = Hls.enqueue t ~now:0. cls (pkt ~size ~flow:1 ~seq:!seq ()) in
    Alcotest.(check (list string)) "audit clean" [] (Hls.audit t);
    r
  in
  let step what cls size ~admitted ~evicted =
    lost := [];
    Alcotest.(check bool) (what ^ ": admitted") admitted (put cls size);
    Alcotest.(check (list (pair string int)))
      (what ^ ": drop hook") evicted (List.rev !lost)
  in
  let state () =
    List.map
      (fun x -> (Hls.name x, Hls.queue_length x, Hls.queue_bytes x, Hls.drops x))
      [ a; b; c; d ]
  in
  let check_state what want =
    Alcotest.(check (list (pair string (pair int (pair int int)))))
      what
      (List.map (fun (n, l, by, dr) -> (n, (l, (by, dr)))) want)
      (List.map (fun (n, l, by, dr) -> (n, (l, (by, dr)))) (state ()))
  in
  (* seqs 1-7: a and b tie at 1000 bytes; c's single 1500-byte packet
     is the most bytes but never a victim *)
  List.iter
    (fun (cls, size) -> assert (put cls size))
    [ (a, 400); (a, 600); (b, 300); (b, 700); (c, 1500); (d, 200); (d, 200) ];
  check_state "filled"
    [ ("a", 2, 1000, 0); ("b", 2, 1000, 0); ("c", 1, 1500, 0);
      ("d", 2, 400, 0) ];
  step "tie to the smaller id" d 100 ~admitted:true ~evicted:[ ("a", 2) ];
  step "most bytes" d 100 ~admitted:true ~evicted:[ ("b", 4) ];
  check_state "two evictions"
    [ ("a", 1, 400, 1); ("b", 1, 300, 1); ("c", 1, 1500, 0);
      ("d", 4, 600, 0) ];
  (* a byte bound that one 400-byte arrival meets only by evicting two
     of d's tails, newest first *)
  Hls.set_aggregate_limit t ~pkts:100 ~bytes:3000 ();
  step "several tails" a 400 ~admitted:true ~evicted:[ ("d", 9); ("d", 8) ];
  check_state "after several tails"
    [ ("a", 2, 800, 1); ("b", 1, 300, 1); ("c", 1, 1500, 0);
      ("d", 2, 400, 2) ];
  Alcotest.(check int) "backlog bytes" 3000 (Hls.backlog_bytes t);
  (* a 1600-byte arrival: evicting a's tail, then d's, still leaves no
     room, so the arrival is dropped after both evictions *)
  step "victims run out" b 1600 ~admitted:false
    ~evicted:[ ("a", 10); ("d", 7); ("b", 11) ];
  check_state "arrival refused"
    [ ("a", 1, 400, 2); ("b", 1, 300, 2); ("c", 1, 1500, 0);
      ("d", 1, 200, 3) ];
  (* every queue holds one packet: nothing to evict *)
  Hls.set_aggregate_limit t ~pkts:4 ();
  step "no queue of two" c 100 ~admitted:false ~evicted:[ ("c", 12) ];
  Alcotest.(check int) "c counts the refusal" 1 (Hls.drops c);
  Alcotest.(check int) "backlog packets" 4 (Hls.backlog_pkts t);
  Alcotest.(check int) "backlog bytes" 2400 (Hls.backlog_bytes t)

(* Every eviction, on both schedulers, against a linear scan: random
   adds, removes, arrivals, drains, policy switches and bound changes
   mid-backlog. Before each arrival the test snapshots every live
   leaf's queue; each eviction the drop hook reports must be the
   scan's victim over that snapshot (most bytes among queues of two or
   more, ties to the smaller id), which is then charged the dropped
   packet. *)
type 'c sched = {
  root : 'c;
  add : parent:'c -> string -> 'c;
  remove : 'c -> unit;
  enqueue : now:float -> 'c -> Pkt.Packet.t -> bool;
  dequeue : now:float -> unit;
  set_policy : Hls.drop_policy -> unit;
  set_limit : pkts:int -> bytes:int -> unit;
  set_hook : ('c -> Pkt.Packet.t -> unit) -> unit;
  classes : unit -> 'c list;
  is_leaf : 'c -> bool;
  id : 'c -> int;
  qlen : 'c -> int;
  qbytes : 'c -> int;
  audit : unit -> string list;
}

let hfsc_sched () =
  let t = Hfsc.create ~link_rate:1e6 () in
  {
    root = Hfsc.root t;
    add =
      (fun ~parent name ->
        Hfsc.add_class t ~parent ~name
          ~fsc:(Curve.Service_curve.linear 1e5) ());
    remove = Hfsc.remove_class t;
    enqueue = (fun ~now c p -> Hfsc.enqueue t ~now c p);
    dequeue = (fun ~now -> ignore (Hfsc.dequeue t ~now));
    set_policy = Hfsc.set_drop_policy t;
    set_limit =
      (fun ~pkts ~bytes -> Hfsc.set_aggregate_limit t ~pkts ~bytes ());
    set_hook = (fun f -> Hfsc.set_drop_hook t (fun _ c p -> f c p));
    classes = (fun () -> Hfsc.classes t);
    is_leaf = Hfsc.is_leaf;
    id = Hfsc.id;
    qlen = Hfsc.queue_length;
    qbytes = Hfsc.queue_bytes;
    audit = (fun () -> Hfsc.audit t);
  }

let hls_sched () =
  let t = Hls.create () in
  let names = ref 0 in
  {
    root = Hls.root t;
    add =
      (fun ~parent name ->
        incr names;
        Hls.add_class t ~parent ~name:(Printf.sprintf "%s%d" name !names) ());
    remove = Hls.remove_class t;
    enqueue = (fun ~now c p -> Hls.enqueue t ~now c p);
    dequeue = (fun ~now -> ignore (Hls.dequeue t ~now));
    set_policy = Hls.set_drop_policy t;
    set_limit =
      (fun ~pkts ~bytes -> Hls.set_aggregate_limit t ~pkts ~bytes ());
    set_hook = (fun f -> Hls.set_drop_hook t (fun _ c p -> f c p));
    classes = (fun () -> Hls.classes t);
    is_leaf = Hls.is_leaf;
    id = Hls.id;
    qlen = Hls.queue_length;
    qbytes = Hls.queue_bytes;
    audit = (fun () -> Hls.audit t);
  }

type evict_op =
  | E_add of int
  | E_remove of int
  | E_enqueue of int * int
  | E_dequeue
  | E_policy of bool
  | E_limit of int * int

let print_evict_op = function
  | E_add p -> Printf.sprintf "add under %d" p
  | E_remove p -> Printf.sprintf "remove %d" p
  | E_enqueue (p, s) -> Printf.sprintf "enqueue %d %dB" p s
  | E_dequeue -> "dequeue"
  | E_policy b -> Printf.sprintf "drop-longest %b" b
  | E_limit (p, b) -> Printf.sprintf "limit %d pkts %d bytes" p b

let evict_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun p -> E_add p) nat);
        (1, map (fun p -> E_remove p) nat);
        ( 8,
          map2
            (fun p s -> E_enqueue (p, s))
            nat
            (oneofl [ 64; 300; 1000; 1500 ]) );
        (3, return E_dequeue);
        (1, map (fun b -> E_policy b) bool);
        (1, map2 (fun p b -> E_limit (p, b)) (1 -- 12) (500 -- 9000));
      ])

let evictions_match_scan (s : 'c sched) ops =
  let failures = ref [] in
  let snapshot = ref [] in
  let arriving = ref (pkt ~flow:0 ~seq:0 ()) in
  s.set_hook (fun c p ->
      if p != !arriving then begin
        (* the scan's victim over the snapshot: id order, so only a
           strictly larger queue replaces the best *)
        let want =
          List.fold_left
            (fun best (id, len, by) ->
              match best with
              | _ when len < 2 -> best
              | Some (_, _, bb) when bb >= by -> best
              | _ -> Some (id, len, by))
            None !snapshot
        in
        (match want with
        | Some (id, _, _) when id = s.id c -> ()
        | Some (id, _, _) ->
            failures :=
              Printf.sprintf "evicted from %d, scan says %d" (s.id c) id
              :: !failures
        | None ->
            failures :=
              Printf.sprintf "evicted from %d, scan says none" (s.id c)
              :: !failures);
        snapshot :=
          List.map
            (fun (id, len, by) ->
              if id = s.id c then (id, len - 1, by - p.Pkt.Packet.size)
              else (id, len, by))
            !snapshot
      end);
  s.set_limit ~pkts:6 ~bytes:5000;
  let now = ref 0. in
  let pick k l =
    match l with [] -> None | _ -> Some (List.nth l (k mod List.length l))
  in
  let leaves () =
    List.filter (fun c -> c != s.root && s.is_leaf c) (s.classes ())
  in
  List.iteri
    (fun i op ->
      now := !now +. 0.001;
      (match op with
      | E_add p -> (
          match pick p (s.classes ()) with
          | Some parent -> (
              try ignore (s.add ~parent "c") with Invalid_argument _ -> ())
          | None -> ())
      | E_remove p -> (
          match pick p (List.filter (fun c -> c != s.root) (s.classes ())) with
          | Some c -> ( try s.remove c with Invalid_argument _ -> ())
          | None -> ())
      | E_enqueue (p, size) -> (
          match pick p (leaves ()) with
          | Some c ->
              snapshot :=
                List.map (fun c -> (s.id c, s.qlen c, s.qbytes c)) (leaves ());
              arriving := pkt ~size ~flow:1 ~seq:i ();
              ignore (s.enqueue ~now:!now c !arriving)
          | None -> ())
      | E_dequeue -> s.dequeue ~now:!now
      | E_policy on -> s.set_policy (if on then Drop_longest else Tail_drop)
      | E_limit (pkts, bytes) -> s.set_limit ~pkts ~bytes);
      List.iter
        (fun e -> failures := (print_evict_op op ^ ": " ^ e) :: !failures)
        (s.audit ()))
    ops;
  match !failures with
  | [] -> true
  | l -> QCheck2.Test.fail_report (String.concat "\n" (List.rev l))

let evictions_prop name make =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:150 ~name
       ~print:(fun ops -> String.concat "; " (List.map print_evict_op ops))
       QCheck2.Gen.(list_size (int_range 0 150) evict_op_gen)
  @@ fun ops -> evictions_match_scan (make ()) ops

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

(* The record entry point is bit-identical in service order to the
   option-returning one: two schedulers built identically, one drained
   through [dequeue_into] on one held record, one through [dequeue]. *)
let test_dequeue_into_equals_dequeue () =
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
  let served = Pkt.Served.create () in
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
    for _ = 1 to 1 + Random.State.int rng 6 do
      match (Hls.dequeue_into ta ~now:0. served, Hls.dequeue tb ~now:0.) with
      | false, None -> ()
      | true, Some (p, cls) ->
          Alcotest.(check bool) "same packet" true (served.o_pkt == p);
          Alcotest.(check int) "same class" (Hls.id cls) served.o_id;
          Alcotest.(check bool) "never realtime" false served.o_rt
      | true, None -> Alcotest.fail "dequeue ran dry before dequeue_into"
      | false, Some _ -> Alcotest.fail "dequeue_into ran dry before dequeue"
    done
  done;
  Alcotest.(check int) "same final backlog" (Hls.backlog_pkts ta)
    (Hls.backlog_pkts tb);
  Alcotest.(check (list string)) "audit a" [] (Hls.audit ta);
  Alcotest.(check (list string)) "audit b" [] (Hls.audit tb)

(* Serve up to [n] packets, one [dequeue] each; top-level so a drain
   builds no closure. *)
let rec drain_n dequeue n i =
  if i < n && dequeue ~now:0. then drain_n dequeue n (i + 1) else i

(* Both backends' drains of [dequeue_into] calls fill one held record:
   exactly zero minor words per packet at 10k classes, on the two-level
   hierarchy E7's backend table times (leaves under aggregates of
   1000; fsc-only for H-FSC). The standing backlog sits on the first
   4096 leaves. The clock never advances (the fsc-only H-FSC build
   serves by virtual time), so no float is boxed in the timed loop.
   Each scheduler is drained three times: bare, through its
   [Backend.dequeue], and through a traced engine's [Engine.dequeue],
   which costs exactly its 6-word [Some (pkt, id, crit)] result. *)
let test_drains_allocate_nothing () =
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
  let words_per_packet ~what ~words ~enqueue dequeue =
    for i = 0 to hot - 1 do
      for s = 0 to per - 1 do
        enqueue i (pkt ~flow:i ~seq:s ())
      done
    done;
    for _ = 1 to warm do
      ignore (drain_n dequeue burst 0)
    done;
    let served = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to k do
      served := !served + drain_n dequeue burst 0
    done;
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check int) (what ^ ": every drain was full") (k * burst) !served;
    Alcotest.(check (float 0.)) (what ^ ": minor words per packet") words
      (w /. float_of_int (k * burst))
  in
  let rr () =
    let t = Hls.create () in
    let leaves =
      two_level ~root:(Hls.root t)
        ~add_agg:(fun name -> Hls.add_class t ~parent:(Hls.root t) ~name ())
        ~add_leaf:(fun parent name ->
          Hls.add_class t ~parent ~name ~qlimit_pkts:1_000_000 ())
    in
    (t, leaves)
  in
  let link_rate = 12_500_000. in
  let hfsc () =
    let t = Hfsc.create ~link_rate () in
    let leaf_sc = Curve.Service_curve.linear (link_rate /. float_of_int n) in
    let agg_sc =
      Curve.Service_curve.linear
        (link_rate *. float_of_int fanout /. float_of_int n)
    in
    let leaves =
      two_level ~root:(Hfsc.root t)
        ~add_agg:(fun name ->
          Hfsc.add_class t ~parent:(Hfsc.root t) ~name ~fsc:agg_sc ())
        ~add_leaf:(fun parent name ->
          Hfsc.add_class t ~parent ~name ~fsc:leaf_sc ~qlimit:1_000_000 ())
    in
    (t, leaves)
  in
  let served = Pkt.Served.create () in
  (let t, leaves = rr () in
   words_per_packet ~what:"rr" ~words:0.
     ~enqueue:(fun i p -> ignore (Hls.enqueue t ~now:0. leaves.(i) p))
     (fun ~now -> Hls.dequeue_into t ~now served));
  (let t, leaves = hfsc () in
   words_per_packet ~what:"hfsc" ~words:0.
     ~enqueue:(fun i p -> ignore (Hfsc.enqueue t ~now:0. leaves.(i) p))
     (fun ~now -> Hfsc.dequeue_into t ~now served));
  let backend ~what be ids =
    words_per_packet ~what ~words:0.
      ~enqueue:(fun i p -> ignore (be.B.enqueue ~now:0. ids.(i) p))
      be.B.dequeue
  in
  let traced ~what be ids =
    let eng = E.create_backend ~tracing:true be ~flow_map:[] () in
    words_per_packet ~what ~words:6.
      ~enqueue:(fun i p -> ignore (E.enqueue eng ~now:0. ids.(i) p))
      (fun ~now -> Option.is_some (E.dequeue eng ~now))
  in
  (let t, leaves = rr () in
   backend ~what:"rr backend" (B.of_hls ~link_rate t) (Array.map Hls.id leaves));
  (let t, leaves = hfsc () in
   backend ~what:"hfsc backend" (B.of_hfsc ~link_rate t)
     (Array.map Hfsc.id leaves));
  (let t, leaves = rr () in
   traced ~what:"traced rr engine" (B.of_hls ~link_rate t)
     (Array.map Hls.id leaves));
  let t, leaves = hfsc () in
  traced ~what:"traced hfsc engine" (B.of_hfsc ~link_rate t)
    (Array.map Hfsc.id leaves)

(* --- the engine over the rr backend -------------------------------- *)

let rr_engine () =
  E.create_backend (B.of_hls ~link_rate:1.25e6 (Hls.create ())) ~flow_map:[] ()

(* A backend refuses an id it does not own. After [b] is removed,
   every id-taking function — the shared class views, [params], and
   the record's admission, mutators and [enqueue] — raises
   [Invalid_argument] on [b] and on ids out of range; [class_ids] keeps
   creation order without [b]; and the next class gets a fresh id,
   never [b]'s. *)
let check_unknown_ids ~what (be : B.t) params =
  let add name =
    match be.B.add_class ~parent:0 ~name params ~qlimit:None ~qbytes:None with
    | Ok id -> id
    | Error e -> Alcotest.failf "%s: add %s: %s" what name (B.error_message e)
  in
  let a = add "a" in
  let b = add "b" in
  let c = add "c" in
  (match be.B.remove_class ~id:b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: remove b: %s" what (B.error_message e));
  let refused id =
    List.iter
      (fun (op, f) ->
        match f () with
        | () -> Alcotest.failf "%s: %s accepted unknown id %d" what op id
        | exception Invalid_argument _ -> ())
      [
        ("cls_name", fun () -> ignore (B.cls_name be id));
        ("parent_id", fun () -> ignore (B.parent_id be id));
        ("is_leaf", fun () -> ignore (B.is_leaf be id));
        ("queue_length", fun () -> ignore (B.queue_length be id));
        ("queue_bytes", fun () -> ignore (B.queue_bytes be id));
        ("queue_limit_pkts", fun () -> ignore (B.queue_limit_pkts be id));
        ("queue_limit_bytes", fun () -> ignore (B.queue_limit_bytes be id));
        ("params", fun () -> ignore (be.B.params id));
        ( "admit_add",
          fun () -> ignore (be.B.admit_add ~parent:id ~name:"x" params) );
        ( "admit_modify",
          fun () -> ignore (be.B.admit_modify ~id ~name:"x" params) );
        ( "add_class",
          fun () ->
            ignore
              (be.B.add_class ~parent:id ~name:"x" params ~qlimit:None
                 ~qbytes:None) );
        ( "modify_class",
          fun () ->
            ignore (be.B.modify_class ~id params ~qlimit:None ~qbytes:None) );
        ("remove_class", fun () -> ignore (be.B.remove_class ~id));
        ( "enqueue",
          fun () -> ignore (be.B.enqueue ~now:0. id (pkt ~flow:1 ~seq:0 ())) );
      ]
  in
  List.iter refused [ b; c + 1; max_int; -1 ];
  Alcotest.(check (list int))
    (what ^ ": class_ids in creation order, without the removed id")
    [ 0; a; c ] (B.class_ids be);
  let d = add "d" in
  Alcotest.(check int) (what ^ ": a fresh id after the remove") (c + 1) d;
  refused b;
  Alcotest.(check (list int))
    (what ^ ": class_ids after the add")
    [ 0; a; c; d ] (B.class_ids be);
  Alcotest.(check (list string)) (what ^ ": audit clean") [] (be.B.audit ())

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
  Alcotest.(check (list string)) "audit clean" [] (E.audit eng);
  let params = { B.rsc = None; fsc = None; usc = None; quantum = None } in
  check_unknown_ids ~what:"rr" (B.of_hls ~link_rate:1.25e6 (Hls.create ()))
    params;
  check_unknown_ids ~what:"hfsc"
    (B.of_hfsc ~link_rate:1.25e6 (Hfsc.create ~link_rate:1.25e6 ()))
    { params with fsc = Some (Curve.Service_curve.linear 1e5) }

(* A refused [modify class] changes nothing: neither the class's
   quantum, nor its parent's quantum sum, nor its limits — even when
   the quantum part of the command was valid on its own. *)
let test_rr_modify_refusals_change_nothing () =
  let sched = Hls.create () in
  let eng =
    E.create_backend (B.of_hls ~link_rate:1.25e6 sched) ~flow_map:[] ()
  in
  List.iter
    (fun line -> ignore (ok_exec (exec1 eng line)))
    [
      "add class g parent root quantum 2000";
      "add class a parent g flow 1 quantum 3000 qlimit 8";
      "add class b parent g flow 2 quantum 1500";
    ];
  let cls name = Option.get (Hls.find_class sched name) in
  let state name =
    let c = cls name in
    ( Hls.quantum c,
      Hls.quantum_sum_under (Option.get (Hls.parent c)),
      Hls.queue_limit_pkts c,
      Hls.queue_limit_bytes c )
  in
  List.iter
    (fun (name, line, code) ->
      let before = state name in
      (match exec1 eng line with
      | Ok _ -> Alcotest.failf "%s: accepted" line
      | Error e ->
          Alcotest.(check string) line (B.error_code_name code)
            (B.error_code_name (E.error_code e)));
      Alcotest.(check bool) (line ^ ": class unchanged") true
        (state name = before))
    [
      ("a", "modify class a quantum 4500 qlimit -3", B.Bad_value);
      ("g", "modify class g quantum 2500 qlimit 5", B.Structural);
    ];
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
  let b_id = Option.get (B.find_id (E.backend eng) "b") in
  Alcotest.(check int) "qlimit enforced" 4
    (B.queue_length (E.backend eng) b_id);
  (match T.snapshot_counters (E.snapshot eng) ~id:b_id with
  | Some c ->
      Alcotest.(check int) "drops counted" 4 c.T.drop_pkts;
      Alcotest.(check int) "enq counted" 4 c.T.enq_pkts
  | None -> Alcotest.fail "no counters for b");
  (* drain through the engine; rr serves everything as link-share *)
  let served = ref 0 in
  let rec go () =
    match E.dequeue eng ~now:0. with
    | None -> ()
    | Some (_, _, crit) ->
        Alcotest.(check bool) "never realtime" true (crit = Hfsc.Linkshare);
        incr served;
        go ()
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
              (B.cls_name (E.backend eng) eid);
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
            test_dequeue_into_equals_dequeue;
          Alcotest.test_case "batched drains allocate nothing" `Quick
            test_drains_allocate_nothing;
          Alcotest.test_case "drop-longest eviction" `Quick test_drop_longest;
          evictions_prop "hls: every eviction = the linear scan" hls_sched;
          evictions_prop "hfsc: every eviction = the linear scan" hfsc_sched;
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
          Alcotest.test_case "modify refusals change nothing" `Quick
            test_rr_modify_refusals_change_nothing;
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
