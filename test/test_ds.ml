(* Unit and property tests for lib/ds's packet FIFO, int-keyed table
   and class table.
   Property tests check each structure against a reference model. The
   Section V trees live inside lib/hfsc/hfsc.ml; test_hfsc_diff and
   test_fuzz pin them through the scheduler against Hfsc_ref. *)

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- packet FIFO ---------------------------------------------------- *)

let pkt ?(size = 100) seq = Pkt.Packet.make ~flow:1 ~size ~seq ~arrival:0.

let test_fifo_order () =
  let q = Ds.Fifo_queue.create () in
  for i = 0 to 99 do
    assert (Ds.Fifo_queue.push q (pkt i))
  done;
  for i = 0 to 99 do
    Alcotest.(check int) "seq order" i (Ds.Fifo_queue.take q).Pkt.Packet.seq
  done;
  Alcotest.(check bool) "drained" true (Ds.Fifo_queue.is_empty q)

let test_fifo_bytes () =
  let q = Ds.Fifo_queue.create () in
  ignore (Ds.Fifo_queue.push q (pkt ~size:100 0));
  ignore (Ds.Fifo_queue.push q (pkt ~size:250 1));
  Alcotest.(check int) "bytes" 350 (Ds.Fifo_queue.bytes q);
  ignore (Ds.Fifo_queue.take q);
  Alcotest.(check int) "bytes after take" 250 (Ds.Fifo_queue.bytes q)

let test_fifo_droptail () =
  let q = Ds.Fifo_queue.create ~limit_pkts:3 () in
  Alcotest.(check bool) "1" true (Ds.Fifo_queue.push q (pkt 0));
  Alcotest.(check bool) "2" true (Ds.Fifo_queue.push q (pkt 1));
  Alcotest.(check bool) "3" true (Ds.Fifo_queue.push q (pkt 2));
  Alcotest.(check bool) "4 dropped" false (Ds.Fifo_queue.push q (pkt 3));
  Alcotest.(check int) "drop count" 1 (Ds.Fifo_queue.drops q);
  Alcotest.(check int) "drop_tail takes the newest" 2
    (Ds.Fifo_queue.drop_tail q).Pkt.Packet.seq;
  Alcotest.(check int) "eviction counted" 2 (Ds.Fifo_queue.drops q);
  Alcotest.(check bool) "room again" true (Ds.Fifo_queue.push q (pkt 4));
  Alcotest.(check int) "head kept" 0 (Ds.Fifo_queue.take q).Pkt.Packet.seq;
  Alcotest.(check bool) "room after take" true (Ds.Fifo_queue.push q (pkt 5))

let test_fifo_peek_clear () =
  let q = Ds.Fifo_queue.create () in
  let refused name f =
    match f q with
    | _ -> Alcotest.failf "%s on an empty queue answered" name
    | exception Invalid_argument _ -> ()
  in
  refused "head" Ds.Fifo_queue.head;
  refused "take" Ds.Fifo_queue.take;
  refused "drop_tail" Ds.Fifo_queue.drop_tail;
  ignore (Ds.Fifo_queue.push q (pkt 7));
  Alcotest.(check int) "head" 7 (Ds.Fifo_queue.head q).Pkt.Packet.seq;
  Alcotest.(check int) "head keeps" 1 (Ds.Fifo_queue.length q);
  Ds.Fifo_queue.clear q;
  Alcotest.(check int) "cleared" 0 (Ds.Fifo_queue.length q);
  Alcotest.(check int) "bytes cleared" 0 (Ds.Fifo_queue.bytes q);
  refused "head after clear" Ds.Fifo_queue.head

let fifo_vs_queue =
  qt "fifo_queue: interleaved ops match Stdlib.Queue"
    QCheck2.Gen.(list (pair bool (int_range 1 500)))
    (fun ops ->
      let q = Ds.Fifo_queue.create () in
      let model = Queue.create () in
      let seq = ref 0 in
      List.for_all
        (fun (is_push, size) ->
          if is_push then begin
            incr seq;
            let p = pkt ~size !seq in
            ignore (Ds.Fifo_queue.push q p);
            Queue.push p model;
            true
          end
          else begin
            let got =
              if Ds.Fifo_queue.is_empty q then None
              else Some (Ds.Fifo_queue.take q)
            in
            let want = Queue.take_opt model in
            (match (got, want) with
            | None, None -> true
            | Some a, Some b -> Pkt.Packet.equal a b
            | _ -> false)
            && Ds.Fifo_queue.length q = Queue.length model
            && Ds.Fifo_queue.bytes q
               = Queue.fold (fun n p -> n + p.Pkt.Packet.size) 0 model
          end)
        ops)

let test_fifo_iter () =
  let q = Ds.Fifo_queue.create () in
  (* force ring wraparound: initial capacity is 8 *)
  for i = 0 to 5 do
    ignore (Ds.Fifo_queue.push q (pkt i))
  done;
  for _ = 0 to 3 do
    ignore (Ds.Fifo_queue.take q)
  done;
  for i = 6 to 12 do
    ignore (Ds.Fifo_queue.push q (pkt i))
  done;
  let seen = ref [] in
  Ds.Fifo_queue.iter (fun p -> seen := p.Pkt.Packet.seq :: !seen) q;
  Alcotest.(check (list int)) "iter head-to-tail"
    [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
    (List.rev !seen)

(* Once the ring has grown, a push and a take move a pointer and a few
   ints: no option cell, no allocation at all. *)
let test_fifo_no_alloc () =
  let q = Ds.Fifo_queue.create () in
  let pkts = Array.init 64 (fun i -> pkt i) in
  Array.iter (fun p -> ignore (Ds.Fifo_queue.push q p)) pkts;
  Array.iter (fun _ -> ignore (Ds.Fifo_queue.take q)) pkts;
  let cycle () =
    for i = 0 to 63 do
      ignore (Ds.Fifo_queue.push q (Array.unsafe_get pkts i));
      ignore (Ds.Fifo_queue.push q (Array.unsafe_get pkts (63 - i)));
      ignore (Ds.Fifo_queue.take q);
      ignore (Ds.Fifo_queue.take q)
    done
  in
  cycle ();
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = words ignore in
  let w =
    words (fun () ->
        for _ = 1 to 100 do
          cycle ()
        done)
  in
  Alcotest.(check (float 0.)) "12.8k push/take pairs: 0 minor words" 0.
    (w -. base);
  Alcotest.(check int) "drained" 0 (Ds.Fifo_queue.length q)

(* --- int table ------------------------------------------------------ *)

type table_op = Replace of int * int | Remove of int | Find of int

(* Keys from a small dense range (long probe runs, so removals shift),
   the extremes, and sparse ones far apart. *)
let key_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, int_range (-24) 24);
        (2, oneofl [ min_int; max_int; -1; 0; min_int + 1; max_int - 1 ]);
        (1, map (fun k -> k lsl 40) (int_range (-8) 8));
        (1, int);
      ])

let table_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Replace (k, v)) key_gen small_int);
        (3, map (fun k -> Remove k) key_gen);
        (2, map (fun k -> Find k) key_gen);
      ])

let bindings_of_table t =
  List.sort compare (Ds.Int_table.fold (fun k v acc -> (k, v) :: acc) t [])

let bindings_of_hashtbl h =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let print_table_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k

let int_table_vs_hashtbl =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:200 ~name:"int_table: ops match Stdlib.Hashtbl"
       ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
       QCheck2.Gen.(list_size (int_range 0 300) table_op_gen)
  @@ fun ops ->
      let t = Ds.Int_table.create 0 and h = Hashtbl.create 8 in
      let agree k =
        Ds.Int_table.find_opt t k = Hashtbl.find_opt h k
        && Ds.Int_table.mem t k = Hashtbl.mem h k
        && (match Ds.Int_table.find t k with
           | v -> Hashtbl.find_opt h k = Some v
           | exception Not_found -> not (Hashtbl.mem h k))
      in
      List.for_all
        (fun op ->
          let k =
            match op with
            | Replace (k, v) ->
                Ds.Int_table.replace t k v;
                Hashtbl.replace h k v;
                k
            | Remove k ->
                Ds.Int_table.remove t k;
                Hashtbl.remove h k;
                k
            | Find k -> k
          in
          agree k
          && Ds.Int_table.length t = Hashtbl.length h
          && Hashtbl.fold (fun k _ ok -> ok && agree k) h true)
        ops
      && bindings_of_table t = bindings_of_hashtbl h
      &&
      let seen = ref [] in
      Ds.Int_table.iter (fun k v -> seen := (k, v) :: !seen) t;
      List.sort compare !seen = bindings_of_hashtbl h

let test_int_table_no_alloc () =
  let t = Ds.Int_table.create 16 in
  let keys = [| min_int; -3; 0; 1 lsl 40; max_int; 7 |] in
  for i = 0 to 4 do
    Ds.Int_table.replace t keys.(i) i
  done;
  let w0 = Gc.minor_words () in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    for i = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys i in
      if Ds.Int_table.mem t k then hits := !hits + Ds.Int_table.find t k
    done
  done;
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "6k mem + 5k find: 0 minor words" 0. w;
  Alcotest.(check int) "found every bound key" (1000 * (0 + 1 + 2 + 3 + 4))
    !hits

(* --- class table ------------------------------------------------------ *)

module Ct = Ds.Class_table
module Q = Ds.Fifo_queue

type node = { nid : int; nname : string; q : Q.t }

type ct_op =
  | Add of int * int (* parent pick, name pick *)
  | Del of int
  | Push of int * int (* pick, size *)
  | Take of int
  | Drop_tail of int
  | Evict
  | Policy of bool (* drop-longest on *)

let ct_names = [| "a"; "b"; "c"; "d" |]

let ct_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun p n -> Add (p, n)) nat (int_bound 3));
        (2, map (fun p -> Del p) nat);
        (6, map2 (fun p s -> Push (p, s)) nat (oneofl [ 100; 200; 300; 1500 ]));
        (3, map (fun p -> Take p) nat);
        (1, map (fun p -> Drop_tail p) nat);
        (2, return Evict);
        (1, map (fun b -> Policy b) bool);
      ])

let print_ct_op = function
  | Add (p, n) -> Printf.sprintf "add %d %s" p ct_names.(n)
  | Del p -> Printf.sprintf "del %d" p
  | Push (p, s) -> Printf.sprintf "push %d %d" p s
  | Take p -> Printf.sprintf "take %d" p
  | Drop_tail p -> Printf.sprintf "drop_tail %d" p
  | Evict -> "evict"
  | Policy b -> Printf.sprintf "policy %b" b

(* The model: every node ever added, with its parent id and liveness;
   the queues are the nodes' own, so the victim scan reads them. Each
   op picks its node among the live ones that satisfy its precondition
   and does nothing when there are none. After every op each reader,
   by class and by id, answers as the model does, and the id readers
   refuse removed and out-of-range ids. *)
let class_table_vs_model =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:200 ~name:"class_table: ops match a list model"
       ~print:(fun ops -> String.concat "; " (List.map print_ct_op ops))
       QCheck2.Gen.(list_size (int_range 0 200) ct_op_gen)
  @@ fun ops ->
      let t =
        Ct.create ~what:"T" ~id:(fun n -> n.nid) ~name:(fun n -> n.nname)
          ~queue:(fun n -> n.q) ()
      in
      let mk nname = { nid = Ct.next_id t; nname; q = Q.create () } in
      let root = mk "root" in
      Ct.add t root;
      let model = ref [| (root, -1, true) |] in
      let live () =
        Array.to_list !model
        |> List.filter_map (fun (n, p, l) -> if l then Some (n, p) else None)
      in
      let has_kids n = List.exists (fun (_, p) -> p = n.nid) (live ()) in
      let pick k ok =
        match List.filter (fun (n, _) -> ok n) (live ()) with
        | [] -> None
        | l -> Some (List.nth l (k mod List.length l))
      in
      (* most bytes among queues of two, the first (smallest id) kept *)
      let scan () =
        List.fold_left
          (fun best (n, _) ->
            match best with
            | _ when Q.length n.q < 2 -> best
            | Some b when Q.bytes b.q >= Q.bytes n.q -> best
            | _ -> Some n)
          None (live ())
      in
      let evicted = ref [] in
      t.Ct.on_drop <- (fun _ n _ -> evicted := n :: !evicted);
      let seq = ref 0 in
      let count n pk sign =
        t.Ct.pkts <- t.Ct.pkts + sign;
        t.Ct.bytes <- t.Ct.bytes + (sign * pk.Pkt.Packet.size);
        if t.Ct.evicting then Ct.rekey t n.nid
      in
      let step = function
        | Add (p, k) ->
            Option.iter
              (fun (parent, _) ->
                let n = mk ct_names.(k) in
                Ct.add t ~parent n;
                model := Array.append !model [| (n, parent.nid, true) |])
              (pick p (fun n -> Q.is_empty n.q));
            true
        | Del p ->
            Option.iter
              (fun (n, par) ->
                Ct.remove t n ~active:false;
                !model.(n.nid) <- (n, par, false))
              (pick p (fun n ->
                   n.nid <> 0 && Q.is_empty n.q && not (has_kids n)));
            true
        | Push (p, size) ->
            Option.iter
              (fun (n, _) ->
                incr seq;
                let pk = Pkt.Packet.make ~flow:0 ~size ~seq:!seq ~arrival:0. in
                assert (Q.push n.q pk);
                count n pk 1)
              (pick p (fun n -> n.nid <> 0 && not (has_kids n)));
            true
        | (Take p | Drop_tail p) as op ->
            Option.iter
              (fun (n, _) ->
                let pk =
                  match op with Take _ -> Q.take n.q | _ -> Q.drop_tail n.q
                in
                count n pk (-1))
              (pick p (fun n -> not (Q.is_empty n.q)));
            true
        | Evict when t.Ct.evicting -> (
            (* a bound one packet short: exactly one eviction, if any *)
            let want = scan () in
            evicted := [];
            Ct.set_aggregate_limit t ~pkts:(max 1 t.Ct.pkts) ();
            let fits = Ct.make_room t ~now:0. 0 in
            Ct.set_aggregate_limit t ~pkts:max_int ();
            match (want, !evicted) with
            | None, [] -> (not fits) || t.Ct.pkts = 0
            | Some w, [ v ] -> fits && v == w
            | _ -> false)
        | Evict -> true
        | Policy on ->
            Ct.set_drop_policy t (if on then Drop_longest else Tail_drop);
            true
      in
      (* every id-level reader refuses [id] *)
      let refused id =
        List.for_all
          (fun read ->
            match read id with
            | () -> false
            | exception Invalid_argument _ -> true)
          [
            (fun i -> ignore (Ct.name_of_id t i));
            (fun i -> ignore (Ct.parent_of_id t i));
            (fun i -> ignore (Ct.is_leaf_id t i));
            (fun i -> ignore (Ct.queue_of_id t i));
          ]
      in
      let agree () =
        let l = live () in
        let ids = List.map (fun (n, _) -> n.nid) in
        List.map (fun n -> n.nid) (Ct.classes t) = ids l
        && Ct.ids t = ids l
        && Array.for_all
             (fun (n, p, alive) ->
               match Ct.class_of_id t n.nid with
               | m ->
                   alive && m == n
                   && Ct.id t n = n.nid
                   && Ct.name_of_id t n.nid = n.nname
                   && Ct.parent_of_id t n.nid
                      = (if p < 0 then None else Some p)
                   && Ct.is_leaf_id t n.nid = not (has_kids n)
                   && Ct.queue_of_id t n.nid == n.q
               | exception Invalid_argument _ -> (not alive) && refused n.nid)
             !model
        && List.for_all refused [ -1; Array.length !model; max_int ]
        && Array.for_all
             (fun name ->
               let first = List.find_opt (fun (n, _) -> n.nname = name) l in
               Ct.find_id t name = Option.map (fun (n, _) -> n.nid) first
               &&
               match (Ct.find t name, first) with
               | None, None -> true
               | Some m, Some (n, _) -> m == n
               | _ -> false)
             ct_names
        && List.for_all
             (fun (n, _) ->
               List.map (fun c -> c.nid) (Ct.children t n)
               = ids (List.filter (fun (_, p) -> p = n.nid) l)
               && Ct.is_leaf t n = not (has_kids n))
             l
        && (match (t.Ct.evicting, Ct.victim t, scan ()) with
           | false, None, _ | true, None, None -> true
           | true, Some v, Some w -> v == w
           | _ -> false)
        && Ct.audit t = []
      in
      List.for_all (fun op -> step op && agree ()) ops

let () =
  Alcotest.run "ds"
    [
      ( "fifo_queue",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "bytes" `Quick test_fifo_bytes;
          Alcotest.test_case "droptail" `Quick test_fifo_droptail;
          Alcotest.test_case "peek/clear" `Quick test_fifo_peek_clear;
          Alcotest.test_case "iter wraparound" `Quick test_fifo_iter;
          Alcotest.test_case "push/take allocate nothing" `Quick
            test_fifo_no_alloc;
          fifo_vs_queue;
        ] );
      ( "int_table",
        [
          Alcotest.test_case "lookups allocate nothing" `Quick
            test_int_table_no_alloc;
          int_table_vs_hashtbl;
        ] );
      ("class_table", [ class_table_vs_model ]);
    ]
