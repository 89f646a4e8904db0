(* Unit and property tests for lib/ds's binary heap and packet FIFO.
   Property tests check each structure against a reference model. The
   Section V trees live inside lib/hfsc/hfsc.ml; test_hfsc_diff and
   test_fuzz pin them through the scheduler against Hfsc_ref. *)

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

module IntHeap = Ds.Binary_heap.Make (Int)

(* --- binary heap --------------------------------------------------- *)

let test_heap_basic () =
  let h = IntHeap.create () in
  Alcotest.(check bool) "empty" true (IntHeap.is_empty h);
  Alcotest.(check (option int)) "min none" None (IntHeap.min_elt h);
  IntHeap.add h 5;
  IntHeap.add h 3;
  IntHeap.add h 8;
  Alcotest.(check (option int)) "min" (Some 3) (IntHeap.min_elt h);
  Alcotest.(check int) "len" 3 (IntHeap.length h);
  Alcotest.(check (option int)) "pop1" (Some 3) (IntHeap.pop_min h);
  Alcotest.(check (option int)) "pop2" (Some 5) (IntHeap.pop_min h);
  Alcotest.(check (option int)) "pop3" (Some 8) (IntHeap.pop_min h);
  Alcotest.(check (option int)) "pop empty" None (IntHeap.pop_min h)

let test_heap_clear () =
  let h = IntHeap.create ~capacity:2 () in
  List.iter (IntHeap.add h) [ 9; 1; 4; 7 ];
  IntHeap.clear h;
  Alcotest.(check bool) "cleared" true (IntHeap.is_empty h);
  IntHeap.add h 2;
  Alcotest.(check (option int)) "usable after clear" (Some 2) (IntHeap.pop_min h)

let heap_sorts =
  qt "binary_heap: drain = sorted"
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = IntHeap.create () in
      List.iter (IntHeap.add h) xs;
      let rec drain acc =
        match IntHeap.pop_min h with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let heap_to_sorted =
  qt "binary_heap: to_sorted_list non-destructive"
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = IntHeap.create () in
      List.iter (IntHeap.add h) xs;
      let s = IntHeap.to_sorted_list h in
      s = List.sort Int.compare xs && IntHeap.length h = List.length xs)

let heap_interleaved =
  (* random interleaving of adds and pops vs a sorted-list model *)
  qt "binary_heap: interleaved ops match model"
    QCheck2.Gen.(list (pair bool small_int))
    (fun ops ->
      let h = IntHeap.create () in
      let model = ref [] in
      List.for_all
        (fun (is_add, x) ->
          if is_add then begin
            IntHeap.add h x;
            model := List.sort Int.compare (x :: !model);
            true
          end
          else begin
            let got = IntHeap.pop_min h in
            match !model with
            | [] -> got = None
            | m :: rest ->
                model := rest;
                got = Some m
          end)
        ops)

(* --- packet FIFO ---------------------------------------------------- *)

let pkt ?(size = 100) seq = Pkt.Packet.make ~flow:1 ~size ~seq ~arrival:0.

let test_fifo_order () =
  let q = Ds.Fifo_queue.create () in
  for i = 0 to 99 do
    assert (Ds.Fifo_queue.push q (pkt i))
  done;
  for i = 0 to 99 do
    match Ds.Fifo_queue.pop q with
    | Some p -> Alcotest.(check int) "seq order" i p.Pkt.Packet.seq
    | None -> Alcotest.fail "unexpected empty"
  done;
  Alcotest.(check bool) "drained" true (Ds.Fifo_queue.is_empty q)

let test_fifo_bytes () =
  let q = Ds.Fifo_queue.create () in
  ignore (Ds.Fifo_queue.push q (pkt ~size:100 0));
  ignore (Ds.Fifo_queue.push q (pkt ~size:250 1));
  Alcotest.(check int) "bytes" 350 (Ds.Fifo_queue.bytes q);
  ignore (Ds.Fifo_queue.pop q);
  Alcotest.(check int) "bytes after pop" 250 (Ds.Fifo_queue.bytes q)

let test_fifo_droptail () =
  let q = Ds.Fifo_queue.create ~limit_pkts:3 () in
  Alcotest.(check bool) "1" true (Ds.Fifo_queue.push q (pkt 0));
  Alcotest.(check bool) "2" true (Ds.Fifo_queue.push q (pkt 1));
  Alcotest.(check bool) "3" true (Ds.Fifo_queue.push q (pkt 2));
  Alcotest.(check bool) "4 dropped" false (Ds.Fifo_queue.push q (pkt 3));
  Alcotest.(check int) "drop count" 1 (Ds.Fifo_queue.drops q);
  ignore (Ds.Fifo_queue.pop q);
  Alcotest.(check bool) "room again" true (Ds.Fifo_queue.push q (pkt 4))

let test_fifo_peek_clear () =
  let q = Ds.Fifo_queue.create () in
  Alcotest.(check (option reject)) "peek empty" None
    (Option.map ignore (Ds.Fifo_queue.peek q));
  ignore (Ds.Fifo_queue.push q (pkt 7));
  (match Ds.Fifo_queue.peek q with
  | Some p -> Alcotest.(check int) "peek head" 7 p.Pkt.Packet.seq
  | None -> Alcotest.fail "expected head");
  Alcotest.(check int) "peek keeps" 1 (Ds.Fifo_queue.length q);
  Ds.Fifo_queue.clear q;
  Alcotest.(check int) "cleared" 0 (Ds.Fifo_queue.length q);
  Alcotest.(check int) "bytes cleared" 0 (Ds.Fifo_queue.bytes q)

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
            let got = Ds.Fifo_queue.pop q in
            let want = Queue.take_opt model in
            (match (got, want) with
            | None, None -> true
            | Some a, Some b -> Pkt.Packet.equal a b
            | _ -> false)
            && Ds.Fifo_queue.length q = Queue.length model
          end)
        ops)

let test_fifo_iter () =
  let q = Ds.Fifo_queue.create () in
  (* force ring wraparound: initial capacity is 8 *)
  for i = 0 to 5 do
    ignore (Ds.Fifo_queue.push q (pkt i))
  done;
  for _ = 0 to 3 do
    ignore (Ds.Fifo_queue.pop q)
  done;
  for i = 6 to 12 do
    ignore (Ds.Fifo_queue.push q (pkt i))
  done;
  let seen = ref [] in
  Ds.Fifo_queue.iter (fun p -> seen := p.Pkt.Packet.seq :: !seen) q;
  Alcotest.(check (list int)) "iter head-to-tail"
    [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
    (List.rev !seen)

let () =
  Alcotest.run "ds"
    [
      ( "binary_heap",
        [
          Alcotest.test_case "basics" `Quick test_heap_basic;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          heap_sorts;
          heap_to_sorted;
          heap_interleaved;
        ] );
      ( "fifo_queue",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "bytes" `Quick test_fifo_bytes;
          Alcotest.test_case "droptail" `Quick test_fifo_droptail;
          Alcotest.test_case "peek/clear" `Quick test_fifo_peek_clear;
          Alcotest.test_case "iter wraparound" `Quick test_fifo_iter;
          fifo_vs_queue;
        ] );
    ]
