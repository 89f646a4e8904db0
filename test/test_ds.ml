(* Unit and property tests for the data-structure substrate (lib/ds):
   binary heap, packet FIFO, the two augmented trees of Section V and
   the intrusive AVL functor under them. Property tests check each
   structure against a brute-force reference model. *)

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

(* --- intrusive trees ------------------------------------------------ *)

(* The intrusive trees against brute-force models, plus the structural
   invariants ([validate]) after churn. Elements are random
   (eligible, deadline) or (vt, fit) pairs. *)

let pair_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))

type iedc = {
  ieid : int;
  mutable iel : float;
  mutable idl : float;
  mutable ie_l : iedc;
  mutable ie_r : iedc;
  mutable ie_h : int;
  mutable ie_agg : iedc;
}

let rec iedc_nil =
  { ieid = -1; iel = 0.; idl = 0.; ie_l = iedc_nil; ie_r = iedc_nil;
    ie_h = 0; ie_agg = iedc_nil }

module EdI = Ds.Ed_itree.Make (struct
  type t = iedc

  let nil = iedc_nil

  let compare a b =
    let c = Float.compare a.iel b.iel in
    if c <> 0 then c else Int.compare a.ieid b.ieid

  let eligible_le c now = c.iel <= now
  let better_deadline a b = a.idl < b.idl || (a.idl = b.idl && a.ieid < b.ieid)
  let left c = c.ie_l
  let set_left c x = c.ie_l <- x
  let right c = c.ie_r
  let set_right c x = c.ie_r <- x
  let height c = c.ie_h
  let set_height c h = c.ie_h <- h
  let agg c = c.ie_agg
  let set_agg c x = c.ie_agg <- x
end)

let ied_mk i (e, d) =
  { ieid = i; iel = e; idl = d; ie_l = iedc_nil; ie_r = iedc_nil; ie_h = 0;
    ie_agg = iedc_nil }

let ied_brute_min_deadline cs ~now =
  List.filter (fun c -> c.iel <= now) cs
  |> List.fold_left
       (fun acc c ->
         match acc with
         | None -> Some c
         | Some b ->
             if c.idl < b.idl || (c.idl = b.idl && c.ieid < b.ieid) then Some c
             else acc)
       None

let edi_matches_brute =
  qt "ed_itree: min_deadline_eligible = brute force" pair_gen (fun pairs ->
      let cs = List.mapi ied_mk pairs in
      let t = List.fold_left (fun t c -> EdI.insert c t) EdI.empty cs in
      EdI.validate t;
      List.for_all
        (fun now ->
          let got = EdI.min_deadline_eligible t ~now in
          let want = ied_brute_min_deadline cs ~now in
          match (got, want) with
          | None, None -> true
          | Some a, Some b -> a.ieid = b.ieid
          | _ -> false)
        [ 0.; 2.5; 5.; 7.5; 10.; 11. ])

let edi_remove_works =
  qt "ed_itree: remove really removes" pair_gen (fun pairs ->
      let cs = List.mapi ied_mk pairs in
      let t = List.fold_left (fun t c -> EdI.insert c t) EdI.empty cs in
      (* drain by removing every element in turn, revalidating as we go *)
      let t = ref t in
      List.for_all
        (fun c ->
          let before = EdI.cardinal !t in
          t := EdI.remove c !t;
          EdI.validate !t;
          (not (EdI.mem c !t)) && EdI.cardinal !t = before - 1)
        cs
      && EdI.is_empty !t)

let test_edi_raw_sentinel () =
  let a = ied_mk 1 (3., 9.) in
  let b = ied_mk 2 (1., 5.) in
  let t = EdI.insert b (EdI.insert a EdI.empty) in
  Alcotest.(check bool) "raw hit" true
    (EdI.min_deadline_eligible_raw t ~now:2. == b);
  Alcotest.(check bool) "raw miss is nil" true
    (EdI.min_deadline_eligible_raw t ~now:0.5 == EdI.nil);
  Alcotest.(check bool) "min_eligible_raw" true (EdI.min_eligible_raw t == b);
  Alcotest.(check bool) "empty raw is nil" true
    (EdI.min_eligible_raw EdI.empty == EdI.nil)

type ivtc = {
  ivid : int;
  mutable iv : float;
  mutable ift : float;
  mutable iv_l : ivtc;
  mutable iv_r : ivtc;
  mutable iv_h : int;
  mutable iv_agg : float;
}

let rec ivtc_nil =
  { ivid = -1; iv = 0.; ift = 0.; iv_l = ivtc_nil; iv_r = ivtc_nil;
    iv_h = 0; iv_agg = infinity }

module VtI = Ds.Vt_itree.Make (struct
  type t = ivtc

  let nil = ivtc_nil

  let compare a b =
    let c = Float.compare a.iv b.iv in
    if c <> 0 then c else Int.compare a.ivid b.ivid

  let fit_le c x = c.ift <= x
  let agg_fit_le c x = c.iv_agg <= x
  let min_fit_value c = c.iv_agg

  let refresh_agg c =
    let m = c.ift in
    let l = c.iv_l in
    let m = if l != ivtc_nil && l.iv_agg < m then l.iv_agg else m in
    let r = c.iv_r in
    let m = if r != ivtc_nil && r.iv_agg < m then r.iv_agg else m in
    c.iv_agg <- m

  let left c = c.iv_l
  let set_left c x = c.iv_l <- x
  let right c = c.iv_r
  let set_right c x = c.iv_r <- x
  let height c = c.iv_h
  let set_height c h = c.iv_h <- h
end)

let ivt_mk i (v, f) =
  { ivid = i; iv = v; ift = f; iv_l = ivtc_nil; iv_r = ivtc_nil; iv_h = 0;
    iv_agg = infinity }

let ivt_brute_first_fit cs ~now =
  List.filter (fun c -> c.ift <= now) cs
  |> List.fold_left
       (fun acc c ->
         match acc with
         | None -> Some c
         | Some b ->
             if c.iv < b.iv || (c.iv = b.iv && c.ivid < b.ivid) then Some c
             else acc)
       None

let vti_matches_brute =
  qt "vt_itree: first_fit = brute force" pair_gen (fun pairs ->
      let cs = List.mapi ivt_mk pairs in
      let t = List.fold_left (fun t c -> VtI.insert c t) VtI.empty cs in
      VtI.validate t;
      List.for_all
        (fun now ->
          let got = VtI.first_fit t ~now in
          let want = ivt_brute_first_fit cs ~now in
          match (got, want) with
          | None, None -> true
          | Some a, Some b -> a.ivid = b.ivid
          | _ -> false)
        [ 0.; 3.; 6.; 10. ])

let vti_min_max =
  qt "vt_itree: min_vt/max_vt/min_fit" pair_gen (fun pairs ->
      let cs = List.mapi ivt_mk pairs in
      let t = List.fold_left (fun t c -> VtI.insert c t) VtI.empty cs in
      let by_vt a b =
        let c = Float.compare a.iv b.iv in
        if c <> 0 then c else Int.compare a.ivid b.ivid
      in
      let sorted = List.sort by_vt cs in
      let ok_min =
        match (VtI.min_vt t, sorted) with
        | None, [] -> true
        | Some a, b :: _ -> a.ivid = b.ivid
        | _ -> false
      in
      let ok_max =
        match (VtI.max_vt t, List.rev sorted) with
        | None, [] -> true
        | Some a, b :: _ -> a.ivid = b.ivid
        | _ -> false
      in
      let ok_fit =
        let want =
          List.fold_left (fun acc c -> Float.min acc c.ift) infinity cs
        in
        VtI.min_fit t = want
      in
      ok_min && ok_max && ok_fit)

let test_vti_reposition_discipline () =
  (* remove, mutate, reinsert — the usage pattern of the scheduler *)
  let a = ivt_mk 1 (1., 0.) in
  let b = ivt_mk 2 (2., 0.) in
  let t = VtI.insert b (VtI.insert a VtI.empty) in
  let t = VtI.remove a t in
  a.iv <- 3.;
  let t = VtI.insert a t in
  VtI.validate t;
  (match VtI.min_vt t with
  | Some x -> Alcotest.(check int) "b now first" 2 x.ivid
  | None -> Alcotest.fail "expected");
  Alcotest.(check bool) "first_fit_raw" true (VtI.first_fit_raw t ~now:0. == b)

let test_itree_duplicate_insert () =
  let a = ivt_mk 1 (1., 0.) in
  let t = VtI.insert a VtI.empty in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Intrusive_tree.insert: duplicate key")
    (fun () -> ignore (VtI.insert a t))

(* --- the intrusive AVL functor itself --------------------------------

   Ed_itree and Vt_itree are instances of Intrusive_tree.Make; here it is
   driven directly, with subtree size as the aggregate, so a missed
   [refresh_agg] on a rotation or removal path shows up as a wrong count
   at the root. *)

type itc = {
  ik : int;
  mutable it_l : itc;
  mutable it_r : itc;
  mutable it_h : int;
  mutable it_sz : int;
}

let rec itc_nil = { ik = -1; it_l = itc_nil; it_r = itc_nil; it_h = 0; it_sz = 0 }

module It = Ds.Intrusive_tree.Make (struct
  type elt = itc

  let nil = itc_nil
  let compare a b = Int.compare a.ik b.ik
  let left c = c.it_l
  let set_left c x = c.it_l <- x
  let right c = c.it_r
  let set_right c x = c.it_r <- x
  let height c = c.it_h
  let set_height c h = c.it_h <- h
  let refresh_agg c = c.it_sz <- 1 + c.it_l.it_sz + c.it_r.it_sz
end)

let itree_vs_set =
  qt "intrusive_tree: insert/remove churn matches a sorted set"
    QCheck2.Gen.(list (pair bool (int_bound 31)))
    (fun ops ->
      let elts =
        Array.init 32 (fun k ->
            { ik = k; it_l = itc_nil; it_r = itc_nil; it_h = 0; it_sz = 0 })
      in
      let root = ref It.nil and model = ref [] in
      List.for_all
        (fun (is_add, k) ->
          let x = elts.(k) in
          if is_add then begin
            if not (List.mem k !model) then begin
              root := It.insert x !root;
              model := List.sort_uniq Int.compare (k :: !model)
            end
          end
          else begin
            root := It.remove x !root;
            model := List.filter (fun m -> m <> k) !model
          end;
          It.validate !root;
          let n = List.length !model in
          let keys = List.rev (It.fold (fun c acc -> c.ik :: acc) !root []) in
          keys = !model
          && It.cardinal !root = n
          && (!root).it_sz = n
          && It.mem x !root = is_add
          && (It.min_elt !root).ik = (match !model with [] -> -1 | m :: _ -> m)
          && (It.max_elt !root).ik
             = (match List.rev !model with [] -> -1 | m :: _ -> m))
        ops)

let test_itree_remove_detaches () =
  let xs =
    List.init 5 (fun k ->
        { ik = k; it_l = itc_nil; it_r = itc_nil; it_h = 0; it_sz = 0 })
  in
  let root = List.fold_left (fun t x -> It.insert x t) It.nil xs in
  let x = List.nth xs 1 in
  let root = It.remove x root in
  It.validate root;
  Alcotest.(check bool) "links cleared" true
    (x.it_l == itc_nil && x.it_r == itc_nil && x.it_h = 0);
  Alcotest.(check bool) "no longer a member" false (It.mem x root);
  Alcotest.(check bool) "removing a non-member is a no-op" true
    (It.remove x root == root && It.cardinal root = 4);
  let root = It.insert x root in
  It.validate root;
  Alcotest.(check int) "reinserted" 5 root.it_sz

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
      ( "ed_itree",
        [
          Alcotest.test_case "raw sentinel" `Quick test_edi_raw_sentinel;
          edi_matches_brute;
          edi_remove_works;
        ] );
      ( "vt_itree",
        [
          Alcotest.test_case "reposition discipline" `Quick
            test_vti_reposition_discipline;
          Alcotest.test_case "duplicate insert rejected" `Quick
            test_itree_duplicate_insert;
          vti_matches_brute;
          vti_min_max;
        ] );
      ( "intrusive_tree",
        [
          Alcotest.test_case "remove detaches" `Quick
            test_itree_remove_detaches;
          itree_vs_set;
        ] );
    ]
