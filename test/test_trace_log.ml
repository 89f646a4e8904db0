(* Tests for the binary trace spill (lib/runtime/trace_log.ml): the
   on-disk format round-trips bit-exactly from fuzzed event streams,
   incremental drains spill each event once, ring overwrites (before
   the first drain and between two drains) are accounted as lost, and
   the reader rejects every kind of damaged file — truncation, bad magic,
   foreign schema version, foreign record size, corrupt kind codes.
   Plus the offline delay-histogram aggregator's pairing rules. *)

module T = Runtime.Telemetry
module L = Runtime.Trace_log

let tmp name = Filename.temp_file "hfsc_trace_test" name

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let err_containing what = function
  | Ok _ -> Alcotest.failf "expected an error mentioning %S" what
  | Error e ->
      if not (contains (String.lowercase_ascii e) what) then
        Alcotest.failf "error %S does not mention %S" e what

(* a reproducible random event stream pushed through the real telemetry
   hooks (enqueue / dequeue-rt / dequeue-ls / drop) *)
let random_events rng t n =
  for seq = 0 to n - 1 do
    let id = 1 + Random.State.int rng 5 in
    T.ensure_class t ~id;
    let now = Float.of_int seq *. 0.001 in
    let flow = Random.State.int rng 4 in
    let size = 64 + Random.State.int rng 1400 in
    match Random.State.int rng 4 with
    | 0 -> T.note_enqueue t ~id ~now ~size ~flow ~seq ~qlen:1 ~qbytes:size
    | 1 -> T.note_drop t ~id ~now ~size ~flow ~seq
    | 2 ->
        T.note_dequeue t ~id ~now ~size ~flow ~seq ~arrival:(now -. 0.01)
          ~realtime:true
    | _ ->
        T.note_dequeue t ~id ~now ~size ~flow ~seq ~arrival:(now -. 0.01)
          ~realtime:false
  done

let event =
  Alcotest.testable
    (fun ppf (e : T.event) -> Format.pp_print_string ppf (T.event_to_string e))
    ( = )

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* --- write -> read identity ------------------------------------------ *)

let test_roundtrip_identity () =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = T.create ~trace_capacity:4096 () in
      let n = 100 + Random.State.int rng 900 in
      random_events rng t n;
      let path = tmp ".trace" in
      let sink = L.Sink.create ~path () in
      let wrote = L.Sink.drain sink t in
      L.Sink.close sink;
      Alcotest.(check int) "all events written" n wrote;
      Alcotest.(check int) "written counter" n (L.Sink.written sink);
      Alcotest.(check int) "nothing lost" 0 (L.Sink.lost sink);
      let h, evs = ok (L.read_file path) in
      Alcotest.(check int) "schema version" L.schema_version h.L.version;
      Alcotest.(check int) "record size" L.record_size h.L.rec_size;
      Alcotest.(check (list event)) "identical streams" (T.events t) evs;
      Sys.remove path)
    [ 1; 7; 42; 1234; 99991 ]

let test_incremental_drain () =
  let rng = Random.State.make [| 5 |] in
  let t = T.create ~trace_capacity:4096 () in
  let path = tmp ".trace" in
  let sink = L.Sink.create ~path () in
  (* drain after every burst: the cursor must skip what was spilled,
     across a full 512-record staging buffer *)
  for _ = 1 to 20 do
    random_events rng t 37;
    ignore (L.Sink.drain sink t)
  done;
  Alcotest.(check int) "empty drain writes nothing" 0 (L.Sink.drain sink t);
  L.Sink.close sink;
  Alcotest.(check int) "every event exactly once" (20 * 37)
    (L.Sink.written sink);
  let _, evs = ok (L.read_file path) in
  Alcotest.(check int) "file holds all" (20 * 37) (List.length evs);
  Sys.remove path

let test_overflow_lost_accounting () =
  let rng = Random.State.make [| 3 |] in
  let t = T.create ~trace_capacity:16 () in
  random_events rng t 100;
  let path = tmp ".trace" in
  let sink = L.Sink.create ~path () in
  let wrote = L.Sink.drain sink t in
  L.Sink.close sink;
  Alcotest.(check int) "only the survivors" 16 wrote;
  Alcotest.(check int) "the rest are lost" (100 - 16) (L.Sink.lost sink);
  Alcotest.(check int) "ring agrees" (T.dropped_events t) (L.Sink.lost sink);
  let _, evs = ok (L.read_file path) in
  Alcotest.(check (list event)) "file = surviving window" (T.events t) evs;
  Sys.remove path;
  (* a drain, then an overflow past the sink's cursor: the next drain
     starts behind the ring's window and counts the gap as lost *)
  let t = T.create ~trace_capacity:64 () in
  random_events rng t 50;
  let path = tmp ".trace" in
  let sink = L.Sink.create ~path () in
  Alcotest.(check int) "first drain takes all" 50 (L.Sink.drain sink t);
  let first = T.events t in
  random_events rng t 200;
  Alcotest.(check int) "second drain takes the window" 64
    (L.Sink.drain sink t);
  L.Sink.close sink;
  Alcotest.(check int) "the gap is lost" (250 - 50 - 64) (L.Sink.lost sink);
  let _, evs = ok (L.read_file path) in
  Alcotest.(check (list event)) "file = first drain, then the window"
    (first @ T.events t) evs;
  Sys.remove path

(* --- damaged files ---------------------------------------------------- *)

(* a small valid file to mutate *)
let valid_file () =
  let rng = Random.State.make [| 21 |] in
  let t = T.create ~trace_capacity:64 () in
  random_events rng t 10;
  let path = tmp ".trace" in
  let sink = L.Sink.create ~path () in
  ignore (L.Sink.drain sink t);
  L.Sink.close sink;
  path

let patched path ~at ~byte =
  let s = Bytes.of_string (read_bytes path) in
  Bytes.set s at (Char.chr byte);
  let p = tmp ".patched" in
  write_bytes p (Bytes.to_string s);
  p

let test_reject_truncated () =
  let path = valid_file () in
  let s = read_bytes path in
  (* torn mid-record *)
  let p = tmp ".torn" in
  write_bytes p (String.sub s 0 (String.length s - 13));
  err_containing "truncated" (L.read_file p);
  Sys.remove p;
  (* torn mid-header *)
  let p = tmp ".torn" in
  write_bytes p (String.sub s 0 10);
  err_containing "truncated header" (L.read_file p);
  Sys.remove p;
  (* empty body is fine *)
  let p = tmp ".empty" in
  write_bytes p (String.sub s 0 24);
  let _, evs = ok (L.read_file p) in
  Alcotest.(check int) "no records" 0 (List.length evs);
  Sys.remove p;
  Sys.remove path

let test_reject_bad_magic () =
  let path = valid_file () in
  let p = patched path ~at:0 ~byte:(Char.code 'X') in
  err_containing "magic" (L.read_file p);
  Sys.remove p;
  Sys.remove path

let test_reject_version_mismatch () =
  let path = valid_file () in
  let p = patched path ~at:8 ~byte:(L.schema_version + 1) in
  err_containing "version" (L.read_file p);
  Sys.remove p;
  Sys.remove path

let test_reject_foreign_record_size () =
  let path = valid_file () in
  let p = patched path ~at:12 ~byte:(L.record_size * 2) in
  err_containing "record size" (L.read_file p);
  Sys.remove p;
  Sys.remove path

let test_reject_corrupt_kind () =
  let path = valid_file () in
  (* byte 28 of the first record (offset 24 + 28) is the kind code *)
  let p = patched path ~at:(24 + 28) ~byte:9 in
  err_containing "kind" (L.read_file p);
  err_containing "kind"
    (L.fold_file p ~init:0 ~f:(fun n _ -> n + 1));
  Sys.remove p;
  Sys.remove path

let test_reject_missing_file () =
  err_containing "no such file"
    (L.read_file "/nonexistent/hfsc/trace.bin")

let test_fold_matches_read () =
  let path = valid_file () in
  let _, evs = ok (L.read_file path) in
  let folded = ok (L.fold_file path ~init:[] ~f:(fun acc e -> e :: acc)) in
  Alcotest.(check (list event)) "same stream" evs (List.rev folded);
  Sys.remove path

(* --- the delay histogram ---------------------------------------------- *)

let ev ~ts ~kind ~flow ~seq =
  { T.ts; kind; cls_id = 1; flow; size = 100; seq }

let test_histogram_pairing () =
  let h = L.Histogram.create () in
  L.Histogram.feed h
    [
      ev ~ts:0.0 ~kind:T.Enq ~flow:1 ~seq:1;
      ev ~ts:0.010 ~kind:T.Deq_rt ~flow:1 ~seq:1; (* 10 ms rt *)
      ev ~ts:0.0 ~kind:T.Enq ~flow:1 ~seq:2;
      ev ~ts:0.0005 ~kind:T.Deq_ls ~flow:1 ~seq:2; (* 0.5 ms ls *)
      ev ~ts:0.0 ~kind:T.Enq ~flow:2 ~seq:3;
      ev ~ts:0.001 ~kind:T.Drop ~flow:2 ~seq:3; (* dropped: no sample *)
      ev ~ts:0.1 ~kind:T.Deq_rt ~flow:9 ~seq:9; (* enqueue never seen *)
    ];
  Alcotest.(check int) "two samples" 2 (L.Histogram.samples h);
  Alcotest.(check int) "one unmatched" 1 (L.Histogram.unmatched h);
  Alcotest.(check (float 1e-12)) "max delay" 0.010 (L.Histogram.max_delay h);
  let rt_total =
    Array.fold_left (fun a (_, _, rt, _) -> a + rt) 0 (L.Histogram.buckets h)
  and ls_total =
    Array.fold_left (fun a (_, _, _, ls) -> a + ls) 0 (L.Histogram.buckets h)
  in
  Alcotest.(check int) "one rt sample" 1 rt_total;
  Alcotest.(check int) "one ls sample" 1 ls_total;
  (* the 10 ms rt sample lands in the bucket containing 10 ms *)
  Array.iter
    (fun (lo, hi, rt, _) ->
      if rt > 0 then begin
        Alcotest.(check bool) "bucket contains 10ms" true
          (lo <= 0.010 && 0.010 < hi)
      end)
    (L.Histogram.buckets h)

let test_histogram_buckets () =
  let h = L.Histogram.create () in
  (* bucket edges: [0,1us) [1us,2us) [2us,4us) ... [2^29us,2^30us)
     [2^30us,inf) *)
  let top = ldexp 1e-6 30 in
  L.Histogram.observe h ~rt:true 0.;
  L.Histogram.observe h ~rt:true 0.9e-6;
  L.Histogram.observe h ~rt:true 1.5e-6;
  L.Histogram.observe h ~rt:true 3e-6;
  L.Histogram.observe h ~rt:true (0.75 *. top); (* the last bounded one *)
  L.Histogram.observe h ~rt:true (10. *. top); (* far past the top *)
  L.Histogram.observe h ~rt:false (-1.); (* clamps to 0 *)
  let b = L.Histogram.buckets h in
  Alcotest.(check int) "32 buckets" 32 (Array.length b);
  let counts = Array.map (fun (_, _, rt, ls) -> rt + ls) b in
  let expected = Array.make 32 0 in
  expected.(0) <- 3;
  expected.(1) <- 1;
  expected.(2) <- 1;
  expected.(30) <- 1;
  expected.(31) <- 1;
  Alcotest.(check (array int)) "placement" expected counts;
  let lo, hi, _, _ = b.(31) in
  Alcotest.(check (float 0.)) "last bucket starts at 2^30 us" top lo;
  Alcotest.(check bool) "last bucket open-ended" true (hi = Float.infinity)

let test_histogram_feed_file () =
  let path = valid_file () in
  let h = L.Histogram.create () in
  ok (L.Histogram.feed_file h path);
  (* the fuzzed stream dequeues things it never enqueued; all that
     matters here is the file path works and counts are consistent *)
  let total =
    Array.fold_left
      (fun a (_, _, rt, ls) -> a + rt + ls)
      0 (L.Histogram.buckets h)
  in
  Alcotest.(check int) "buckets sum to samples" (L.Histogram.samples h) total;
  Sys.remove path

let () =
  Alcotest.run "trace_log"
    [
      ( "format",
        [
          Alcotest.test_case "fuzzed write->read identity" `Quick
            test_roundtrip_identity;
          Alcotest.test_case "incremental drain" `Quick test_incremental_drain;
          Alcotest.test_case "ring overflow counted as lost" `Quick
            test_overflow_lost_accounting;
        ] );
      ( "damage",
        [
          Alcotest.test_case "truncated files rejected" `Quick
            test_reject_truncated;
          Alcotest.test_case "bad magic rejected" `Quick test_reject_bad_magic;
          Alcotest.test_case "schema version mismatch rejected" `Quick
            test_reject_version_mismatch;
          Alcotest.test_case "foreign record size rejected" `Quick
            test_reject_foreign_record_size;
          Alcotest.test_case "corrupt kind code rejected" `Quick
            test_reject_corrupt_kind;
          Alcotest.test_case "missing file reported" `Quick
            test_reject_missing_file;
          Alcotest.test_case "fold_file = read_file" `Quick
            test_fold_matches_read;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "enq/deq pairing rules" `Quick
            test_histogram_pairing;
          Alcotest.test_case "log-scale bucket placement" `Quick
            test_histogram_buckets;
          Alcotest.test_case "feed_file aggregation" `Quick
            test_histogram_feed_file;
        ] );
    ]
