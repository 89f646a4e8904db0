(* Unit, property and two-domain stress tests for the lock-free SPSC
   ring (lib/ds/spsc_ring) that carries the multicore router's
   messages, and for the blocking hand-off (lib/ds/handoff) that
   carries its replies and parks its workers. The single-domain tests
   pin the boundary behaviour (capacity 1, full, empty, wraparound) and
   check the ring against a Queue model; the two-domain tests push a
   known sequence through the ring under real parallelism (or
   interleaved scheduling on one core) and verify order and checksums
   on the other side. The hand-off tests end with the router's
   protocol in miniature: requests through a ring, a worker that parks
   whenever it runs dry, replies through one reused slot, under a
   watchdog that turns a lost wakeup into a failed run.

   [test_spsc.exe [ROUNDS] [ALCOTEST ARGS]]: ROUNDS (default 2000) is
   the number of round trips in the hand-off ping-pong; the [@domains]
   alias runs a long one. *)

module Ring = Ds.Spsc_ring
module Handoff = Ds.Handoff

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- boundaries ------------------------------------------------------- *)

let test_create () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Spsc_ring.create: capacity must be >= 1") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:0));
  let r = Ring.create ~capacity:5 ~dummy:0 in
  Alcotest.(check int) "capacity as asked" 5 (Ring.capacity r);
  Alcotest.(check bool) "starts empty" true (Ring.is_empty r);
  Alcotest.(check int) "length 0" 0 (Ring.length r)

let test_capacity_one () =
  let r = Ring.create ~capacity:1 ~dummy:(-1) in
  Alcotest.(check bool) "push into empty" true (Ring.try_push r 7);
  Alcotest.(check bool) "full refuses" false (Ring.try_push r 8);
  Alcotest.(check (option int)) "peek" (Some 7) (Ring.peek r);
  Alcotest.(check (option int)) "pop" (Some 7) (Ring.try_pop r);
  Alcotest.(check (option int)) "empty refuses" None (Ring.try_pop r);
  Alcotest.(check bool) "usable again" true (Ring.try_push r 9);
  Alcotest.(check (option int)) "fifo" (Some 9) (Ring.try_pop r)

let test_full_empty () =
  let cap = 3 in
  let r = Ring.create ~capacity:cap ~dummy:0 in
  for i = 1 to cap do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Ring.try_push r i)
  done;
  Alcotest.(check int) "length = capacity" cap (Ring.length r);
  Alcotest.(check bool) "push into full" false (Ring.try_push r 99);
  for i = 1 to cap do
    Alcotest.(check (option int))
      (Printf.sprintf "pop %d" i)
      (Some i) (Ring.try_pop r)
  done;
  Alcotest.(check (option int)) "pop from empty" None (Ring.try_pop r)

let test_wraparound () =
  (* capacity 3 rounds up to a physical 4; push/pop far past one lap so
     head and tail wrap the physical buffer many times *)
  let r = Ring.create ~capacity:3 ~dummy:0 in
  for i = 0 to 999 do
    Alcotest.(check bool) "push" true (Ring.try_push r i);
    Alcotest.(check bool) "push" true (Ring.try_push r (i + 1000));
    Alcotest.(check (option int)) "pop" (Some i) (Ring.try_pop r);
    Alcotest.(check (option int)) "pop" (Some (i + 1000)) (Ring.try_pop r)
  done;
  Alcotest.(check bool) "empty at the end" true (Ring.is_empty r)

(* --- model check ------------------------------------------------------ *)

(* drive ring and Queue with the same push/pop script; every
   observation must match, with the Queue truncated at [cap] *)
let model_check =
  qt "spsc_ring: matches a bounded Queue model"
    QCheck2.Gen.(
      pair (int_range 1 8) (list (pair bool (int_range 0 1000))))
    (fun (cap, script) ->
      let r = Ring.create ~capacity:cap ~dummy:(-1) in
      let q = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then
            let ok = Ring.try_push r v in
            let model_ok = Queue.length q < cap in
            if model_ok then Queue.push v q;
            ok = model_ok
            && Ring.length r = Queue.length q
            && Ring.peek r = Queue.peek_opt q
          else
            let got = Ring.try_pop r in
            let want = Queue.take_opt q in
            got = want && Ring.length r = Queue.length q)
        script)

(* --- two-domain stress ------------------------------------------------ *)

(* Brief spin, then a real sleep: on a single-core host two domains
   spinning [cpu_relax] only hand the core over at the end of an OS
   timeslice, which turns these stress runs into minutes — the sleep
   forces the switch. *)
let backoff tries =
  if tries < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002

(* producer pushes 0..n-1; consumer pops until it has seen n values;
   order must be exact and the checksum must match *)
let stress ~capacity ~n () =
  let r = Ring.create ~capacity ~dummy:(-1) in
  let consumer =
    Domain.spawn (fun () ->
        let sum = ref 0 and seen = ref 0 and ordered = ref true in
        let tries = ref 0 in
        while !seen < n do
          match Ring.try_pop r with
          | Some v ->
              if v <> !seen then ordered := false;
              sum := !sum + v;
              incr seen;
              tries := 0
          | None ->
              incr tries;
              backoff !tries
        done;
        (!sum, !ordered))
  in
  let i = ref 0 in
  let tries = ref 0 in
  while !i < n do
    if Ring.try_push r !i then begin
      incr i;
      tries := 0
    end
    else begin
      incr tries;
      backoff !tries
    end
  done;
  let sum, ordered = Domain.join consumer in
  Alcotest.(check bool) "order preserved" true ordered;
  Alcotest.(check int) "checksum" (n * (n - 1) / 2) sum;
  Alcotest.(check bool) "empty afterwards" true (Ring.is_empty r)

let test_stress_small_ring () = stress ~capacity:1 ~n:5_000 ()
let test_stress_wide_ring () = stress ~capacity:64 ~n:100_000 ()

(* same, but the values are heap blocks: exercises publication of
   freshly allocated objects across the domain boundary *)
let test_stress_boxed () =
  let n = 20_000 in
  let r = Ring.create ~capacity:16 ~dummy:(0, 0) in
  let consumer =
    Domain.spawn (fun () ->
        let ok = ref true and seen = ref 0 and tries = ref 0 in
        while !seen < n do
          match Ring.try_pop r with
          | Some (a, b) ->
              if a <> !seen || b <> 2 * !seen then ok := false;
              incr seen;
              tries := 0
          | None ->
              incr tries;
              backoff !tries
        done;
        !ok)
  in
  let i = ref 0 in
  let tries = ref 0 in
  while !i < n do
    if Ring.try_push r (!i, 2 * !i) then begin
      incr i;
      tries := 0
    end
    else begin
      incr tries;
      backoff !tries
    end
  done;
  Alcotest.(check bool) "boxed payloads intact" true (Domain.join consumer)

(* --- hand-off --------------------------------------------------------- *)

(* Alcotest captures a test's stderr into its log file and would never
   print it after an [_exit]; the watchdog writes to the real one. *)
let console = Unix.dup Unix.stderr

(* A lost wakeup leaves both domains asleep forever. The watchdog
   domain fails the run instead: if [progress] stops moving for [limit]
   seconds it names the test and exits non-zero at once. *)
let limit = 30.

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
          else if now -. !since > limit then begin
            let msg =
              Printf.sprintf
                "handoff: %s made no progress for %.0f s at step %d (lost \
                 wakeup?)\n"
                what limit p
            in
            ignore (Unix.write_substring console msg 0 (String.length msg));
            Unix._exit 2
          end
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    (fun () -> f progress)

let test_fill_then_await () =
  let s = Handoff.slot () in
  with_watchdog "fill before await" (fun _ ->
      Handoff.fill s 42;
      Alcotest.(check int) "value already there" 42 (Handoff.await s);
      Handoff.fill s 43;
      Alcotest.(check int) "slot reused" 43 (Handoff.await s))

exception Boom of int

let test_fail_reraises () =
  let s = Handoff.slot () in
  with_watchdog "failed reply" (fun _ ->
      Handoff.fail s (Boom 7);
      Alcotest.check_raises "failed reply re-raised" (Boom 7) (fun () ->
          ignore (Handoff.await s));
      Handoff.fill s 1;
      Alcotest.(check int) "usable after a failure" 1 (Handoff.await s);
      (* the same across domains, with the awaiter asleep *)
      let filler =
        Domain.spawn (fun () ->
            Unix.sleepf 0.05;
            Handoff.fail s (Boom 8))
      in
      Alcotest.check_raises "re-raised on the awaiting domain" (Boom 8)
        (fun () -> ignore (Handoff.await s));
      Domain.join filler)

let test_await_then_fill () =
  let s = Handoff.slot () in
  let filler =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Handoff.fill s "late")
  in
  with_watchdog "delayed fill" (fun _ ->
      Alcotest.(check string) "woken by the fill" "late" (Handoff.await s));
  Domain.join filler

(* The router's protocol in miniature. The producer pushes request [i]
   into a capacity-1 ring, wakes the worker and awaits the reply [2i]
   on one reused slot; the worker pops, fills, and parks whenever its
   ring is empty. Both sides sometimes spin a little first, so the
   rounds mix every ordering: the fill before or after the awaiter
   sleeps, the push before or after the worker parks. *)
let ping_pong ~rounds () =
  let req = Ring.create ~capacity:1 ~dummy:0 in
  let reply = Handoff.slot () in
  let parker = Handoff.parker () in
  let has_work () = not (Ring.is_empty req) in
  let jitter i =
    for _ = 1 to (i * 7919) land 127 do
      Domain.cpu_relax ()
    done
  in
  let worker =
    Domain.spawn (fun () ->
        let running = ref true in
        while !running do
          match Ring.try_pop req with
          | Some i ->
              if i < 0 then running := false
              else begin
                jitter i;
                Handoff.fill reply (2 * i)
              end
          | None -> Handoff.park parker ~has_work
        done)
  in
  let post i =
    if not (Ring.try_push req i) then
      Alcotest.fail "request ring full: one request is in flight at most";
    Handoff.wake parker
  in
  let sum = ref 0 in
  with_watchdog "ping-pong" (fun progress ->
      for i = 1 to rounds do
        post i;
        if i land 1 = 0 then jitter (i / 2);
        let r = Handoff.await reply in
        if r <> 2 * i then
          Alcotest.failf "round %d: reply %d, want %d" i r (2 * i);
        sum := !sum + r;
        Atomic.set progress i
      done;
      post (-1);
      Domain.join worker);
  Alcotest.(check int) "every reply once" (rounds * (rounds + 1)) !sum

(* the ping-pong's round count: the first argument when it is an
   integer, which is then hidden from Alcotest *)
let rounds, argv =
  match Array.to_list Sys.argv with
  | exe :: n :: rest when int_of_string_opt n <> None ->
      (int_of_string n, Array.of_list (exe :: rest))
  | _ -> (2_000, Sys.argv)

let () =
  Alcotest.run ~argv "spsc_ring"
    [
      ( "boundaries",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "capacity one" `Quick test_capacity_one;
          Alcotest.test_case "full/empty" `Quick test_full_empty;
          Alcotest.test_case "wraparound" `Quick test_wraparound;
        ] );
      ("model", [ model_check ]);
      ( "two domains",
        [
          Alcotest.test_case "stress capacity 1" `Quick test_stress_small_ring;
          Alcotest.test_case "stress capacity 64" `Quick test_stress_wide_ring;
          Alcotest.test_case "boxed payloads" `Quick test_stress_boxed;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "fill before await" `Quick test_fill_then_await;
          Alcotest.test_case "failed reply re-raised" `Quick
            test_fail_reraises;
          Alcotest.test_case "await before a delayed fill" `Quick
            test_await_then_fill;
          Alcotest.test_case "ping-pong round trips" `Quick
            (ping_pong ~rounds);
        ] );
    ]
