(* towerbench: one benchmark for the whole scheduler tower.

   Four workloads (see README.md for why each exists):
     sim-hfsc     Netsim.Sim -> sequential Router (Engine.adapter) -> H-FSC
     sim-rr       the same driver over a 4000-leaf round-robin link
     sim-hfsc-mc  sim-hfsc's device behind Mc_router at one worker domain
     ctl-durable  a durable daemon churned over its Unix socket

   Usage:
     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload; the last stdout line is the result object
         (end-to-end metrics with --trace 0, per-layer with --trace 1)
     main.exe run   [--seed N] [--seconds S] [--workload W]... [--out F]
     main.exe trace [--seed N] [--seconds S] [--workload W]... [--out F]
         every (or the named) workload; F gets the full report
     main.exe compare OLD.json NEW.json
         per (workload, end-to-end metric): both values, the change,
         the bound from BENCHMARK.json and a verdict; exit 1 on any
         regression
     main.exe smoke
         a sub-second slice of all four workloads: correctness checks
         and the output schema, no timing thresholds

   Process model: this process never creates a domain. Every measured
   repetition runs in a forked child (Util.in_child), which may. *)

open Util

(* --- workloads -------------------------------------------------------- *)

type kind = Sim of Tower.router | Ctl

type workload = {
  name : string;
  spec : Spec.device;
  kind : kind;
  per_second : float;
      (** work per --seconds of run length, split over the timed
          repetitions: simulated seconds (sim) or requests (ctl) *)
  reps : int;  (** timed repetitions, after one untimed warm-up *)
  trace_horizon : float;  (** simulated seconds of the traced packet run *)
}

let link ?(backend = Spec.Hfsc) lname groups per_group =
  { Spec.lname; backend; rate = 50_000_000; groups; per_group }

let workloads ~small =
  (* the smoke slice keeps every shape but at most 2 x 8 leaves a link *)
  let shrink l =
    if small then { l with Spec.groups = min 2 l.Spec.groups; per_group = min 8 l.Spec.per_group }
    else l
  in
  let w name spec kind per_second trace_horizon =
    {
      name;
      spec = List.map shrink spec;
      kind;
      per_second;
      reps = 5;
      trace_horizon = (if small then trace_horizon /. 50. else trace_horizon);
    }
  in
  (* [per_second] is set so the timed repetitions take about --seconds on
     a 2-vCPU x86-64 host, where each repetition runs on one CPU
     (Util.in_child). *)
  [
    w "sim-hfsc" [ link "l0" 10 100 ] (Sim Tower.Seq) 1.4 2.;
    w "sim-rr" [ link ~backend:Spec.Rr "l0" 4 1000 ] (Sim Tower.Seq) 1.2 2.;
    w "sim-hfsc-mc" [ link "l0" 10 100 ] (Sim Tower.Mc) 0.3 0.5;
    w "ctl-durable" [ link "l0" 5 100; link ~backend:Spec.Rr "l1" 5 100 ] Ctl 8000. 1.;
  ]

let workload_names = List.map (fun w -> w.name) (workloads ~small:false)

(* --- metrics ----------------------------------------------------------- *)

type better = Lower | Higher

(* The end-to-end metrics, reported by [run] for every workload. "Write"
   and "read" are each workload's two request classes: on the simulator
   an enqueue into the tower and a dequeue that returned a packet, timed
   as the simulator calls them; on the daemon a class add/modify/delete
   and a stats/ping, timed over the socket. *)
let end_to_end =
  [
    ("throughput_per_s", "1/s", Higher);
    ("write_p50_us", "us", Lower);
    ("read_p50_us", "us", Lower);
    ("setup_s", "s", Lower);
  ]

(* The per-layer metrics, reported by [trace] for every workload. *)
let per_layer =
  [
    ("tower.enqueue_ns", "ns"); ("tower.dequeue_ns", "ns"); ("tower.next_ready_ns", "ns");
    ("tower.calls_per_pkt", "count"); ("tower.empty_poll_ratio", "ratio");
    ("netsim.self_ns_per_pkt", "ns"); ("sim.minor_words_per_pkt", "words");
  ]
  @ List.concat_map
      (fun r ->
        [
          (r ^ ".ns_per_op", "ns"); (r ^ ".self_ns_per_op", "ns");
          (r ^ ".minor_words_per_op", "words");
        ])
      Replay.layer_rows
  @ [
      ("command.parse_ns", "ns"); ("router.exec_add_us", "us");
      ("router.exec_modify_us", "us"); ("router.exec_delete_us", "us");
      ("router.exec_read_us", "us"); ("journal.append_us", "us");
      ("router.checkpoint_ms", "ms"); ("router.fingerprint_ms", "ms");
      ("journal.rotate_ms", "ms"); ("journal.rotates", "count");
      ("daemon.write_self_us", "us"); ("daemon.read_self_us", "us");
      ("daemon.recover_ms", "ms"); ("trace_overhead_pct", "%");
    ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, u, _) -> u
  | None -> ( match List.assoc_opt name per_layer with Some u -> u | None -> "")

(* A reported metric: its value, each repetition's own estimate, and
   [spread], how far the value moves when any one repetition is left out
   (relative to the value) — what [compare] weighs a change against. *)
type measure = { value : float; reps : float array; spread : float }

let single v = { value = v; reps = [| v |]; spread = 0. }

(* [combine] reduces per-repetition data to one value; applied to a
   single repetition it gives that repetition's own estimate. *)
let estimate combine data =
  let n = Array.length data in
  let value = combine data in
  let loo =
    if n < 3 then [| value |]
    else Array.init n (fun i -> combine (Array.init (n - 1) (fun j -> data.(if j < i then j else j + 1))))
  in
  {
    value;
    reps = Array.map (fun d -> combine [| d |]) data;
    spread = (Array.fold_left max neg_infinity loo -. Array.fold_left min infinity loo) /. value;
  }

(* Items per second over the kept time of every slice. *)
let rate ~items slice_ns = float_of_int items /. (float_of_int (sum slice_ns) *. 1e-9)

(* The median over calls of each call's fastest time, in us. *)
let p50_us samples = median_ns (fastest samples) *. 1e-3
let pct_us q samples = quantile (ns_to_us (fastest samples)) q

(* One workload's outcome; [info] values are printed and saved, never
   gated. *)
type result = {
  attempted : int;
  metrics : (string * measure) list;
  info : (string * string * float) list;
}

(* --- run: the end-to-end measurements ---------------------------------- *)

type sim_rep = {
  setup_s : float;
  out : Tower.sim_out;
  offered : int;
  enq_ns : int array;  (** every 16th enqueue call *)
  deq_ns : int array;  (** every 16th dequeue call, when it returned a packet *)
  fingerprint : string;
}

let sim_rep router (spec : Spec.device) ~seed ~horizon () =
  let d, setup_s = Tower.build router spec in
  Fun.protect ~finally:d.Tower.stop @@ fun () ->
  let st = Tower.new_sampled () in
  let out = Tower.simulate ~spec ~seed ~horizon ~wrap:(Tower.sampled st) (d.Tower.scheds ()) in
  {
    setup_s;
    out;
    offered = st.Tower.enq_calls;
    enq_ns = Ints.to_array st.Tower.enq_lat;
    deq_ns = Ints.to_array st.Tower.deq_lat;
    fingerprint = d.Tower.fingerprint ();
  }

let check_sim what (r : sim_rep) =
  if r.out.Tower.delivered = 0 then fail "%s: no packet delivered" what;
  if r.out.Tower.rt_violations > 0 then
    fail "%s: %d real-time packets missed the Theorem-1 bound (worst by %.3f us)" what
      r.out.Tower.rt_violations (-.r.out.Tower.rt_worst_slack_us)

let run_sim w router ~seed ~seconds =
  let horizon = w.per_second *. seconds /. float_of_int w.reps in
  let rep h = in_child (sim_rep router w.spec ~seed ~horizon:h) in
  let warm = rep (horizon /. 10.) in
  check_sim "warm-up" warm;
  let rs = Array.init w.reps (fun _ -> rep horizon) in
  let r0 = rs.(0) in
  Array.iteri
    (fun i r ->
      check_sim (Printf.sprintf "repetition %d" (i + 1)) r;
      if r.out.Tower.digest <> r0.out.Tower.digest then
        fail "repetition %d departed differently from repetition 1" (i + 1);
      if r.fingerprint <> warm.fingerprint then fail "repetition %d built a different device" (i + 1))
    rs;
  if router = Tower.Mc then begin
    let s = in_child (sim_rep Tower.Seq w.spec ~seed ~horizon) in
    if s.out.Tower.digest <> r0.out.Tower.digest then
      fail "the multicore router departed differently from the sequential one";
    if s.fingerprint <> r0.fingerprint then
      fail "the multicore router built a different device from the sequential one"
  end;
  let o = r0.out in
  let enq = Array.map (fun r -> r.enq_ns) rs and deq = Array.map (fun r -> r.deq_ns) rs in
  {
    attempted = Array.fold_left (fun a r -> a + r.offered) 0 rs;
    metrics =
      [
        ( "throughput_per_s",
          estimate
            (fun rs ->
              rate ~items:o.Tower.delivered
                (fastest (Array.map (fun r -> r.out.Tower.slice_ns) rs)))
            rs );
        ("write_p50_us", estimate p50_us enq);
        ("read_p50_us", estimate p50_us deq);
        ("setup_s", estimate median (Array.map (fun r -> r.setup_s) (Array.append [| warm |] rs)));
      ];
    info =
      [
        ("packets_per_rep", "count", float_of_int o.Tower.delivered);
        ("drop_ratio", "ratio", float_of_int o.Tower.drops /. float_of_int (max 1 r0.offered));
        ("rt_delay_p99_ms", "ms", o.Tower.rt_delay_p99_ms);
        ( "rt_theorem1_slack_us",
          "us",
          Array.fold_left (fun a r -> min a r.out.Tower.rt_worst_slack_us) infinity rs );
        ("write_p99_us", "us", pct_us 0.99 enq);
        ("read_p99_us", "us", pct_us 0.99 deq);
        ("minor_words_per_pkt", "words", o.Tower.minor_words /. float_of_int o.Tower.delivered);
      ];
  }

let churn_requests w ~seconds =
  (* whole rounds only, so every script leaves the configuration as the
     build left it *)
  max 5 (int_of_float (w.per_second *. seconds /. float_of_int w.reps) / 5 * 5)

let check_session what ~oracle (s : Ctl.session) =
  if s.Ctl.errors > 0 then fail "%s: %d requests answered err" what s.Ctl.errors;
  if s.Ctl.audit <> "audit clean" then fail "%s: audit: %s" what s.Ctl.audit;
  if s.Ctl.fingerprint <> oracle then
    fail "%s: daemon fingerprint %s, in-process replay %s" what s.Ctl.fingerprint oracle;
  if s.Ctl.recovered <> oracle then
    fail "%s: restarted daemon fingerprint %s, expected %s" what s.Ctl.recovered oracle

let run_ctl w ~seed ~seconds =
  let n = churn_requests w ~seconds in
  let churn = Spec.churn w.spec ~seed ~requests:n in
  let oracle = in_child (fun () -> Ctl.oracle_fingerprint w.spec ~churn) in
  let rep c = in_child (fun () -> Ctl.session Tower.Seq w.spec ~churn:c) in
  let warm = rep (Spec.churn w.spec ~seed ~requests:(max 5 (n / 10 / 5 * 5))) in
  check_session "warm-up" ~oracle warm;
  let rs = Array.init w.reps (fun _ -> rep churn) in
  Array.iteri (fun i s -> check_session (Printf.sprintf "repetition %d" (i + 1)) ~oracle s) rs;
  (* a request's content is the same in every repetition: index i of
     every latency array is the same command on the same state *)
  let pick p (s : Ctl.session) =
    let out = Ints.create () in
    Array.iteri (fun i (k, _) -> if p k then Ints.add out s.Ctl.lat_ns.(i)) churn;
    Ints.to_array out
  in
  let writes = Array.map (pick Spec.is_write) rs in
  let reads = Array.map (pick (fun k -> not (Spec.is_write k))) rs in
  (* consecutive slices of up to 500 requests *)
  let size = min 500 n in
  let slices (s : Ctl.session) = Array.init (n / size) (fun k -> sum (Array.sub s.Ctl.lat_ns (k * size) size)) in
  {
    attempted = n * w.reps;
    metrics =
      [
        ( "throughput_per_s",
          estimate (fun rs -> rate ~items:(n / size * size) (fastest (Array.map slices rs))) rs );
        ("write_p50_us", estimate p50_us writes);
        ("read_p50_us", estimate p50_us reads);
        ("setup_s", estimate median (Array.map (fun s -> s.Ctl.setup_s) (Array.append [| warm |] rs)));
      ];
    info =
      [
        ("requests_per_rep", "count", float_of_int n);
        ("write_p999_us", "us", pct_us 0.999 writes);
        ("read_p99_us", "us", pct_us 0.99 reads);
        ("recover_s", "s", median (Array.map (fun s -> s.Ctl.recover_s) rs));
      ];
  }

let run_workload w ~seed ~seconds =
  match w.kind with Sim router -> run_sim w router ~seed ~seconds | Ctl -> run_ctl w ~seed ~seconds

(* --- trace: the per-layer measurements ---------------------------------- *)

(* At most this many tower calls are recorded for the layered replay;
   each row replays them this many times, each pass in a fresh process,
   and keeps its fastest pass. *)
let record_cap = ref 500_000
let replay_passes = 3

type packet_trace = {
  untraced : Tower.sim_out;
  traced : Tower.sim_out;
  shim : Tower.shim;  (** counters only; the recording stays behind *)
  ops : int;  (** tower calls recorded and replayed *)
  rows : (string * Replay.result) list;
}

let trim (sh : Tower.shim) =
  let s = sh.Tower.rec_ in
  let n = s.Tower.n in
  let sub a = Array.sub a 0 n in
  {
    sh with
    Tower.rec_ =
      {
        s with
        Tower.kind = Bytes.sub s.Tower.kind 0 n;
        link = sub s.Tower.link;
        now = sub s.Tower.now;
        flow = sub s.Tower.flow;
        size = sub s.Tower.size;
        seq = sub s.Tower.seq;
      };
  }

(* The workload's packet path run twice — bare, then shimmed and
   recorded — then the recording replayed through every layer row, each
   pass in its own process. *)
let packet_trace w router ~seed =
  let horizon = w.trace_horizon in
  let sim wrap () =
    let d, _ = Tower.build router w.spec in
    Fun.protect ~finally:d.Tower.stop @@ fun () ->
    Tower.simulate ~spec:w.spec ~seed ~horizon ~wrap (d.Tower.scheds ())
  in
  let untraced = in_child (sim (fun _ s -> s)) in
  let shim, traced =
    in_child (fun () ->
        let sh = Tower.new_shim !record_cap in
        let out = sim (Tower.shimmed sh) () in
        (trim sh, out))
  in
  if traced.Tower.digest <> untraced.Tower.digest then fail "the timing shims changed the schedule";
  let st = shim.Tower.rec_ in
  let pkts = Replay.packets st in
  let pass name () =
    let r = in_child (fun () -> Replay.run name w.spec st pkts) in
    if name <> "loop" && (r.Replay.digest <> st.Tower.deq_digest || r.Replay.pkts <> st.Tower.deq_pkts)
    then
      fail "layer %s dequeued a different sequence (%d packets) from the recorded run (%d)" name
        r.Replay.pkts st.Tower.deq_pkts;
    r
  in
  let rows =
    List.map
      (fun name ->
        let passes = List.init replay_passes (fun _ -> pass name ()) in
        ( name,
          List.fold_left
            (fun a r -> if r.Replay.ns_per_op < a.Replay.ns_per_op then r else a)
            (List.hd passes) passes ))
      Replay.rows
  in
  { untraced; traced; shim = { shim with Tower.rec_ = Tower.new_stream 0 }; ops = st.Tower.n; rows }

let trace_workload w ~seed ~seconds =
  let router = match w.kind with Sim r -> r | Ctl -> Tower.Seq in
  let p = in_child (fun () -> packet_trace w router ~seed) in
  (* the simulator workloads' devices get a shorter churn: 200 requests
     a second of run length *)
  let n =
    match w.kind with
    | Ctl -> churn_requests w ~seconds
    | Sim _ -> max 5 (int_of_float (200. *. seconds) / 5 * 5)
  in
  let churn = Spec.churn w.spec ~seed ~requests:n in
  let c = in_child (fun () -> Ctl.replay router w.spec ~churn) in
  let s = in_child (fun () -> Ctl.session router w.spec ~churn) in
  if c.Ctl.errors > 0 then fail "in-process replay: %d commands refused" c.Ctl.errors;
  check_session "traced session" ~oracle:c.Ctl.final_fingerprint s;
  let sh = p.shim and u = p.untraced and t = p.traced in
  let pkts = float_of_int t.Tower.delivered in
  let med_us xs = if Array.length xs = 0 then 0. else median (ns_to_us xs) in
  let med_ms xs = med_us xs *. 1e-3 in
  let row_metrics =
    let ns name = (List.assoc name p.rows).Replay.ns_per_op in
    List.concat_map
      (fun name ->
        let r = List.assoc name p.rows in
        [
          (name ^ ".ns_per_op", r.Replay.ns_per_op);
          (name ^ ".self_ns_per_op", r.Replay.ns_per_op -. ns (Replay.base name));
          (name ^ ".minor_words_per_op", r.Replay.words_per_op);
        ])
      Replay.layer_rows
  in
  let exec k =
    med_us
      (Array.of_list
         (List.filter_map (fun (k', v) -> if k' = k then Some v else None) (Array.to_list c.Ctl.exec_ns)))
  in
  (* the daemon's own share of a request: its socket round trip minus
     the in-process cost of the same request, paired by index *)
  let self p =
    let d = Ints.create () in
    Array.iteri (fun i (k, _) -> if p k then Ints.add d (s.Ctl.lat_ns.(i) - c.Ctl.inproc_ns.(i))) churn;
    med_us (Ints.to_array d)
  in
  let pps (o : Tower.sim_out) = float_of_int o.Tower.delivered /. o.Tower.wall_s in
  let values =
    [
      ("tower.enqueue_ns", mean_ns ~total:sh.Tower.enq_ns ~count:sh.Tower.enq_n);
      ("tower.dequeue_ns", mean_ns ~total:sh.Tower.deq_ns ~count:sh.Tower.deq_n);
      ("tower.next_ready_ns", mean_ns ~total:sh.Tower.nr_ns ~count:sh.Tower.nr_n);
      ("tower.calls_per_pkt", float_of_int (sh.Tower.enq_n + sh.Tower.deq_n + sh.Tower.nr_n) /. pkts);
      ("tower.empty_poll_ratio", float_of_int sh.Tower.deq_empty /. float_of_int (max 1 sh.Tower.deq_n));
      ("netsim.self_ns_per_pkt", ((t.Tower.wall_s *. 1e9) -. float_of_int (Tower.shim_ns sh)) /. pkts);
      ("sim.minor_words_per_pkt", u.Tower.minor_words /. float_of_int u.Tower.delivered);
    ]
    @ row_metrics
    @ [
        ("command.parse_ns", med_us c.Ctl.parse_ns *. 1e3);
        ("router.exec_add_us", exec Spec.Add);
        ("router.exec_modify_us", exec Spec.Modify);
        ("router.exec_delete_us", exec Spec.Delete);
        ("router.exec_read_us", exec Spec.Stats);
        ("journal.append_us", med_us c.Ctl.append_ns);
        ("router.checkpoint_ms", med_ms c.Ctl.checkpoint_ns);
        ("router.fingerprint_ms", med_ms c.Ctl.fingerprint_ns);
        ("journal.rotate_ms", med_ms c.Ctl.rotate_ns);
        ("journal.rotates", float_of_int (Array.length c.Ctl.rotate_ns));
        ("daemon.write_self_us", self Spec.is_write);
        ("daemon.read_self_us", self (fun k -> not (Spec.is_write k)));
        ("daemon.recover_ms", s.Ctl.recover_s *. 1e3);
        ("trace_overhead_pct", (pps u -. pps t) /. pps u *. 100.);
      ]
  in
  {
    attempted = t.Tower.delivered + (2 * n);
    metrics = List.map (fun (k, v) -> (k, single v)) values;
    info =
      [
        ("replayed_ops", "count", float_of_int p.ops);
        ("untraced_pkts_per_s", "1/s", pps u);
        ("traced_pkts_per_s", "1/s", pps t);
      ];
  }

(* --- output -------------------------------------------------------------- *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let lo xs = Array.fold_left min infinity xs
let hi xs = Array.fold_left max neg_infinity xs

let print_result w mode (r : result) =
  Printf.printf "== %s (%s)\n" w.name mode;
  List.iter
    (fun (name, m) ->
      Printf.printf "  %-28s %-5s %-12s" name (unit_of name) (Printf.sprintf "%.6g" m.value);
      if Array.length m.reps > 1 then
        Printf.printf "  repetitions: median %.6g min %.6g max %.6g n=%d  spread %.1f%%" (median m.reps)
          (lo m.reps) (hi m.reps) (Array.length m.reps) (m.spread *. 100.);
      print_newline ())
    r.metrics;
  List.iter (fun (name, u, v) -> Printf.printf "  %-28s %-5s %.6g  (info)\n" name u v) r.info;
  flush stdout

(* The driver's result object: one line, every metric by name. *)
let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, m) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num m.value) (unit_of name))
          metrics))

(* The filesystem the daemon's state directory, and its fsyncs, land on. *)
let state_fs () =
  try
    let dir = Unix.realpath "." ^ "/" in
    let ic = open_in "/proc/self/mounts" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let best = ref ("", "unknown") in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | _ :: mnt :: fs :: _ ->
             let prefix = if mnt = "/" then "/" else mnt ^ "/" in
             if String.starts_with ~prefix dir && String.length mnt > String.length (fst !best) then
               best := (mnt, fs)
         | _ -> ()
       done
     with End_of_file -> ());
    snd !best
  with Sys_error _ | Unix.Unix_error _ -> "unknown"

let report_json ~mode ~seed ~seconds results =
  let open Json_lite in
  let n x = Num (if Float.is_finite x then x else 0.) in
  Obj
    [
      ("schema", Str "towerbench/1");
      ("mode", Str mode);
      ("seed", Num (float_of_int seed));
      ("seconds", Num seconds);
      ( "host",
        Obj
          [
            ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
            ("ocaml", Str Sys.ocaml_version);
            ("state_fs", Str (state_fs ()));
          ] );
      ( "workloads",
        List
          (List.map
             (fun (w, (r : result)) ->
               Obj
                 [
                   ("name", Str w.name);
                   ("correct", Bool true);
                   ("attempted", Num (float_of_int r.attempted));
                   ("failed", Num 0.);
                   ( "metrics",
                     Obj
                       (List.map
                          (fun (name, m) ->
                            ( name,
                              Obj
                                [
                                  ("unit", Str (unit_of name));
                                  ("value", n m.value);
                                  ("spread", n m.spread);
                                  ("median", n (median m.reps));
                                  ("min", n (lo m.reps));
                                  ("max", n (hi m.reps));
                                  ("n", Num (float_of_int (Array.length m.reps)));
                                  ("reps", List (Array.to_list (Array.map n m.reps)));
                                ] ))
                          r.metrics) );
                   ("info", Obj (List.map (fun (name, u, v) -> (name, Obj [ ("unit", Str u); ("value", n v) ])) r.info));
                 ])
             results) );
    ]

(* --- compare -------------------------------------------------------------- *)

let get path k v = match Json_lite.member k v with Some x -> x | None -> fail "%s: missing %S" path k
let str path v = match Json_lite.to_str_opt v with Some s -> s | None -> fail "%s: not a string" path
let flt path v = match Json_lite.to_num_opt v with Some f -> f | None -> fail "%s: not a number" path
let items path k v = Option.value ~default:[] (Json_lite.to_list_opt (get path k v))

(* name -> (better, bound) for the gated metrics of BENCHMARK.json *)
let benchmark_bounds path =
  let doc = Json_lite.of_file path in
  List.map
    (fun m ->
      ( str path (get path "name" m),
        ( (if str path (get path "better" m) = "lower" then Lower else Higher),
          flt path (get path "bound" m) ) ))
    (items path "end_to_end" doc)

let load_report path =
  let doc = Json_lite.of_file path in
  List.map
    (fun w ->
      let metric m =
        {
          value = flt path (get path "value" m);
          spread = flt path (get path "spread" m);
          reps = Array.of_list (List.map (flt path) (items path "reps" m));
        }
      in
      match get path "metrics" w with
      | Json_lite.Obj kvs -> (str path (get path "name" w), List.map (fun (k, m) -> (k, metric m)) kvs)
      | _ -> fail "%s: metrics is not an object" path)
    (items path "workloads" doc)

type verdict = Ok_ | Regressed | Unresolved

(* A change worse than the bound is a regression when the runs resolve
   it: both runs' spreads are within the bound, or the change exceeds
   the bound by more than the spread. A run too noisy to resolve the
   bound is unresolved, unless every new repetition beats every old
   one. *)
let verdict ~better ~bound (o : measure) (n : measure) =
  let change =
    match better with Lower -> (n.value -. o.value) /. o.value | Higher -> (o.value -. n.value) /. o.value
  in
  let noise = max o.spread n.spread in
  let beats x y = match better with Lower -> x < y | Higher -> x > y in
  let better_everywhere = Array.for_all (fun x -> Array.for_all (beats x) o.reps) n.reps in
  if change > bound && (noise <= bound || change > bound +. noise) then Regressed
  else if noise > bound && not better_everywhere then Unresolved
  else Ok_

let compare_cmd old_path new_path =
  let bounds = benchmark_bounds "BENCHMARK.json" in
  let old_r = load_report old_path and new_r = load_report new_path in
  let regressed = ref false in
  Printf.printf "%-12s %-28s %13s %13s %9s %6s  %s\n" "workload" "metric" "old" "new" "change" "bound"
    "verdict";
  List.iter
    (fun (wname, new_m) ->
      match List.assoc_opt wname old_r with
      | None -> Printf.printf "%-12s (not in %s)\n" wname old_path
      | Some old_m ->
          List.iter
            (fun (mname, nm) ->
              match List.assoc_opt mname old_m with
              | None -> ()
              | Some om ->
                  let pct = if om.value = 0. then 0. else (nm.value -. om.value) /. om.value *. 100. in
                  let bound, v =
                    match List.assoc_opt mname bounds with
                    | Some (better, bound) ->
                        let v = verdict ~better ~bound om nm in
                        if v = Regressed then regressed := true;
                        ( Printf.sprintf "%.0f%%" (bound *. 100.),
                          match v with Ok_ -> "ok" | Regressed -> "regressed" | Unresolved -> "unresolved" )
                    | None -> ("-", "(layer)")
                  in
                  Printf.printf "%-12s %-28s %13.6g %13.6g %+8.2f%% %6s  %s\n" wname mname om.value
                    nm.value pct bound v)
            new_m)
    new_r;
  if !regressed then 1 else 0

(* --- command line ---------------------------------------------------------- *)

type opts = {
  mutable seed : int;
  mutable seconds : float;
  mutable names : string list;
  mutable out : string option;
  mutable trace : bool;
}

let default_seed = 1
let default_seconds = 8.

let parse_opts args =
  let o = { seed = default_seed; seconds = default_seconds; names = []; out = None; trace = false } in
  let int_arg v = match int_of_string_opt v with Some i -> i | None -> fail "not an integer: %S" v in
  let float_arg v = match float_of_string_opt v with Some f -> f | None -> fail "not a number: %S" v in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        o.seed <- int_arg v;
        go rest
    | "--seconds" :: v :: rest ->
        o.seconds <- float_arg v;
        go rest
    | "--workload" :: v :: rest ->
        if not (List.mem v workload_names) then fail "unknown workload %S" v;
        o.names <- o.names @ [ v ];
        go rest
    | "--out" :: v :: rest ->
        o.out <- Some v;
        go rest
    | "--trace" :: v :: rest ->
        o.trace <- int_arg v <> 0;
        go rest
    | a :: _ -> fail "unexpected argument %S" a
  in
  go args;
  if o.seconds <= 0. then fail "--seconds must be positive";
  o

let selected o =
  let ws = workloads ~small:false in
  if o.names = [] then ws else List.filter (fun w -> List.mem w.name o.names) ws

let measure ~trace w ~seed ~seconds =
  if trace then trace_workload w ~seed ~seconds else run_workload w ~seed ~seconds

(* One workload, the result object last. A failed check prints the
   reason and a result with no metrics, and exits 1. *)
let single o =
  let w = match selected o with [ w ] -> w | _ -> fail "give exactly one --workload" in
  match measure ~trace:o.trace w ~seed:o.seed ~seconds:o.seconds with
  | r ->
      print_result w (if o.trace then "trace" else "run") r;
      print_endline (result_line ~correct:true ~attempted:r.attempted ~failed:0 r.metrics);
      0
  | exception Failed msg ->
      Printf.printf "%s: FAILED: %s\n" w.name msg;
      print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
      1

let suite o ~trace =
  let mode = if trace then "trace" else "run" in
  let t0 = now_ns () in
  let results =
    List.map
      (fun w ->
        let r = measure ~trace w ~seed:o.seed ~seconds:o.seconds in
        print_result w mode r;
        (w, r))
      (selected o)
  in
  Printf.printf "%s: %d workloads in %.1f s (seed %d, %g s a workload, nproc %d, OCaml %s, state on %s)\n"
    mode (List.length results) (secs_since t0) o.seed o.seconds (Domain.recommended_domain_count ())
    Sys.ocaml_version (state_fs ());
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Json_lite.to_string (report_json ~mode ~seed:o.seed ~seconds:o.seconds results));
      close_out oc)
    o.out;
  0

(* A sub-second slice of every workload in both modes, checked against
   the workload and metric names BENCHMARK.json declares. *)
let smoke () =
  let doc = Json_lite.of_file "BENCHMARK.json" in
  let names k = List.map (fun m -> str k (get k "name" m)) (items "BENCHMARK.json" k doc) in
  let same what declared produced =
    if List.sort compare declared <> List.sort compare produced then
      fail "%s: BENCHMARK.json declares [%s], the benchmark produces [%s]" what
        (String.concat " " declared) (String.concat " " produced)
  in
  let e2e = List.map (fun (n, _, _) -> n) end_to_end and layers = List.map fst per_layer in
  same "workloads" (names "workloads") workload_names;
  same "end_to_end" (names "end_to_end") e2e;
  same "per_layer" (names "per_layer") layers;
  record_cap := 20_000;
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = measure ~trace w ~seed:default_seed ~seconds:0.3 in
          let expect = if trace then layers else e2e in
          same (w.name ^ " metrics") expect (List.map fst r.metrics);
          let line = result_line ~correct:true ~attempted:r.attempted ~failed:0 r.metrics in
          (match Json_lite.parse line with
          | Json_lite.Obj [ ("correct", _); ("attempted", _); ("failed", _); ("metrics", Json_lite.Obj ms) ] ->
              same (w.name ^ " result line") expect (List.map fst ms)
          | _ -> fail "%s: malformed result line %s" w.name line);
          Printf.printf "smoke %-12s %-5s ok (%d attempted)\n%!" w.name
            (if trace then "trace" else "run")
            r.attempted)
        [ false; true ])
    (workloads ~small:true);
  print_endline "towerbench smoke: ok";
  0

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe run|trace [--seed N] [--seconds S] [--workload W]... [--out FILE]\n\
    \       main.exe compare OLD.json NEW.json\n\
    \       main.exe smoke";
  2

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "run" :: rest -> suite (parse_opts rest) ~trace:false
      | "trace" :: rest -> suite (parse_opts rest) ~trace:true
      | [ "compare"; a; b ] -> compare_cmd a b
      | [ "smoke" ] -> smoke ()
      | "--workload" :: _ as args -> single (parse_opts args)
      | _ -> usage ()
    with Failed msg | Json_lite.Parse_error msg | Sys_error msg ->
      prerr_endline ("towerbench: " ^ msg);
      1
  in
  exit code
