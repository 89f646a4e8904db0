(* The packet path: a device built through the control plane, then
   [Netsim.Sim] driving each link's [Sched.Scheduler.t] — the sequential
   router's [Engine.adapter] or the multicore router's
   [Mc_router.adapter]. Two wrappers go around those records: a sampled
   latency probe for [run], and full timing shims that also record the
   op stream for [trace]. *)

open Util
module R = Runtime

type router = Seq | Mc

(* A device built through one router's control plane. *)
type device = {
  exec : R.Command.t -> (string, R.Engine.error) result;
  scheds : unit -> (string * Sched.Scheduler.t) list;
  checkpoint : unit -> (float * R.Command.t) list;
  fingerprint : unit -> string;
  stop : unit -> unit;
}

let create_router = function
  | Seq ->
      let r = R.Router.create () in
      {
        exec = (fun c -> R.Router.exec r ~now:0. c);
        scheds =
          (fun () ->
            List.map (fun (n, e) -> (n, R.Engine.adapter e)) (R.Router.links r));
        checkpoint = (fun () -> R.Router.checkpoint r);
        fingerprint = (fun () -> R.Router.config_fingerprint r);
        stop = ignore;
      }
  | Mc ->
      let m = R.Mc_router.create ~domains:1 () in
      {
        exec = (fun c -> R.Mc_router.exec m ~now:0. c);
        scheds =
          (fun () ->
            List.map
              (fun n ->
                match R.Mc_router.adapter m ~link:n with
                | Some s -> (n, s)
                | None -> fail "mc_router lost link %s" n)
              (R.Mc_router.link_names m));
        checkpoint = (fun () -> R.Mc_router.checkpoint m);
        fingerprint = (fun () -> R.Mc_router.config_fingerprint m);
        stop = (fun () -> ignore (R.Mc_router.stop m));
      }

(* Build [spec] by parsing and executing its script, as an operator's
   script or the daemon would; returns the device and the wall seconds
   it took (the workload's [setup_s] sample). *)
let build kind (spec : Spec.device) =
  let t0 = now_ns () in
  let d = create_router kind in
  List.iter
    (fun line ->
      match d.exec (Spec.parse_exn line) with
      | Ok _ -> ()
      | Error e -> fail "setup refused %S: %s" line (R.Engine.error_message e))
    (Spec.build_lines spec);
  (d, secs_since t0)

(* --- probes ----------------------------------------------------------- *)

(* [run]'s probe: every 16th enqueue and dequeue call is timed, so the
   latency distributions cost two clock reads per 16 calls. *)
type sampled = {
  enq_lat : Ints.t;
  deq_lat : Ints.t;  (** only polls that returned a packet *)
  mutable enq_calls : int;
  mutable deq_calls : int;
}

let new_sampled () =
  { enq_lat = Ints.create (); deq_lat = Ints.create (); enq_calls = 0; deq_calls = 0 }

let sampled st _link (s : Sched.Scheduler.t) =
  let enqueue ~now p =
    st.enq_calls <- st.enq_calls + 1;
    if st.enq_calls land 15 <> 0 then s.enqueue ~now p
    else begin
      let t0 = now_ns () in
      let r = s.enqueue ~now p in
      Ints.add st.enq_lat (now_ns () - t0);
      r
    end
  in
  let dequeue_many ~now ~max =
    st.deq_calls <- st.deq_calls + 1;
    if st.deq_calls land 15 <> 0 then Sched.Scheduler.dequeue_burst s ~now ~max
    else begin
      let t0 = now_ns () in
      let r = Sched.Scheduler.dequeue_burst s ~now ~max in
      let dt = now_ns () - t0 in
      if r <> [] then Ints.add st.deq_lat dt;
      r
    end
  in
  { s with enqueue; dequeue_many = Some dequeue_many }

(* The recorded op stream: the first [cap] tower calls, flat arrays.
   Kinds: 0 enqueue, 1 dequeue, 2 next_ready. [deq_digest] folds the
   (flow, seq) of every packet the recorded dequeues returned — what
   every replayed layer must reproduce. *)
type stream = {
  kind : Bytes.t;
  link : int array;
  now : float array;
  flow : int array;
  size : int array;
  seq : int array;
  mutable n : int;
  mutable deq_digest : int;
  mutable deq_pkts : int;
}

let new_stream cap =
  {
    kind = Bytes.make cap '\000';
    link = Array.make cap 0;
    now = Array.make cap 0.;
    flow = Array.make cap 0;
    size = Array.make cap 0;
    seq = Array.make cap 0;
    n = 0;
    deq_digest = digest_init;
    deq_pkts = 0;
  }

let cap s = Bytes.length s.kind

(* [trace]'s shims: every call timed and counted; the first [cap] calls
   recorded. *)
type shim = {
  mutable enq_n : int;
  mutable enq_ns : int;
  mutable deq_n : int;
  mutable deq_ns : int;
  mutable deq_empty : int;
  mutable nr_n : int;
  mutable nr_ns : int;
  rec_ : stream;
}

let new_shim cap =
  {
    enq_n = 0; enq_ns = 0; deq_n = 0; deq_ns = 0; deq_empty = 0; nr_n = 0;
    nr_ns = 0; rec_ = new_stream cap;
  }

let shim_ns sh = sh.enq_ns + sh.deq_ns + sh.nr_ns

let record st k link now =
  let i = st.n in
  Bytes.unsafe_set st.kind i (Char.unsafe_chr k);
  st.link.(i) <- link;
  st.now.(i) <- now;
  st.n <- i + 1;
  i

let shimmed sh link (s : Sched.Scheduler.t) =
  let st = sh.rec_ in
  let enqueue ~now (p : Pkt.Packet.t) =
    if st.n < cap st then begin
      let i = record st 0 link now in
      st.flow.(i) <- p.Pkt.Packet.flow;
      st.size.(i) <- p.Pkt.Packet.size;
      st.seq.(i) <- p.Pkt.Packet.seq
    end;
    let t0 = now_ns () in
    let r = s.enqueue ~now p in
    sh.enq_ns <- sh.enq_ns + (now_ns () - t0);
    sh.enq_n <- sh.enq_n + 1;
    r
  in
  let dequeue_many ~now ~max =
    let recording = st.n < cap st in
    if recording then ignore (record st 1 link now);
    let t0 = now_ns () in
    let r = Sched.Scheduler.dequeue_burst s ~now ~max in
    sh.deq_ns <- sh.deq_ns + (now_ns () - t0);
    sh.deq_n <- sh.deq_n + 1;
    (match r with
    | [] -> sh.deq_empty <- sh.deq_empty + 1
    | served ->
        if recording then
          List.iter
            (fun (x : Sched.Scheduler.served) ->
              st.deq_pkts <- st.deq_pkts + 1;
              st.deq_digest <-
                mix (mix st.deq_digest x.pkt.Pkt.Packet.flow) x.pkt.Pkt.Packet.seq)
            served);
    r
  in
  let next_ready ~now =
    if st.n < cap st then ignore (record st 2 link now);
    let t0 = now_ns () in
    let r = s.next_ready ~now in
    sh.nr_ns <- sh.nr_ns + (now_ns () - t0);
    sh.nr_n <- sh.nr_n + 1;
    r
  in
  { s with enqueue; dequeue_many = Some dequeue_many; next_ready }

(* --- the simulation --------------------------------------------------- *)

type sim_out = {
  delivered : int;
  drops : int;
  wall_s : float;
  slice_ns : int array;  (** wall ns taken by each of [slices] equal slices of the horizon *)
  minor_words : float;
  digest : int;  (** over (flow, seq, departure time) of every departure *)
  rt_delay_p99_ms : float;
  rt_worst_slack_us : float;
      (** min over real-time packets of (Theorem-1 bound − delay) *)
  rt_violations : int;
}

(* The horizon is timed in this many equal slices. A slice's content is
   the same in every repetition, so the parent can take each slice's
   best time over the repetitions. *)
let slices = 20

(* Run [spec]'s traffic for [horizon] simulated seconds through
   [scheds] (one per link, in device order), each passed through
   [wrap link]. Checks Theorem 1 on every real-time departure: an
   admitted rsc leaf whose arrivals conform to its curve is served by
   its deadline (arrival + dmax here) plus one maximum-size packet time
   Lmax/R. *)
let simulate ~(spec : Spec.device) ~seed ~horizon ~wrap scheds =
  let leaves = Spec.leaves spec in
  let rates = Array.of_list (List.map (fun l -> float_of_int l.Spec.rate) spec) in
  let route_tbl = Array.map (fun lf -> Some lf.Spec.link) leaves in
  let rt = Array.map (fun lf -> lf.Spec.rt) leaves in
  let links =
    List.mapi
      (fun i (name, s) -> (name, rates.(i), wrap i s))
      scheds
  in
  let sim =
    Netsim.Sim.create_multi ~links
      ~route:(fun p -> route_tbl.(p.Pkt.Packet.flow))
      ()
  in
  List.iter (Netsim.Sim.add_source sim) (Spec.sources spec ~seed ~horizon);
  let delivered = ref 0 and digest = ref digest_init in
  let rt_delays = Ints.create () in
  let slack = ref infinity and violations = ref 0 in
  let bound =
    Array.map
      (fun r -> Spec.rt_dmax +. (float_of_int Spec.pkt_size /. r))
      rates
  in
  Netsim.Sim.on_departure sim (fun ~now served ->
      let p = served.Sched.Scheduler.pkt in
      let flow = p.Pkt.Packet.flow in
      incr delivered;
      digest :=
        mix (mix (mix !digest flow) p.Pkt.Packet.seq) (Int64.to_int (Int64.bits_of_float now));
      if rt.(flow) then begin
        let d = now -. p.Pkt.Packet.arrival in
        Ints.add rt_delays (int_of_float (d *. 1e9));
        let s = bound.(leaves.(flow).Spec.link) -. d in
        if s < !slack then slack := s;
        (* 1 ns of slack for the scheduler's fixed-point clock *)
        if s < -1e-9 then incr violations
      end);
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let slice_ns =
    Array.init slices (fun k ->
        let s0 = now_ns () in
        Netsim.Sim.run sim ~until:(horizon *. float_of_int (k + 1) /. float_of_int slices);
        now_ns () - s0)
  in
  let wall_s = secs_since t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let rt = Ints.to_array rt_delays in
  {
    delivered = !delivered;
    drops = Netsim.Sim.enqueue_drops sim;
    wall_s;
    slice_ns;
    minor_words;
    digest = !digest;
    rt_delay_p99_ms =
      (if Array.length rt = 0 then 0.
       else quantile (Array.map float_of_int rt) 0.99 *. 1e-6);
    rt_worst_slack_us = (if !slack = infinity then 0. else !slack *. 1e6);
    rt_violations = !violations;
  }
