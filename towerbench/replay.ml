(* The layered replay: one recorded tower op stream pushed through
   stacks of increasing height, all built from one device script, so
   each layer's self-cost is the difference between two adjacent rows.
   Every row must dequeue exactly the (flow, seq) sequence the recorded
   run did. *)

open Util
module R = Runtime
module C = R.Command

(* Rows, bottom up. [loop] drives no scheduler at all: it is the replay
   loop's own cost. *)
let rows = [ "loop"; "sched"; "backend"; "engine"; "telemetry"; "router"; "adapter"; "mc_router" ]
let layer_rows = List.tl rows

(* The row each layer calls into, whose cost its self-cost excludes.
   [router] and [adapter] both sit on the traced engine: the simulator
   reaches a link's engine through [Engine.adapter] without the router's
   flow directory, which only [Router.enqueue_flow] consults. *)
let base = function
  | "sched" -> "loop"
  | "backend" -> "sched"
  | "engine" -> "backend"
  | "telemetry" -> "engine"
  | "router" | "adapter" -> "telemetry"
  | "mc_router" -> "adapter"
  | r -> invalid_arg ("Replay.base: " ^ r)

(* One link's entry points at the row's layer. *)
type ops = {
  enq : float -> Pkt.Packet.t -> unit;
  deq : float -> unit;
  nr : float -> unit;
}

type row = { ops : ops array; finish : unit -> unit }

type result = { ns_per_op : float; words_per_op : float; digest : int; pkts : int }

(* A class add of the build script: the op itself (for the layers that
   execute commands) and its fields (for those that do not). *)
type add = {
  op : C.op;
  name : string;
  parent : string;
  flow : int option;
  curves : C.curve_updates;
  quantum : int option;
  qlimit : int option;
  qbytes : int option;
}

(* The link-scoped class adds of the build script, per link. *)
let link_adds (spec : Spec.device) =
  let cmds = List.map Spec.parse_exn (Spec.build_lines spec) in
  List.map
    (fun (l : Spec.link) ->
      List.filter_map
        (fun (c : C.t) ->
          match (c.C.target, c.C.op) with
          | C.On_link n, (C.Add_class a as op) when n = l.Spec.lname ->
              Some
                {
                  op;
                  name = a.name;
                  parent = a.parent;
                  flow = a.flow;
                  curves = a.curves;
                  quantum = a.quantum;
                  qlimit = a.qlimit;
                  qbytes = a.qbytes;
                }
          | _ -> None)
        cmds)
    spec

let build_row name (spec : Spec.device) ~digest ~pkts =
  let nflows = Array.length (Spec.leaves spec) in
  let dig (p : Pkt.Packet.t) =
    digest := mix (mix !digest p.Pkt.Packet.flow) p.Pkt.Packet.seq;
    incr pkts
  in
  let adds = link_adds spec in
  let each f = { ops = Array.of_list (List.map2 f spec adds); finish = ignore } in
  let per_flow root = Array.make nflows root in
  let engine_row ~tracing =
    each (fun (l : Spec.link) adds ->
        let rate = float_of_int l.Spec.rate in
        let be =
          match l.Spec.backend with
          | Spec.Hfsc -> R.Backend.of_hfsc ~link_rate:rate (Hfsc.create ~link_rate:rate ())
          | Spec.Rr -> R.Backend.of_hls ~link_rate:rate (Sched.Hls.create ())
        in
        let eng = R.Engine.create_backend ~tracing be ~flow_map:[] () in
        List.iter
          (fun a ->
            match R.Engine.exec_op eng ~now:0. a.op with
            | Ok _ -> ()
            | Error e -> fail "engine row: %s" (R.Engine.error_message e))
          adds;
        {
          enq = (fun now p -> ignore (R.Engine.enqueue_flow eng ~now p));
          deq =
            (fun now ->
              match R.Engine.dequeue eng ~now with
              | Some (p, _, _) -> dig p
              | None -> ());
          nr = (fun now -> ignore (R.Engine.next_ready_time eng ~now));
        })
  in
  let scheduler_row (s : Sched.Scheduler.t) =
    {
      enq = (fun now p -> ignore (s.Sched.Scheduler.enqueue ~now p));
      deq =
        (fun now ->
          List.iter
            (fun (x : Sched.Scheduler.served) -> dig x.Sched.Scheduler.pkt)
            (Sched.Scheduler.dequeue_burst s ~now ~max:1));
      nr = (fun now -> ignore (s.Sched.Scheduler.next_ready ~now));
    }
  in
  match name with
  | "loop" -> each (fun _ _ -> { enq = (fun _ _ -> ()); deq = ignore; nr = ignore })
  | "sched" ->
      each (fun (l : Spec.link) adds ->
          let rate = float_of_int l.Spec.rate in
          match l.Spec.backend with
          | Spec.Hfsc ->
              let h = Hfsc.create ~link_rate:rate () in
              let byname = Hashtbl.create 64 in
              Hashtbl.replace byname "root" (Hfsc.root h);
              let cls = per_flow (Hfsc.root h) in
              List.iter
                (fun a ->
                  let c =
                    Hfsc.add_class h ~parent:(Hashtbl.find byname a.parent)
                      ~name:a.name ?rsc:a.curves.C.rsc ?fsc:a.curves.C.fsc
                      ?usc:a.curves.C.usc ?qlimit:a.qlimit ?qlimit_bytes:a.qbytes ()
                  in
                  Hashtbl.replace byname a.name c;
                  Option.iter (fun f -> cls.(f) <- c) a.flow)
                adds;
              {
                enq = (fun now p -> ignore (Hfsc.enqueue h ~now cls.(p.Pkt.Packet.flow) p));
                deq =
                  (fun now ->
                    match Hfsc.dequeue h ~now with Some (p, _, _) -> dig p | None -> ());
                nr = (fun now -> ignore (Hfsc.next_ready_time h ~now));
              }
          | Spec.Rr ->
              let h = Sched.Hls.create () in
              let byname = Hashtbl.create 64 in
              Hashtbl.replace byname "root" (Sched.Hls.root h);
              let cls = per_flow (Sched.Hls.root h) in
              List.iter
                (fun a ->
                  let c =
                    Sched.Hls.add_class h ~parent:(Hashtbl.find byname a.parent)
                      ~name:a.name ?quantum:a.quantum ?qlimit_pkts:a.qlimit
                      ?qlimit_bytes:a.qbytes ()
                  in
                  Hashtbl.replace byname a.name c;
                  Option.iter (fun f -> cls.(f) <- c) a.flow)
                adds;
              {
                enq =
                  (fun now p -> ignore (Sched.Hls.enqueue h ~now cls.(p.Pkt.Packet.flow) p));
                deq =
                  (fun now ->
                    match Sched.Hls.dequeue h ~now with Some (p, _) -> dig p | None -> ());
                nr = (fun now -> ignore (Sched.Hls.next_ready_time h ~now));
              })
  | "backend" ->
      each (fun (l : Spec.link) adds ->
          let rate = float_of_int l.Spec.rate in
          let be =
            match l.Spec.backend with
            | Spec.Hfsc -> R.Backend.of_hfsc ~link_rate:rate (Hfsc.create ~link_rate:rate ())
            | Spec.Rr -> R.Backend.of_hls ~link_rate:rate (Sched.Hls.create ())
          in
          let byname = Hashtbl.create 64 in
          Hashtbl.replace byname "root" 0;
          let ids = Array.make nflows 0 in
          List.iter
            (fun a ->
              let params =
                {
                  R.Backend.rsc = a.curves.C.rsc;
                  fsc = a.curves.C.fsc;
                  usc = a.curves.C.usc;
                  quantum = a.quantum;
                }
              in
              match
                be.R.Backend.add_class ~parent:(Hashtbl.find byname a.parent)
                  ~name:a.name params ~qlimit:a.qlimit ~qbytes:a.qbytes
              with
              | Ok id ->
                  Hashtbl.replace byname a.name id;
                  Option.iter (fun f -> ids.(f) <- id) a.flow
              | Error e -> fail "backend row: %s" (R.Backend.error_message e))
            adds;
          let out = be.R.Backend.out in
          {
            enq = (fun now p -> ignore (be.R.Backend.enqueue ~now ids.(p.Pkt.Packet.flow) p));
            deq = (fun now -> if be.R.Backend.dequeue ~now then dig out.R.Backend.o_pkt);
            nr = (fun now -> ignore (be.R.Backend.next_ready ~now));
          })
  | "engine" -> engine_row ~tracing:false
  | "telemetry" -> engine_row ~tracing:true
  | "router" | "adapter" ->
      let r = R.Router.create () in
      List.iter
        (fun line ->
          match R.Router.exec r ~now:0. (Spec.parse_exn line) with
          | Ok _ -> ()
          | Error e -> fail "router row: %s" (R.Engine.error_message e))
        (Spec.build_lines spec);
      let engs = Array.of_list (List.map snd (R.Router.links r)) in
      if name = "adapter" then
        { ops = Array.map (fun e -> scheduler_row (R.Engine.adapter e)) engs; finish = ignore }
      else
        {
          ops =
            Array.map
              (fun eng ->
                {
                  enq = (fun now p -> ignore (R.Router.enqueue_flow r ~now p));
                  deq =
                    (fun now ->
                      match R.Engine.dequeue eng ~now with
                      | Some (p, _, _) -> dig p
                      | None -> ());
                  nr = (fun now -> ignore (R.Engine.next_ready_time eng ~now));
                })
              engs;
          finish = ignore;
        }
  | "mc_router" ->
      let d, _ = Tower.build Tower.Mc spec in
      {
        ops = Array.of_list (List.map (fun (_, s) -> scheduler_row s) (d.Tower.scheds ()));
        finish = d.Tower.stop;
      }
  | other -> fail "unknown replay row %s" other

(* The packets the recorded enqueues carried, rebuilt once and shared by
   every row (packets are immutable). *)
let packets (st : Tower.stream) =
  let dummy = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0. in
  Array.init st.Tower.n (fun i ->
      if Bytes.get st.Tower.kind i = '\000' then
        Pkt.Packet.make ~flow:st.Tower.flow.(i) ~size:st.Tower.size.(i)
          ~seq:st.Tower.seq.(i) ~arrival:st.Tower.now.(i)
      else dummy)

(* Build [name]'s stack (untimed), replay the whole stream (timed). *)
let run name spec (st : Tower.stream) pkts =
  let digest = ref digest_init and npkts = ref 0 in
  let row = build_row name spec ~digest ~pkts:npkts in
  let ops = row.ops in
  let n = st.Tower.n in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    let o = Array.unsafe_get ops (Array.unsafe_get st.Tower.link i) in
    let now = Array.unsafe_get st.Tower.now i in
    match Bytes.unsafe_get st.Tower.kind i with
    | '\000' -> o.enq now (Array.unsafe_get pkts i)
    | '\001' -> o.deq now
    | _ -> o.nr now
  done;
  let ns = now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  row.finish ();
  {
    ns_per_op = float_of_int ns /. float_of_int (max 1 n);
    words_per_op = words /. float_of_int (max 1 n);
    digest = !digest;
    pkts = !npkts;
  }
