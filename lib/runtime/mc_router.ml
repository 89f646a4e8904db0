(* The multicore router. Structure:

   - each link is wrapped in a [port]: an input SPSC ring of [msg]
     (posted packets, dequeue requests, control ops, queries), an
     output SPSC ring of dequeued packets, and one reusable completion
     cell;
   - each worker domain owns a set of ports (round-robin assignment)
     plus an admin ring for attach/detach/stop, and loops: admin ring
     first, then one message per port per scan; idle workers spin
     briefly and then park on a condition variable (essential on
     few-core hosts, where a spinning worker starves the producer);
   - the control plane is {!Router_core} instantiated with ring-backed
     ops, so routing rules and reply strings are the sequential
     router's by construction.

   Determinism: each port's ring is FIFO and each port has one owning
   worker, so a link's engine observes operations in exactly the
   producer's issue order — the sequential router's order. Control ops,
   queries and dequeues block on the port's cell, and the producer waits
   for each reply before it issues anything else, so one cell is all a
   port needs. Enqueues never wait: each is posted, and what the worker
   refuses is added to the port's refusal count, read back by a query
   that queues behind every post.

   Memory model notes: ring publication is the SPSC ring's
   release/acquire pair (see {!Ds.Spsc_ring}); completion cells use a
   mutex + condvar, whose lock/unlock pair orders everything the worker
   wrote (including out-ring slots) before the producer's read.
   Parking uses the Dekker-style SC protocol: the worker sets
   [w_parked] and re-checks its rings; the producer pushes and then
   checks [w_parked]. Under sequential consistency one of the two
   always sees the other's write, so no wakeup is lost. *)

module Ring = Ds.Spsc_ring

(* --- completion cells -------------------------------------------------- *)

type reply =
  | R_exec of (string, Engine.error) result
  | R_count of int
  | R_bool of bool
  | R_flows of int list
  | R_rules of Classify.Rules.t
  | R_info of Router_core.info
  | R_strings of string list
  | R_snapshot of Telemetry.snapshot
  | R_json of Json_lite.t
  | R_next_ready of float option
  | R_ops of Command.op list
  | R_string of string
  | R_unit
  | R_raise of exn

type cell = { cm : Mutex.t; cc : Condition.t; mutable cv : reply option }

let cell () = { cm = Mutex.create (); cc = Condition.create (); cv = None }

let fill c r =
  Mutex.lock c.cm;
  c.cv <- Some r;
  Condition.signal c.cc;
  Mutex.unlock c.cm

let await c =
  Mutex.lock c.cm;
  let rec wait () =
    match c.cv with
    | Some r ->
        c.cv <- None;
        r
    | None ->
        Condition.wait c.cc c.cm;
        wait ()
  in
  let r = wait () in
  Mutex.unlock c.cm;
  match r with R_raise e -> raise e | r -> r

(* --- messages ----------------------------------------------------------- *)

exception Injected_failure

(* what every link of a stopped router is latched down with *)
exception Stopped

type query =
  | Q_flows
  | Q_class_flows of string
  | Q_rules
  | Q_info
  | Q_audit
  | Q_snapshot
  | Q_stats_text
  | Q_stats_json
  | Q_has_filter of int
  | Q_next_ready of float
  | Q_backlog_pkts
  | Q_backlog_bytes
  | Q_checkpoint
  | Q_config_fp
  | Q_refused
  | Q_fail (* served by raising: the fault-injection hook for tests *)

type msg =
  | M_nop (* ring dummy; never delivered *)
  | M_enqueue of { e_now : float; e_pkt : Pkt.Packet.t } (* never awaited *)
  | M_dequeue of { d_now : float; d_max : int }
  | M_exec of { x_now : float; x_op : Command.op }
  | M_query of query

(* one dequeued packet on the output ring *)
type deq = { dq_pkt : Pkt.Packet.t; dq_cls : string; dq_rt : bool }

let dummy_deq =
  {
    dq_pkt = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.;
    dq_cls = "";
    dq_rt = false;
  }

(* --- ports and workers -------------------------------------------------- *)

(* a link's input ring, and its output ring — the largest dequeue batch *)
let ring_capacity = 1024
let out_capacity = 512

type port = {
  p_name : string;
  p_rate : float; (* remembered so a downed link can still report it *)
  p_backend : Config.backend; (* likewise *)
  p_eng : Engine.t; (* worker-owned between attach and stop *)
  p_in : msg Ring.t;
  p_out : deq Ring.t;
  p_worker : worker;
  p_cell : cell; (* every awaited reply: one request is in flight at most *)
  (* failure of a posted enqueue, set by the worker (first wins),
     observed by the producer on its next touch of this port *)
  p_fail : exn option Atomic.t;
  (* producer-side latch: once a failure is observed the link is down —
     every subsequent operation short-circuits to a degraded reply
     (typed [Link_failed], empty lists, zero counts) instead of raising
     into — and tearing down — whoever drives the router *)
  mutable p_down : exn option;
  (* packets refused by posted enqueues (one whose engine call raised
     included); written by the worker only *)
  p_refused : int Atomic.t;
}

and worker = {
  w_admin : admin Ring.t;
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  w_parked : bool Atomic.t;
  mutable w_wake : bool; (* under [w_mutex] *)
  (* async failure, reported later; [Stopped] once the router stops *)
  w_poison : exn option Atomic.t;
  mutable w_domain : unit Domain.t option;
}

and admin =
  | A_nop (* ring dummy *)
  | A_attach of port
  | A_detach of { dt_port : port; dt_cell : cell }
  | A_stop

let mk_worker () =
  {
    w_admin = Ring.create ~capacity:64 ~dummy:A_nop;
    w_mutex = Mutex.create ();
    w_cond = Condition.create ();
    w_parked = Atomic.make false;
    w_wake = false;
    w_poison = Atomic.make None;
    w_domain = None;
  }

let poison w e =
  match Atomic.get w.w_poison with
  | None -> Atomic.set w.w_poison (Some e)
  | Some _ -> () (* first failure wins *)

(* --- the worker domain -------------------------------------------------- *)

(* out-ring pushes cannot block under the protocol (one request in
   flight per link, [d_max] clamped to the ring's capacity, ring
   drained before the next request); the spin is belt-and-braces *)
let rec push_out p v =
  if not (Ring.try_push p.p_out v) then begin
    Domain.cpu_relax ();
    push_out p v
  end

let serve_query p q =
  let eng = p.p_eng in
  match q with
  | Q_flows -> R_flows (Engine.flows eng)
  | Q_class_flows cls -> R_flows (Engine.class_flows eng cls)
  | Q_rules -> R_rules (Engine.rules eng)
  | Q_info -> R_info (Router_core.engine_info eng)
  | Q_audit -> R_strings (Engine.audit eng)
  | Q_snapshot -> R_snapshot (Engine.snapshot eng)
  | Q_stats_text -> R_exec (Engine.stats_text eng ())
  | Q_stats_json -> R_json (Engine.stats_json eng)
  | Q_has_filter f -> R_bool (Engine.has_filter eng f)
  | Q_next_ready now -> R_next_ready (Engine.next_ready_time eng ~now)
  | Q_backlog_pkts -> R_count (Engine.backlog_pkts eng)
  | Q_backlog_bytes -> R_count (Engine.backlog_bytes eng)
  | Q_checkpoint -> R_ops (Engine.checkpoint_ops eng)
  | Q_config_fp -> R_string (Engine.config_fingerprint eng)
  | Q_refused -> R_count (Atomic.get p.p_refused)
  | Q_fail -> raise Injected_failure

(* the worker is the count's only writer *)
let refuse p = Atomic.set p.p_refused (Atomic.get p.p_refused + 1)

(* serve one message on one port; [bcache] is the port's reusable
   dequeue batch, reallocated only when the burst size changes (same
   cadence as the sequential adapter, so audit ticks line up) *)
let serve_msg (p, bcache) msg =
  match msg with
  | M_nop -> ()
  | M_enqueue { e_now; e_pkt } -> (
      match Engine.enqueue_flow p.p_eng ~now:e_now e_pkt with
      | true -> ()
      | false -> refuse p
      | exception e ->
          (* count the packet refused and park the failure on the port;
             the producer latches it into [p_down] on its next touch *)
          refuse p;
          if Atomic.get p.p_fail = None then Atomic.set p.p_fail (Some e))
  | M_dequeue { d_now; d_max } -> (
      match
        if d_max <= 0 then 0
        else begin
          if Backend.batch_capacity !bcache <> d_max then
            bcache := Backend.batch ~capacity:d_max ();
          let b = !bcache in
          let n = Engine.dequeue_batch p.p_eng ~now:d_now b in
          for i = 0 to n - 1 do
            push_out p
              {
                dq_pkt = Backend.batch_pkt b i;
                dq_cls = Engine.class_name p.p_eng (Backend.batch_id b i);
                dq_rt = Backend.batch_realtime b i;
              }
          done;
          n
        end
      with
      | n -> fill p.p_cell (R_count n)
      | exception e -> fill p.p_cell (R_raise e))
  | M_exec { x_now; x_op } -> (
      match Engine.exec_op p.p_eng ~now:x_now x_op with
      | r -> fill p.p_cell (R_exec r)
      | exception e -> fill p.p_cell (R_raise e))
  | M_query q -> (
      match serve_query p q with
      | r -> fill p.p_cell r
      | exception e -> fill p.p_cell (R_raise e))

let worker_body w =
  let ports = ref [] in
  let running = ref true in
  let drain_port ((p, _) as pb) =
    let rec go () =
      match Ring.try_pop p.p_in with
      | Some m ->
          serve_msg pb m;
          go ()
      | None -> ()
    in
    go ()
  in
  let handle_admin = function
    | A_nop -> ()
    | A_attach p ->
        ports := !ports @ [ (p, ref (Backend.batch ~capacity:1 ())) ]
    | A_detach { dt_port; dt_cell } ->
        (match List.find_opt (fun (p, _) -> p == dt_port) !ports with
        | Some pb ->
            drain_port pb;
            ports := List.filter (fun (p, _) -> p != dt_port) !ports
        | None -> ());
        fill dt_cell R_unit
    | A_stop ->
        List.iter drain_port !ports;
        running := false
  in
  (* one scan: admin ring, then one message per port (round-robin
     across the worker's links, so no link starves another) *)
  let step () =
    let did = ref false in
    (match Ring.try_pop w.w_admin with
    | Some a ->
        did := true;
        handle_admin a
    | None -> ());
    if !running then
      List.iter
        (fun ((p, _) as pb) ->
          match Ring.try_pop p.p_in with
          | Some m ->
              did := true;
              serve_msg pb m
          | None -> ())
        !ports;
    !did
  in
  let has_work () =
    (not (Ring.is_empty w.w_admin))
    || List.exists (fun (p, _) -> not (Ring.is_empty p.p_in)) !ports
  in
  while !running do
    if not (step ()) then begin
      (* brief spin for sub-microsecond turnaround, then park *)
      let spins = ref 0 in
      while !spins < 64 && not (has_work ()) do
        incr spins;
        Domain.cpu_relax ()
      done;
      if not (has_work ()) then begin
        Atomic.set w.w_parked true;
        (* re-check after publishing the parked flag (Dekker) *)
        if has_work () then Atomic.set w.w_parked false
        else begin
          Mutex.lock w.w_mutex;
          while not (w.w_wake || has_work ()) do
            Condition.wait w.w_cond w.w_mutex
          done;
          w.w_wake <- false;
          Mutex.unlock w.w_mutex;
          Atomic.set w.w_parked false
        end
      end
    end
  done

(* [serve_msg] and [handle_admin] contain every engine call behind a
   per-message catch, so this outer net only fires on something
   catastrophic (OOM, a broken ring invariant). It must not let the
   domain die silently: a dead worker's rings never drain, so every
   port it owned is marked unreachable via [w_poison] and the producer
   degrades those links instead of blocking forever. *)
let worker_run w =
  try worker_body w with e -> poison w e

(* --- the producer side -------------------------------------------------- *)

let worker_notify w =
  if Atomic.get w.w_parked then begin
    Mutex.lock w.w_mutex;
    w.w_wake <- true;
    Condition.signal w.w_cond;
    Mutex.unlock w.w_mutex
  end

let rec push_msg p m =
  if not (Ring.try_push p.p_in m) then begin
    (* ring full: the worker may be parked with a full ring only
       transiently; wake it and retry *)
    worker_notify p.p_worker;
    Domain.cpu_relax ();
    push_msg p m
  end

let post p m =
  push_msg p m;
  worker_notify p.p_worker

let rec push_admin w a =
  if not (Ring.try_push w.w_admin a) then begin
    worker_notify w;
    Domain.cpu_relax ();
    push_admin w a
  end

(* Has this link failed? Checks the producer-side latch first, then
   failures parked by the worker ([p_fail]) and worker death
   ([w_poison], which downs every port that worker owned — its rings
   will never drain again), latching what it finds into [p_down] so
   the verdict is sticky. *)
let port_failure p =
  match p.p_down with
  | Some _ as e -> e
  | None -> (
      let e =
        match Atomic.get p.p_fail with
        | Some _ as e -> e
        | None -> Atomic.get p.p_worker.w_poison
      in
      match e with
      | Some _ ->
          p.p_down <- e;
          e
      | None -> None)

(* Run one port operation with graceful degradation: a downed link
   answers [failed] without touching its ring, and a failure raised by
   the operation itself (the worker replying [R_raise]) downs the link
   and answers [failed] — never raising into the caller, so one
   poisoned link cannot tear down the daemon serving the others. *)
let guard p ~failed f =
  match port_failure p with
  | Some e -> failed e
  | None -> (
      try f ()
      with e ->
        p.p_down <- Some e;
        failed e)

let request p m =
  post p m;
  await p.p_cell

let query p q = request p (M_query q)

let down_error p e =
  Error
    {
      Engine.code = Engine.Link_failed;
      message =
        Printf.sprintf "link %S is down: %s" p.p_name (Printexc.to_string e);
    }

(* --- Router_core over ring ports ---------------------------------------- *)

let mc_ops : port Router_core.ops =
  {
    Router_core.op_exec =
      (fun p ~now op ->
        guard p
          ~failed:(fun e -> down_error p e)
          (fun () ->
            match request p (M_exec { x_now = now; x_op = op }) with
            | R_exec r -> r
            | _ -> assert false));
    op_flows =
      (fun p ->
        guard p
          ~failed:(fun _ -> [])
          (fun () ->
            match query p Q_flows with R_flows l -> l | _ -> assert false));
    op_class_flows =
      (fun p cls ->
        guard p
          ~failed:(fun _ -> [])
          (fun () ->
            match query p (Q_class_flows cls) with
            | R_flows l -> l
            | _ -> assert false));
    op_rules =
      (fun p ->
        guard p
          ~failed:(fun _ -> Classify.Rules.create [])
          (fun () ->
            match query p Q_rules with R_rules r -> r | _ -> assert false));
    op_has_filter =
      (fun p f ->
        guard p
          ~failed:(fun _ -> false)
          (fun () ->
            match query p (Q_has_filter f) with
            | R_bool b -> b
            | _ -> assert false));
    op_info =
      (fun p ->
        guard p
          ~failed:(fun _ ->
            {
              Router_core.i_rate = p.p_rate;
              i_backend = p.p_backend;
              i_classes = 0;
              i_flows = 0;
              i_backlog_pkts = 0;
              i_backlog_bytes = 0;
            })
          (fun () ->
            match query p Q_info with R_info i -> i | _ -> assert false));
    op_audit =
      (fun p ->
        guard p
          ~failed:(fun e ->
            [
              Printf.sprintf "worker failed (%s); link marked down"
                (Printexc.to_string e);
            ])
          (fun () ->
            match query p Q_audit with R_strings l -> l | _ -> assert false));
    op_stats_json =
      (fun p ->
        guard p
          ~failed:(fun e ->
            Json_lite.Obj [ ("down", Json_lite.Str (Printexc.to_string e)) ])
          (fun () ->
            match query p Q_stats_json with
            | R_json j -> j
            | _ -> assert false));
    op_stats_text =
      (fun p ->
        guard p
          ~failed:(fun e -> down_error p e)
          (fun () ->
            match query p Q_stats_text with
            | R_exec r -> r
            | _ -> assert false));
    op_checkpoint =
      (fun p ->
        (* a downed link's configuration is unreadable: the checkpoint
           keeps the link itself (its [link add]) and nothing below it *)
        guard p
          ~failed:(fun _ -> [])
          (fun () ->
            match query p Q_checkpoint with R_ops l -> l | _ -> assert false));
    op_config_fp =
      (fun p ->
        guard p
          ~failed:(fun e -> "down(" ^ Printexc.to_string e ^ ")")
          (fun () ->
            match query p Q_config_fp with
            | R_string s -> s
            | _ -> assert false));
    op_retire =
      (fun p ->
        (* through the admin ring so the worker drains the port's input
           ring before letting go of it — unless the worker itself is
           dead, in which case the handshake would hang forever *)
        if Atomic.get p.p_worker.w_poison = None then begin
          let c = cell () in
          push_admin p.p_worker (A_detach { dt_port = p; dt_cell = c });
          worker_notify p.p_worker;
          match await c with R_unit -> () | _ -> assert false
        end);
  }

(* A port on worker [w] for a freshly built engine — still on this
   domain, handed to the worker through the admin ring's
   release/acquire publication before any use. A dead or stopped
   worker never drains that ring: the port is left unattached, and
   [port_failure] already reports it down. *)
let port_on w ~name eng =
  let i = Router_core.engine_info eng in
  let p =
    {
      p_name = name;
      p_rate = i.Router_core.i_rate;
      p_backend = i.Router_core.i_backend;
      p_eng = eng;
      p_in = Ring.create ~capacity:ring_capacity ~dummy:M_nop;
      p_out = Ring.create ~capacity:out_capacity ~dummy:dummy_deq;
      p_worker = w;
      p_cell = cell ();
      p_fail = Atomic.make None;
      p_down = None;
      p_refused = Atomic.make 0;
    }
  in
  if Atomic.get w.w_poison = None then begin
    push_admin w (A_attach p);
    worker_notify w
  end;
  p

type t = {
  core : port Router_core.t;
  workers : worker array;
  mutable running : bool;
}

(* Spawn the workers, then build the device with [build], whose links
   are assigned to workers round-robin. *)
let spawn ~domains build =
  if domains < 1 then invalid_arg "Mc_router.create: domains must be >= 1";
  let workers = Array.init domains (fun _ -> mk_worker ()) in
  Array.iter
    (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_run w)))
    workers;
  let next = ref 0 in
  let port ~name eng =
    let w = workers.(!next mod domains) in
    incr next;
    port_on w ~name eng
  in
  { core = build ~ops:mc_ops ~port; workers; running = true }

let create ?trace_capacity ?tracing ?audit_every ~domains () =
  spawn ~domains (fun ~ops ~port ->
      Router_core.create ?trace_capacity ?tracing ?audit_every ~ops ~port ())

let of_config ?trace_capacity ?tracing ?audit_every ~domains cfg =
  spawn ~domains (fun ~ops ~port ->
      Router_core.of_config ?trace_capacity ?tracing ?audit_every ~ops ~port
        cfg)

let domains t = Array.length t.workers
let add_link ?(backend = Config.Hfsc_backend) t ~name ~link_rate =
  Router_core.add_link t.core ~name ~link_rate ~backend
let link_names t = List.map fst t.core.Router_core.links
let link_count t = Router_core.link_count t.core
let link_of_flow t flow = Router_core.link_of_flow t.core flow
let exec t ~now cmd = Router_core.exec t.core ~now cmd
let audit t = Router_core.audit t.core

let snapshot t ~link =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p ->
      guard p
        ~failed:(fun _ -> None)
        (fun () ->
          match query p Q_snapshot with
          | R_snapshot s -> Some s
          | _ -> assert false)

(* --- fault injection & health ------------------------------------------- *)

let link_down t ~link =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p -> Option.map Printexc.to_string (port_failure p)

let inject_failure t ~link =
  match Router_core.find_link t.core link with
  | None -> false
  | Some p ->
      (* the worker serves [Q_fail] by raising, so the ordinary failure
         path — R_raise reply, producer latch — is what downs the link *)
      guard p ~failed:(fun _ -> ()) (fun () -> ignore (query p Q_fail));
      true

(* --- the data path: the simulator adapter ------------------------------ *)

(* [false] when the link is down (nothing was posted) *)
let post_enqueue p ~now pkt =
  match port_failure p with
  | Some _ -> false
  | None ->
      post p (M_enqueue { e_now = now; e_pkt = pkt });
      true

(* Ask the owning worker for up to [max] packets and hand each to [f]
   in service order; 0 on a downed link. *)
let dequeue_port p ~now ~max ~f =
  match port_failure p with
  | Some _ -> 0
  | None -> (
      post p (M_dequeue { d_now = now; d_max = min max out_capacity });
      match await p.p_cell with
      | R_count n ->
          for _ = 1 to n do
            match Ring.try_pop p.p_out with
            | Some d -> f d
            | None -> assert false (* pushed before the cell was filled *)
          done;
          n
      | exception e ->
          p.p_down <- Some e;
          0
      | _ -> assert false)

let adapter t ~link =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p ->
      let served d =
        {
          Sched.Scheduler.pkt = d.dq_pkt;
          cls = d.dq_cls;
          criterion = (if d.dq_rt then "rt" else "ls");
        }
      in
      let count q ~failed =
        guard p ~failed (fun () ->
            match query p q with R_count n -> n | _ -> assert false)
      in
      Some
        {
          Sched.Scheduler.name = Config.backend_name p.p_backend;
          enqueue = (fun ~now pkt -> post_enqueue p ~now pkt);
          dequeue =
            (fun ~now ->
              let res = ref None in
              ignore
                (dequeue_port p ~now ~max:1 ~f:(fun d ->
                     res := Some (served d)));
              !res);
          dequeue_many =
            Some
              (fun ~now ~max ->
                let acc = ref [] in
                ignore
                  (dequeue_port p ~now ~max ~f:(fun d ->
                       acc := served d :: !acc));
                List.rev !acc);
          next_ready =
            (fun ~now ->
              guard p
                ~failed:(fun _ -> None)
                (fun () ->
                  match query p (Q_next_ready now) with
                  | R_next_ready r -> r
                  | _ -> assert false));
          backlog_pkts = (fun () -> count Q_backlog_pkts ~failed:(fun _ -> 0));
          backlog_bytes =
            (fun () -> count Q_backlog_bytes ~failed:(fun _ -> 0));
          (* a downed link — every link of a stopped router among them —
             is not asked (its worker may be gone): the count is read as
             published *)
          deferred_drops =
            Some
              (fun () ->
                count Q_refused ~failed:(fun _ -> Atomic.get p.p_refused));
        }

(* --- exporters ---------------------------------------------------------- *)

let stats_json t = Router_core.stats_json t.core
let stats_text t = Router_core.stats_text t.core
let checkpoint t = Router_core.checkpoint t.core
let config_fingerprint t = Router_core.config_fingerprint t.core

let stop t =
  if t.running then begin
    t.running <- false;
    Array.iter
      (fun w ->
        push_admin w A_stop;
        worker_notify w)
      t.workers;
    Array.iter
      (fun w ->
        Option.iter Domain.join w.w_domain;
        w.w_domain <- None)
      t.workers;
    (* a worker that died catastrophically reports it now; so does a
       posted enqueue's failure the producer never observed (one it DID
       observe was already surfaced as a typed [Link_failed] reply and
       must not resurface as an exception at teardown) *)
    let unobserved =
      match Array.find_map (fun w -> Atomic.get w.w_poison) t.workers with
      | Some _ as e -> e
      | None ->
          List.find_map
            (fun (_, p) ->
              if p.p_down = None then Atomic.get p.p_fail else None)
            t.core.Router_core.links
    in
    (* no worker is left to serve a port: every link, and any link
       added from now on, is down, so later calls take the degraded
       answers instead of waiting on a ring nobody drains *)
    Array.iter (fun w -> Atomic.set w.w_poison (Some Stopped)) t.workers;
    Option.iter raise unobserved
  end;
  List.map (fun (name, p) -> (name, p.p_eng)) t.core.Router_core.links
