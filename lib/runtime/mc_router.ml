(* The multicore router. Structure:

   - each link is wrapped in a [port]: an input SPSC ring of [msg]
     (enqueue batches, dequeue requests, control ops, queries), an
     output SPSC ring of dequeued packets, and two reusable completion
     cells — one for synchronous requests, one dedicated to the
     overlappable dequeue;
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
   queries and dequeues block on a completion cell; enqueues may be
   posted cell-less (the adapter's always are), and what they refuse is
   added to the port's refusal count, read back by a query that queues
   behind them.

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
  | R_backlog of int * int
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
  | Q_backlog
  | Q_checkpoint
  | Q_config_fp
  | Q_refused
  | Q_fail (* served by raising: the fault-injection hook for tests *)

type msg =
  | M_nop (* ring dummy; never delivered *)
  | M_enqueue of {
      e_now : float;
      e_pkts : Pkt.Packet.t array;
      e_cell : cell option; (* None: fire-and-forget *)
    }
  | M_dequeue of { d_now : float; d_max : int; d_cell : cell }
  | M_exec of { x_now : float; x_op : Command.op; x_cell : cell }
  | M_query of { q : query; q_cell : cell }

(* one dequeued packet on the output ring *)
type deq = { dq_pkt : Pkt.Packet.t; dq_cls : string; dq_rt : bool }

let dummy_deq =
  {
    dq_pkt = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.;
    dq_cls = "";
    dq_rt = false;
  }

(* --- ports and workers -------------------------------------------------- *)

type port = {
  p_name : string;
  p_rate : float; (* remembered so a downed link can still report it *)
  p_backend : Config.backend; (* likewise *)
  p_eng : Engine.t; (* worker-owned between attach and stop *)
  p_in : msg Ring.t;
  p_out : deq Ring.t;
  p_worker : worker;
  p_cell : cell; (* reused by every synchronous (blocking) request *)
  (* dedicated reply cell for [M_dequeue]: a dequeue is the one request
     the producer may leave outstanding (post_dequeue/finish_dequeue),
     so its reply must not share [p_cell] with the synchronous ops the
     caller may legally issue in between — a shared cell would let a
     query's reply overwrite the pending dequeue count *)
  p_deq_cell : cell;
  mutable p_pending : bool; (* a dequeue is outstanding *)
  (* failure of a fire-and-forget message, set by the worker (first
     wins), observed by the producer on its next touch of this port *)
  p_fail : exn option Atomic.t;
  (* producer-side latch: once a failure is observed the link is down —
     every subsequent operation short-circuits to a degraded reply
     (typed [Link_failed], empty lists, zero counts) instead of raising
     into — and tearing down — whoever drives the router *)
  mutable p_down : exn option;
  (* packets refused by cell-less enqueues (a batch whose engine call
     raised counts whole); written by the worker only *)
  p_refused : int Atomic.t;
}

and worker = {
  w_admin : admin Ring.t;
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  w_parked : bool Atomic.t;
  mutable w_wake : bool; (* under [w_mutex] *)
  w_poison : exn option Atomic.t; (* async failure, reported later *)
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

(* out-ring pushes cannot block under the protocol (one outstanding
   dequeue per link, [d_max] clamped to the ring's capacity, ring
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
  | Q_info ->
      R_info
        {
          Router_core.i_rate = Engine.link_rate eng;
          i_backend =
            (match Engine.backend_kind eng with
            | Backend.Hfsc_kind -> Config.Hfsc_backend
            | Backend.Rr_kind -> Config.Rr_backend);
          i_classes = List.length (Engine.class_ids eng);
          i_flows = Engine.flow_count eng;
          i_backlog_pkts = Engine.backlog_pkts eng;
          i_backlog_bytes = Engine.backlog_bytes eng;
        }
  | Q_audit -> R_strings (Engine.audit eng)
  | Q_snapshot -> R_snapshot (Engine.snapshot eng)
  | Q_stats_text -> R_exec (Engine.stats_text eng ())
  | Q_stats_json -> R_json (Engine.stats_json eng)
  | Q_has_filter f -> R_bool (Engine.has_filter eng f)
  | Q_next_ready now -> R_next_ready (Engine.next_ready_time eng ~now)
  | Q_backlog -> R_backlog (Engine.backlog_pkts eng, Engine.backlog_bytes eng)
  | Q_checkpoint -> R_ops (Engine.checkpoint_ops eng)
  | Q_config_fp -> R_string (Engine.config_fingerprint eng)
  | Q_refused -> R_count (Atomic.get p.p_refused)
  | Q_fail -> raise Injected_failure

let refuse p k =
  if k > 0 then Atomic.set p.p_refused (Atomic.get p.p_refused + k)

(* serve one message on one port; [bcache] is the port's reusable
   dequeue batch, reallocated only when the burst size changes (same
   cadence as the sequential adapter, so audit ticks line up) *)
let serve_msg (p, bcache) msg =
  match msg with
  | M_nop -> ()
  | M_enqueue { e_now; e_pkts; e_cell } -> (
      match Engine.enqueue_flow_batch p.p_eng ~now:e_now e_pkts with
      | n -> (
          match e_cell with
          | Some c -> fill c (R_count n)
          | None -> refuse p (Array.length e_pkts - n))
      | exception e -> (
          match e_cell with
          | Some c -> fill c (R_raise e)
          | None ->
              (* fire-and-forget: count the batch refused and park the
                 failure on the port; the producer latches it into
                 [p_down] on its next touch *)
              refuse p (Array.length e_pkts);
              if Atomic.get p.p_fail = None then
                Atomic.set p.p_fail (Some e)))
  | M_dequeue { d_now; d_max; d_cell } -> (
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
      | n -> fill d_cell (R_count n)
      | exception e -> fill d_cell (R_raise e))
  | M_exec { x_now; x_op; x_cell } -> (
      match Engine.exec_op p.p_eng ~now:x_now x_op with
      | r -> fill x_cell (R_exec r)
      | exception e -> fill x_cell (R_raise e))
  | M_query { q; q_cell } -> (
      match serve_query p q with
      | r -> fill q_cell r
      | exception e -> fill q_cell (R_raise e))

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

let raise_poison w =
  match Atomic.get w.w_poison with
  | Some e ->
      Atomic.set w.w_poison None;
      raise e
  | None -> ()

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
   poisoned link cannot tear down the daemon serving the others.
   Producer-side usage errors (the outstanding-dequeue checks) stay
   outside this net: they are bugs in the driving code, not link
   failures. *)
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

let query p q =
  request p (M_query { q; q_cell = p.p_cell })

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
            match
              request p (M_exec { x_now = now; x_op = op; x_cell = p.p_cell })
            with
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

type t = {
  core : port Router_core.t;
  workers : worker array;
  mutable running : bool;
  attach : string -> float -> Config.backend -> Engine.t -> port;
      (* round-robin worker pick *)
}

let create ?trace_capacity ?tracing ?audit_every ?(ring_capacity = 1024)
    ?(out_capacity = 512) ~domains () =
  if domains < 1 then invalid_arg "Mc_router.create: domains must be >= 1";
  if ring_capacity < 1 then
    invalid_arg "Mc_router.create: ring_capacity must be >= 1";
  if out_capacity < 1 then
    invalid_arg "Mc_router.create: out_capacity must be >= 1";
  let workers = Array.init domains (fun _ -> mk_worker ()) in
  Array.iter
    (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_run w)))
    workers;
  let next = ref 0 in
  let attach name link_rate backend eng =
    let w = workers.(!next mod domains) in
    incr next;
    let p =
      {
        p_name = name;
        p_rate = link_rate;
        p_backend = backend;
        p_eng = eng;
        p_in = Ring.create ~capacity:ring_capacity ~dummy:M_nop;
        p_out = Ring.create ~capacity:out_capacity ~dummy:dummy_deq;
        p_worker = w;
        p_cell = cell ();
        p_deq_cell = cell ();
        p_pending = false;
        p_fail = Atomic.make None;
        p_down = None;
        p_refused = Atomic.make 0;
      }
    in
    push_admin w (A_attach p);
    worker_notify w;
    p
  in
  let make_port ~name ~link_rate ~backend =
    let eng =
      match backend with
      | Config.Hfsc_backend ->
          let sched = Hfsc.create ~link_rate () in
          Engine.create ?trace_capacity ?tracing ?audit_every ~link_rate sched
            ~flow_map:[] ()
      | Config.Rr_backend ->
          let sched = Sched.Hls.create () in
          Engine.create_rr ?trace_capacity ?tracing ?audit_every ~link_rate
            sched ~flow_map:[] ()
    in
    attach name link_rate backend eng
  in
  let core = Router_core.create ~ops:mc_ops ~make_port () in
  { core; workers; running = true; attach }

let of_config ?trace_capacity ?tracing ?audit_every ?ring_capacity ?out_capacity
    ~domains (cfg : Config.t) =
  let t =
    create ?trace_capacity ?tracing ?audit_every ?ring_capacity ?out_capacity
      ~domains ()
  in
  List.iter
    (fun (l : Config.link) ->
      let eng =
        Engine.of_built ?trace_capacity ?tracing ?audit_every
          ~link_rate:l.Config.lrate l.Config.lbuilt
      in
      (* built on this domain, handed to the worker through the admin
         ring's release/acquire publication before any use *)
      let p = t.attach l.Config.lname l.Config.lrate (Config.link_backend l) eng in
      let link = (l.Config.lname, p) in
      t.core.Router_core.links <- t.core.Router_core.links @ [ link ];
      Router_core.resync_flows t.core link)
    cfg.Config.links;
  Router_core.rebuild_shard t.core;
  t

let domains t = Array.length t.workers
let add_link ?(backend = Config.Hfsc_backend) t ~name ~link_rate =
  Router_core.add_link t.core ~name ~link_rate ~backend
let link_names t = List.map fst t.core.Router_core.links
let link_count t = Router_core.link_count t.core
let link_of_flow t flow = Router_core.link_of_flow t.core flow
let exec t ~now cmd = Router_core.exec t.core ~now cmd
let exec_script ?lenient t cmds = Router_core.exec_script ?lenient t.core cmds
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

(* --- the data path ------------------------------------------------------ *)

let enqueue_flow t ~now pkt =
  match Hashtbl.find_opt t.core.Router_core.flow_links pkt.Pkt.Packet.flow with
  | None -> false
  | Some (_, p) ->
      guard p
        ~failed:(fun _ -> false)
        (fun () ->
          match
            request p
              (M_enqueue
                 { e_now = now; e_pkts = [| pkt |]; e_cell = Some p.p_cell })
          with
          | R_count n -> n > 0
          | _ -> assert false)

(* split a batch into per-port sub-batches, preserving per-link order;
   buckets keep first-seen order so the await phase below is
   deterministic *)
let split_by_port t pkts =
  let buckets = ref [] in
  Array.iter
    (fun pkt ->
      match
        Hashtbl.find_opt t.core.Router_core.flow_links pkt.Pkt.Packet.flow
      with
      | None -> () (* unmapped flow: refused, as in the sequential router *)
      | Some (_, p) ->
          let b =
            match List.find_opt (fun (q, _) -> q == p) !buckets with
            | Some (_, r) -> r
            | None ->
                let r = ref [] in
                buckets := !buckets @ [ (p, r) ];
                r
          in
          b := pkt :: !b)
    pkts;
  List.map (fun (p, r) -> (p, Array.of_list (List.rev !r))) !buckets

let enqueue_flow_batch t ~now pkts =
  if Array.length pkts = 0 then 0
  else begin
    (* downed links contribute zero accepted packets — their sub-batch
       is dropped here, exactly as if every class queue refused it *)
    let buckets =
      List.filter
        (fun (p, _) -> Option.is_none (port_failure p))
        (split_by_port t pkts)
    in
    (* post every sub-batch first (the workers run concurrently), then
       collect every outcome *)
    List.iter
      (fun (p, arr) ->
        post p (M_enqueue { e_now = now; e_pkts = arr; e_cell = Some p.p_cell }))
      buckets;
    List.fold_left
      (fun acc (p, _) ->
        match await p.p_cell with
        | R_count n -> acc + n
        | exception e ->
            p.p_down <- Some e;
            acc
        | _ -> assert false)
      0 buckets
  end

(* [false] when the link is down (nothing was posted) *)
let post_enqueue p ~now pkts =
  match port_failure p with
  | Some _ -> false
  | None ->
      post p (M_enqueue { e_now = now; e_pkts = pkts; e_cell = None });
      true

let post_enqueue_batch t ~now pkts =
  List.iter
    (fun (p, arr) -> ignore (post_enqueue p ~now arr))
    (split_by_port t pkts)

(* [false] when the link is down (nothing was posted). The
   outstanding-dequeue check stays a hard [Invalid_argument]: it is a
   producer-side usage error, not a link failure. *)
let post_dequeue_port p ~now ~max =
  if p.p_pending then
    invalid_arg
      (Printf.sprintf "Mc_router: dequeue already outstanding on link %S"
         p.p_name);
  match port_failure p with
  | Some _ -> false
  | None ->
      let max = min max (Ring.capacity p.p_out) in
      post p (M_dequeue { d_now = now; d_max = max; d_cell = p.p_deq_cell });
      p.p_pending <- true;
      true

let finish_dequeue_port p ~f =
  if not p.p_pending then
    invalid_arg
      (Printf.sprintf "Mc_router: no dequeue outstanding on link %S" p.p_name);
  p.p_pending <- false;
  (* cleared before [await]: a worker-side exception must not wedge the
     port *)
  match await p.p_deq_cell with
  | R_count n ->
      for _ = 1 to n do
        match Ring.try_pop p.p_out with
        | Some d -> f ~pkt:d.dq_pkt ~cls:d.dq_cls ~rt:d.dq_rt
        | None -> assert false (* pushed before the cell was filled *)
      done;
      n
  | exception e ->
      p.p_down <- Some e;
      0
  | _ -> assert false

let post_dequeue t ~link ~now ~max =
  match Router_core.find_link t.core link with
  | None -> false
  | Some p -> post_dequeue_port p ~now ~max

let finish_dequeue t ~link ~f =
  match Router_core.find_link t.core link with
  | None -> invalid_arg "Mc_router.finish_dequeue: unknown link"
  | Some p -> finish_dequeue_port p ~f

let dequeue_batch t ~link ~now ~max ~f =
  if post_dequeue t ~link ~now ~max then finish_dequeue t ~link ~f else 0

let next_ready t ~link ~now =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p ->
      guard p
        ~failed:(fun _ -> None)
        (fun () ->
          match query p (Q_next_ready now) with
          | R_next_ready r -> r
          | _ -> assert false)

let backlog t ~link =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p ->
      guard p
        ~failed:(fun _ -> None)
        (fun () ->
          match query p Q_backlog with
          | R_backlog (n, b) -> Some (n, b)
          | _ -> assert false)

let adapter t ~link =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p ->
      let crit rt = if rt then "rt" else "ls" in
      let dequeue_many ~now ~max =
        if post_dequeue_port p ~now ~max then begin
          let acc = ref [] in
          let _n =
            finish_dequeue_port p ~f:(fun ~pkt ~cls ~rt ->
                acc := { Sched.Scheduler.pkt; cls; criterion = crit rt } :: !acc)
          in
          List.rev !acc
        end
        else []
      in
      Some
        {
          Sched.Scheduler.name = Config.backend_name p.p_backend;
          dequeue_many = Some dequeue_many;
          enqueue = (fun ~now pkt -> post_enqueue p ~now [| pkt |]);
          dequeue =
            (fun ~now ->
              if post_dequeue_port p ~now ~max:1 then begin
                let res = ref None in
                let _n =
                  finish_dequeue_port p ~f:(fun ~pkt ~cls ~rt ->
                      res :=
                        Some { Sched.Scheduler.pkt; cls; criterion = crit rt })
                in
                !res
              end
              else None);
          next_ready =
            (fun ~now ->
              guard p
                ~failed:(fun _ -> None)
                (fun () ->
                  match query p (Q_next_ready now) with
                  | R_next_ready r -> r
                  | _ -> assert false));
          backlog_pkts =
            (fun () ->
              guard p
                ~failed:(fun _ -> 0)
                (fun () ->
                  match query p Q_backlog with
                  | R_backlog (n, _) -> n
                  | _ -> assert false));
          backlog_bytes =
            (fun () ->
              guard p
                ~failed:(fun _ -> 0)
                (fun () ->
                  match query p Q_backlog with
                  | R_backlog (_, b) -> b
                  | _ -> assert false));
          deferred_drops =
            Some
              (fun () ->
                (* a stopped router or a downed link is not asked (its
                   worker may be gone): the count is read as published *)
                let published _ = Atomic.get p.p_refused in
                if not t.running then published ()
                else
                  guard p ~failed:published (fun () ->
                      match query p Q_refused with
                      | R_count n -> n
                      | _ -> assert false));
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
        match w.w_domain with
        | Some d ->
            Domain.join d;
            w.w_domain <- None
        | None -> ())
      t.workers;
    (* a worker that died catastrophically reports it now; so does a
       fire-and-forget failure the producer never observed (one it DID
       observe was already surfaced as a typed [Link_failed] reply and
       must not resurface as an exception at teardown) *)
    Array.iter raise_poison t.workers;
    List.iter
      (fun (_, p) ->
        if Option.is_none p.p_down then
          match Atomic.get p.p_fail with Some e -> raise e | None -> ())
      t.core.Router_core.links
  end;
  List.map (fun (name, p) -> (name, p.p_eng)) t.core.Router_core.links
