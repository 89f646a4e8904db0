module Sc = Curve.Service_curve

(* The typed errors live in {!Backend} now (every backend speaks the
   same refusal language); re-exported here so existing consumers keep
   compiling and matching. *)

type error_code = Backend.error_code =
  | Parse_error
  | Unknown_class
  | Duplicate_class
  | Unknown_flow
  | Duplicate_flow
  | Admission_realtime
  | Admission_linkshare
  | Admission_ulimit
  | Class_active
  | Structural
  | Bad_value
  | Unknown_link
  | Duplicate_link
  | Cross_link_filter
  | Link_failed

type error = Backend.error = { code : error_code; message : string }

let error_code = Backend.error_code
let error_message = Backend.error_message
let error_code_name = Backend.error_code_name
let parse_error = Backend.parse_error
let errf = Backend.errf

exception Audit_failure of string list

type t = {
  be : Backend.t;
  link_rate : float;
  tele : Telemetry.t;
  flows : int Ds.Int_table.t; (* flow id -> class id *)
  (* the inverse of [flows], kept in step with it: class id -> the flows
     mapped to that class (unordered, never empty; a class without flows
     has no entry), so a class delete or checkpoint never scans [flows] *)
  by_class : (int, int list) Hashtbl.t;
  (* in match order; the spec is retained alongside the compiled rule
     so a checkpoint can re-emit the exact [attach filter] command *)
  mutable filters : (Command.filter_spec * Classify.Rules.rule) list;
  mutable table : Classify.Rules.t;
  audit_every : int; (* <= 0 disables the periodic invariant audit *)
  mutable ops : int; (* ops since the last audit *)
}

let announce t id =
  Telemetry.ensure_class t.tele ~id;
  Telemetry.set_rsc t.tele ~id (t.be.Backend.params id).rsc

let map_flow t flow id =
  Ds.Int_table.replace t.flows flow id;
  Hashtbl.replace t.by_class id
    (flow :: Option.value ~default:[] (Hashtbl.find_opt t.by_class id))

let class_flows_of t id =
  List.sort Int.compare (Option.value ~default:[] (Hashtbl.find_opt t.by_class id))

let create_backend ?trace_capacity ?tracing ?(audit_every = 0)
    (be : Backend.t) ~flow_map () =
  let t =
    {
      be;
      link_rate = be.Backend.link_rate;
      tele = Telemetry.create ?trace_capacity ?tracing ();
      flows = Ds.Int_table.create 16;
      by_class = Hashtbl.create 16;
      filters = [];
      table = Classify.Rules.create [];
      audit_every;
      ops = 0;
    }
  in
  List.iter (announce t) (Backend.class_ids be);
  List.iter
    (fun (flow, id) ->
      if not (Backend.is_leaf be id) then
        invalid_arg "Engine.create: flow mapped to interior class";
      if Ds.Int_table.mem t.flows flow then
        invalid_arg "Engine.create: duplicate flow id";
      map_flow t flow id)
    flow_map;
  (* every drop — refused arrival or eviction — lands in telemetry,
     charged to the queue that lost the packet *)
  Backend.set_drop_hook be (fun now id pkt ->
      Telemetry.ensure_class t.tele ~id;
      Telemetry.note_drop t.tele ~id ~now ~size:pkt.Pkt.Packet.size
        ~flow:pkt.Pkt.Packet.flow ~seq:pkt.Pkt.Packet.seq);
  t

let create ?trace_capacity ?tracing ?audit_every ~link_rate sched ~flow_map ()
    =
  let be = Backend.of_hfsc ~link_rate sched in
  let flow_map = List.map (fun (f, cls) -> (f, Hfsc.id cls)) flow_map in
  create_backend ?trace_capacity ?tracing ?audit_every be ~flow_map ()

let create_link ?trace_capacity ?audit_every ~link_rate kind =
  let be =
    match (kind : Backend.kind) with
    | Backend.Hfsc_kind ->
        Backend.of_hfsc ~link_rate (Hfsc.create ~link_rate ())
    | Backend.Rr_kind -> Backend.of_hls ~link_rate (Sched.Hls.create ())
  in
  create_backend ?trace_capacity ?audit_every be ~flow_map:[] ()

let backend t = t.be
let backend_kind t = t.be.Backend.kind

let scheduler t =
  match t.be.Backend.raw_hfsc with
  | Some s -> s
  | None -> invalid_arg "Engine.scheduler: not an hfsc-backend engine"

let snapshot t = Telemetry.snapshot t.tele
let drain_trace t sink = Trace_log.Sink.drain sink t.tele
let link_rate t = t.link_rate
let flow_class t flow = Ds.Int_table.find_opt t.flows flow

let flows t =
  Ds.Int_table.fold (fun f _ acc -> f :: acc) t.flows []
  |> List.sort Int.compare

let flow_count t = Ds.Int_table.length t.flows

let class_flows t name =
  match Backend.find_id t.be name with
  | Some id -> class_flows_of t id
  | None -> []

let rules t = t.table

let has_filter t flow =
  List.exists (fun (_, r) -> Classify.Rules.flow_of r = flow) t.filters

let filter_count t = List.length t.filters

(* --- link views (any backend) --------------------------------------- *)

let next_ready_time t ~now = t.be.Backend.next_ready ~now
let backlog_pkts t = Backend.backlog_pkts t.be
let backlog_bytes t = Backend.backlog_bytes t.be

(* --- invariant auditor --------------------------------------------- *)

let audit t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let live = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace live id ()) (Backend.class_ids t.be);
  Ds.Int_table.iter
    (fun flow id ->
      if not (Hashtbl.mem live id) then
        err "flow %d maps to removed class %d" flow id
      else if not (Backend.is_leaf t.be id) then
        err "flow %d maps to interior class %S" flow (Backend.cls_name t.be id);
      match Hashtbl.find_opt t.by_class id with
      | Some fs when List.mem flow fs -> ()
      | _ -> err "flow %d missing from class %d's flow index" flow id)
    t.flows;
  (* every flow is in its class's index entry, so equal sizes leave no
     room for a stale or duplicated entry *)
  let indexed = Hashtbl.fold (fun _ fs n -> n + List.length fs) t.by_class 0 in
  if indexed <> Ds.Int_table.length t.flows then
    err "flow index holds %d entries for %d mapped flows" indexed
      (Ds.Int_table.length t.flows);
  t.be.Backend.audit () @ List.rev !errs

let maybe_audit t =
  if t.audit_every > 0 then begin
    t.ops <- t.ops + 1;
    if t.ops >= t.audit_every then begin
      t.ops <- 0;
      match audit t with [] -> () | errs -> raise (Audit_failure errs)
    end
  end

(* --- command execution --------------------------------------------- *)

let ( let* ) = Result.bind

let find t name =
  match Backend.find_id t.be name with
  | Some id -> Ok id
  | None -> errf Unknown_class "unknown class %S" name

(* Printf's [%h] and [%S] without the format interpreter: [%h] is the
   primitive Printf calls, at its default precision -6 ("as many digits
   as needed") with sign flag '-' (none); [%S] is the escaped string in
   double quotes. *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

let add_hex_float b x = Buffer.add_string b (hexstring_of_float x (-6) '-')

let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

(* A class op's reply, [VERB class "NAME"], for the caller to finish. *)
let class_reply verb name =
  let b = Buffer.create 64 in
  Buffer.add_string b verb;
  Buffer.add_string b " class ";
  add_quoted b name;
  b

let params_of (a : Command.curve_updates) quantum =
  { Backend.rsc = a.rsc; fsc = a.fsc; usc = a.usc; quantum }

let exec_add t (a : Command.curve_updates) ~name ~parent ~flow ~quantum
    ~qlimit ~qbytes =
  let* () =
    match Backend.find_id t.be name with
    | Some _ -> errf Duplicate_class "class %S already exists" name
    | None -> Ok ()
  in
  let* parent_id = find t parent in
  let* () =
    match flow with
    | Some f when Ds.Int_table.mem t.flows f ->
        errf Duplicate_flow "flow %d is already mapped" f
    | _ -> Ok ()
  in
  let p = params_of a quantum in
  let* () = t.be.Backend.admit_add ~parent:parent_id ~name p in
  let* id = t.be.Backend.add_class ~parent:parent_id ~name p ~qlimit ~qbytes in
  announce t id;
  (match flow with Some f -> map_flow t f id | None -> ());
  let b = class_reply "added" name in
  Buffer.add_string b " (id ";
  Command.add_int b id;
  Buffer.add_string b ") under ";
  add_quoted b parent;
  (match flow with
  | Some f ->
      Buffer.add_string b ", flow ";
      Command.add_int b f
  | None -> ());
  Ok (Buffer.contents b)

let exec_modify t (a : Command.curve_updates) ~name ~quantum ~qlimit ~qbytes =
  let* id = find t name in
  let p = params_of a quantum in
  let* () = t.be.Backend.admit_modify ~id ~name p in
  let* () = t.be.Backend.modify_class ~id p ~qlimit ~qbytes in
  (match a.rsc with
  | Some _ -> Telemetry.set_rsc t.tele ~id (t.be.Backend.params id).rsc
  | None -> ());
  Ok (Buffer.contents (class_reply "modified" name))

let exec_delete t ~name =
  let* id = find t name in
  let* () = t.be.Backend.remove_class ~id in
  let dead = class_flows_of t id in
  List.iter (Ds.Int_table.remove t.flows) dead;
  Hashtbl.remove t.by_class id;
  let b = class_reply "deleted" name in
  (match dead with
  | [] -> ()
  | f :: fs ->
      Buffer.add_string b
        (if fs = [] then " (unmapped flow " else " (unmapped flows ");
      Command.add_int b f;
      List.iter
        (fun f ->
          Buffer.add_string b ", ";
          Command.add_int b f)
        fs;
      Buffer.add_char b ')');
  Ok (Buffer.contents b)

let rebuild_table t =
  t.table <- Classify.Rules.create (List.map snd t.filters)

let exec_attach t (f : Command.filter_spec) =
  let* () =
    if Ds.Int_table.mem t.flows f.fflow then Ok ()
    else errf Unknown_flow "filter flow %d is not mapped to a class" f.fflow
  in
  let* rule =
    try
      Ok
        (Classify.Rules.rule ?src:f.fsrc ?dst:f.fdst ?proto:f.fproto
           ?sport:f.fsport ?dport:f.fdport ~flow:f.fflow ())
    with Invalid_argument e -> Error { code = Bad_value; message = e }
  in
  t.filters <- t.filters @ [ (f, rule) ];
  rebuild_table t;
  Ok
    (Printf.sprintf "attached filter -> flow %d (%d filter%s)" f.fflow
       (List.length t.filters)
       (if List.length t.filters > 1 then "s" else ""))

let exec_detach t flow =
  let keep, dropped =
    List.partition (fun (_, r) -> Classify.Rules.flow_of r <> flow) t.filters
  in
  match dropped with
  | [] -> errf Unknown_flow "no filter attached to flow %d" flow
  | _ ->
      t.filters <- keep;
      rebuild_table t;
      Ok
        (Printf.sprintf "detached %d filter%s from flow %d"
           (List.length dropped)
           (if List.length dropped > 1 then "s" else "")
           flow)

let exec_limit t ~lpkts ~lbytes ~lpolicy =
  let conv = function
    | Some Command.Unlimited -> Ok (Some max_int)
    | Some (Command.At n) ->
        if n <= 0 then errf Bad_value "limit must be positive, got %d" n
        else Ok (Some n)
    | None -> Ok None
  in
  (* validate both bounds before touching the scheduler so the command
     applies atomically or not at all *)
  let* pkts = conv lpkts in
  let* bytes = conv lbytes in
  Backend.set_aggregate t.be ~pkts ~bytes;
  (match lpolicy with
  | Some Command.Policy_tail -> Backend.set_policy t.be Hfsc.Tail_drop
  | Some Command.Policy_longest -> Backend.set_policy t.be Hfsc.Drop_longest
  | None -> ());
  let show n = if n = max_int then "none" else string_of_int n in
  Ok
    (Printf.sprintf "limit pkts=%s bytes=%s policy=%s"
       (show (Backend.aggregate_pkts t.be))
       (show (Backend.aggregate_bytes t.be))
       (match Backend.policy t.be with
       | Hfsc.Tail_drop -> "tail"
       | Hfsc.Drop_longest -> "longest"))

(* --- stats --------------------------------------------------------- *)

let curve_json = function
  | None -> Json_lite.Null
  | Some (s : Sc.t) ->
      Json_lite.Obj
        [
          ("m1", Json_lite.Num s.Sc.m1);
          ("d", Json_lite.Num s.Sc.d);
          ("m2", Json_lite.Num s.Sc.m2);
        ]

let class_json t id =
  let c = Telemetry.counters t.tele ~id in
  let be = t.be in
  let cp = be.Backend.params id in
  Json_lite.Obj
    ([
       ("name", Json_lite.Str (Backend.cls_name be id));
       ("id", Json_lite.Num (float_of_int id));
       ( "parent",
         match Backend.parent_id be id with
         | Some p -> Json_lite.Str (Backend.cls_name be p)
         | None -> Json_lite.Null );
       ("leaf", Json_lite.Bool (Backend.is_leaf be id));
       ("rsc", curve_json cp.rsc);
       ("fsc", curve_json cp.fsc);
       ("usc", curve_json cp.usc);
     ]
    (* the quantum field appears only on rr backends, so hfsc output
       stays byte-identical to the pre-interface engine *)
    @ (match cp.quantum with
      | Some q -> [ ("quantum", Json_lite.Num (float_of_int q)) ]
      | None -> [])
    @ [
        ( "queue_pkts",
          Json_lite.Num (float_of_int (Backend.queue_length be id)) );
        ( "queue_bytes",
          Json_lite.Num (float_of_int (Backend.queue_bytes be id)) );
      ]
    @ Telemetry.counters_fields c)

let stats_json t =
  Json_lite.Obj
    ([ ("schema", Json_lite.Str "hfsc-runtime-stats/1") ]
    @ (match t.be.Backend.kind with
      | Backend.Hfsc_kind -> []
      | Backend.Rr_kind -> [ ("backend", Json_lite.Str "rr") ])
    @ [
        ("link_rate_Bps", Json_lite.Num t.link_rate);
        ( "classes",
          Json_lite.List (List.map (class_json t) (Backend.class_ids t.be))
        );
        ( "trace",
          Json_lite.Obj
            [
              ( "capacity",
                Json_lite.Num (float_of_int (Telemetry.trace_capacity t.tele))
              );
              ( "recorded",
                Json_lite.Num (float_of_int (Telemetry.recorded_total t.tele))
              );
              ( "dropped_events",
                Json_lite.Num (float_of_int (Telemetry.dropped_events t.tele))
              );
            ] );
      ])

let class_line b t id c =
  Printf.bprintf b
    "%-12s %5d/%-10d rt %7d/%-11d ls %7d/%-11d drop %-5d miss %-5d hiw %d/%d\n"
    (Backend.cls_name t.be id) c.Telemetry.enq_pkts c.Telemetry.enq_bytes
    c.Telemetry.rt_pkts c.Telemetry.rt_bytes c.Telemetry.ls_pkts
    c.Telemetry.ls_bytes c.Telemetry.drop_pkts c.Telemetry.deadline_misses
    c.Telemetry.hiwater_pkts c.Telemetry.hiwater_bytes

(* Ring overflow is an operational fact, not just a JSON field: the
   stats table an operator reads must say when the trace stopped being
   complete and how much of it is gone. *)
let trace_line b t =
  let recorded = Telemetry.recorded_total t.tele in
  let cap = Telemetry.trace_capacity t.tele in
  let over = Telemetry.dropped_events t.tele in
  Printf.bprintf b "trace: recorded %d, ring capacity %d, overwritten %d%s\n"
    recorded cap over
    (if over > 0 then " (oldest events lost; spill to disk to keep them)"
     else "")

let stats_text t ?cls () =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "%-12s %-16s %-22s %-22s %-10s %-10s %s\n" "class" "enq p/B" "rt p/B"
    "ls p/B" "drops" "misses" "hiwater p/B";
  match cls with
  | Some name ->
      let* id = find t name in
      class_line b t id (Telemetry.counters t.tele ~id);
      Ok (Buffer.contents b)
  | None ->
      List.iter
        (fun id -> class_line b t id (Telemetry.counters t.tele ~id))
        (Backend.class_ids t.be);
      trace_line b t;
      Ok (Buffer.contents b)

(* --- exec ---------------------------------------------------------- *)

let exec_op t ~now op =
  ignore now;
  let r =
    match (op : Command.op) with
    | Add_class { name; parent; flow; curves; quantum; qlimit; qbytes } ->
        exec_add t curves ~name ~parent ~flow ~quantum ~qlimit ~qbytes
    | Modify_class { name; curves; quantum; qlimit; qbytes } ->
        exec_modify t curves ~name ~quantum ~qlimit ~qbytes
    | Delete_class name -> exec_delete t ~name
    | Attach_filter f -> exec_attach t f
    | Detach_filter flow -> exec_detach t flow
    | Stats cls -> stats_text t ?cls ()
    | Trace Trace_on ->
        Telemetry.set_tracing t.tele true;
        Ok "trace on"
    | Trace Trace_off ->
        Telemetry.set_tracing t.tele false;
        Ok "trace off"
    | Trace Trace_dump -> Ok (Telemetry.trace_text t.tele)
    | Set_limit { lpkts; lbytes; lpolicy } ->
        exec_limit t ~lpkts ~lbytes ~lpolicy
    | Link_add _ | Link_delete _ | Link_list ->
        errf Structural
          "link management needs a router control plane (this is a \
           single-link engine)"
  in
  maybe_audit t;
  r

let exec t ~now { Command.target; op } =
  match target with
  | Command.Default_link -> exec_op t ~now op
  | Command.On_link name ->
      errf Unknown_link
        "unknown link %S (single-link engine; 'link NAME' scopes need a \
         router)"
        name

(* --- checkpoint & config fingerprint ------------------------------- *)

(* Smallest flow id mapped to [id], if any. A class grown through the
   command grammar has at most one flow; config-built multi-flow classes
   lose the extras in a checkpoint, which {!config_fingerprint} (hashing
   the full map) makes visible rather than silent. *)
let flow_for t id =
  match Hashtbl.find_opt t.by_class id with
  | Some (f :: fs) -> Some (List.fold_left min f fs)
  | Some [] | None -> None

(* Replaying these ops into a fresh engine over the same link rate and
   backend rebuilds the control plane exactly: classes in creation
   order (parents always precede children), both rsc and fsc emitted
   explicitly (neutralising add_class's fsc-defaults-to-rsc) — or the
   quantum on an rr backend — leaf queue limits always spelled out,
   the aggregate limit and policy re-asserted, filters re-attached in
   match order. Dynamic scheduler state (virtual times, deficits,
   backlog, telemetry) is deliberately absent — recovery does not
   resurrect in-flight packets. *)
let checkpoint_ops t =
  let be = t.be in
  let class_ops =
    List.filter_map
      (fun id ->
        match Backend.parent_id be id with
        | None -> None (* the root comes with the link *)
        | Some parent ->
            let leaf = Backend.is_leaf be id in
            let cp = be.Backend.params id in
            Some
              (Command.Add_class
                 {
                   name = Backend.cls_name be id;
                   parent = Backend.cls_name be parent;
                   flow = (if leaf then flow_for t id else None);
                   curves =
                     {
                       Command.rsc = cp.rsc;
                       fsc = cp.fsc;
                       usc = cp.usc;
                     };
                   quantum = cp.quantum;
                   qlimit =
                     (if leaf then Some (Backend.queue_limit_pkts be id)
                      else None);
                   qbytes =
                     (if leaf && Backend.queue_limit_bytes be id < max_int
                      then Some (Backend.queue_limit_bytes be id)
                      else None);
                 }))
      (Backend.class_ids be)
  in
  let lim n = if n = max_int then Command.Unlimited else Command.At n in
  let limit_op =
    Command.Set_limit
      {
        lpkts = Some (lim (Backend.aggregate_pkts be));
        lbytes = Some (lim (Backend.aggregate_bytes be));
        lpolicy =
          Some
            (match Backend.policy be with
            | Hfsc.Tail_drop -> Command.Policy_tail
            | Hfsc.Drop_longest -> Command.Policy_longest);
      }
  in
  let filter_ops =
    List.map (fun (f, _) -> Command.Attach_filter f) t.filters
  in
  class_ops @ (limit_op :: filter_ops)

(* Digest of the control-plane configuration only — everything a
   checkpoint persists and nothing it doesn't. Must NOT fold in
   virtual times, backlog or telemetry: recovery drops in-flight
   packets by design, and "recovered state == replay oracle" is
   judged by this digest. The text is what [%h] (exact floats), [%S]
   and [%d] once printed, and it must stay so: it is the preimage of
   digests already on disk. The hfsc text is byte-identical to the
   pre-interface engine; rr links stamp their backend on the rate line
   and a quantum per class. *)
let config_fingerprint t =
  let be = t.be in
  let b = Buffer.create 512 in
  let str = Buffer.add_string b in
  let int = Command.add_int b in
  let hex = add_hex_float b in
  let quoted = add_quoted b in
  str "rate ";
  hex t.link_rate;
  (match be.Backend.kind with
  | Backend.Hfsc_kind -> str "\n"
  | Backend.Rr_kind -> str " backend rr\n");
  List.iter
    (fun id ->
      let leaf = Backend.is_leaf be id in
      let cp = be.Backend.params id in
      str "class ";
      quoted (Backend.cls_name be id);
      str " parent ";
      (match Backend.parent_id be id with
      | Some p -> quoted (Backend.cls_name be p)
      | None -> str "-");
      str (if leaf then " leaf true" else " leaf false");
      (match be.Backend.kind with
      | Backend.Hfsc_kind ->
          let curve tag = function
            | None -> str tag; str " -"
            | Some (s : Sc.t) ->
                str tag; str " "; hex s.Sc.m1; str "/"; hex s.Sc.d; str "/";
                hex s.Sc.m2
          in
          curve " rsc" cp.rsc;
          curve " fsc" cp.fsc;
          curve " usc" cp.usc
      | Backend.Rr_kind -> (
          match cp.quantum with
          | Some q -> str " quantum "; int q
          | None -> ()));
      if leaf then begin
        str " qlimit "; int (Backend.queue_limit_pkts be id);
        str " qbytes "; int (Backend.queue_limit_bytes be id)
      end;
      str "\n")
    (Backend.class_ids be);
  str "agg "; int (Backend.aggregate_pkts be);
  str " "; int (Backend.aggregate_bytes be);
  str
    (match Backend.policy be with
    | Hfsc.Tail_drop -> " tail\n"
    | Hfsc.Drop_longest -> " longest\n");
  List.iter
    (fun f ->
      str "flow "; int f; str " -> ";
      quoted (Backend.cls_name be (Ds.Int_table.find t.flows f));
      str "\n")
    (flows t);
  List.iter
    (fun (f, _) ->
      str "filter ";
      Command.to_buffer b
        { Command.target = Command.Default_link; op = Command.Attach_filter f };
      str "\n")
    t.filters;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the data path -------------------------------------------------- *)

let enqueue t ~now id pkt =
  let admitted = t.be.Backend.enqueue ~now id pkt in
  (* drops (refusals and evictions alike) reach telemetry through the
     scheduler's drop hook, charged to the queue that lost the packet *)
  if admitted then begin
    let q = Backend.queue t.be id in
    Telemetry.note_enqueue t.tele ~id ~now ~size:pkt.Pkt.Packet.size
      ~flow:pkt.Pkt.Packet.flow ~seq:pkt.Pkt.Packet.seq
      ~qlen:(Ds.Fifo_queue.length q) ~qbytes:(Ds.Fifo_queue.bytes q)
  end;
  maybe_audit t;
  admitted

(* [find], not [find_opt]: the hit path of the per-packet flow lookup
   must not allocate an option *)
let enqueue_flow t ~now pkt =
  match Ds.Int_table.find t.flows pkt.Pkt.Packet.flow with
  | id -> enqueue t ~now id pkt
  | exception Not_found -> false

(* The one dequeue under both entry points: the backend's, plus
   telemetry and the audit tick; the packet stays in the backend's
   [out]. *)
let serve t ~now =
  let served = t.be.Backend.dequeue ~now in
  if served then begin
    let o = t.be.Backend.out in
    let pkt = o.Pkt.Served.o_pkt in
    Telemetry.note_dequeue t.tele ~id:o.o_id ~now ~size:pkt.Pkt.Packet.size
      ~flow:pkt.Pkt.Packet.flow ~seq:pkt.Pkt.Packet.seq
      ~arrival:pkt.Pkt.Packet.arrival ~realtime:o.o_rt
  end;
  maybe_audit t;
  served

let dequeue t ~now =
  if serve t ~now then
    let o = t.be.Backend.out in
    Some (o.o_pkt, o.o_id, if o.o_rt then Hfsc.Realtime else Hfsc.Linkshare)
  else None

let adapter t =
  let o = t.be.Backend.out in
  {
    Sched.Scheduler.name = Backend.kind_name t.be.Backend.kind ^ "-runtime";
    enqueue = (fun ~now p -> enqueue_flow t ~now p);
    dequeue =
      (fun ~now ->
        if serve t ~now then
          Some
            {
              Sched.Scheduler.pkt = o.o_pkt;
              cls = Backend.cls_name t.be o.o_id;
              criterion = (if o.o_rt then "rt" else "ls");
            }
        else None);
    dequeue_many = None;
    next_ready = (fun ~now -> t.be.Backend.next_ready ~now);
    backlog_pkts = (fun () -> Backend.backlog_pkts t.be);
    backlog_bytes = (fun () -> Backend.backlog_bytes t.be);
    deferred_drops = None;
  }
