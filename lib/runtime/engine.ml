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
  flows : (int, int) Hashtbl.t; (* flow id -> class id *)
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
  Telemetry.set_rsc t.tele ~id (t.be.Backend.rsc id)

let map_flow t flow id =
  Hashtbl.replace t.flows flow id;
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
      flows = Hashtbl.create 16;
      by_class = Hashtbl.create 16;
      filters = [];
      table = Classify.Rules.create [];
      audit_every;
      ops = 0;
    }
  in
  List.iter (announce t) (be.Backend.class_ids ());
  List.iter
    (fun (flow, id) ->
      if not (be.Backend.is_leaf id) then
        invalid_arg "Engine.create: flow mapped to interior class";
      if Hashtbl.mem t.flows flow then
        invalid_arg "Engine.create: duplicate flow id";
      map_flow t flow id)
    flow_map;
  (* every drop — refused arrival or eviction — lands in telemetry,
     charged to the queue that lost the packet *)
  be.Backend.set_drop_hook (fun now id pkt ->
      Telemetry.ensure_class t.tele ~id;
      Telemetry.note_drop t.tele ~id ~now ~size:pkt.Pkt.Packet.size
        ~flow:pkt.Pkt.Packet.flow ~seq:pkt.Pkt.Packet.seq);
  t

let create ?trace_capacity ?tracing ?audit_every ~link_rate sched ~flow_map ()
    =
  let be = Backend.of_hfsc ~link_rate sched in
  let flow_map = List.map (fun (f, cls) -> (f, Hfsc.id cls)) flow_map in
  create_backend ?trace_capacity ?tracing ?audit_every be ~flow_map ()

let create_rr ?trace_capacity ?tracing ?audit_every ~link_rate sched ~flow_map
    () =
  let be = Backend.of_hls ~link_rate sched in
  let flow_map = List.map (fun (f, cls) -> (f, Sched.Hls.id cls)) flow_map in
  create_backend ?trace_capacity ?tracing ?audit_every be ~flow_map ()

let of_built ?trace_capacity ?tracing ?audit_every ~link_rate built =
  match (built : Config.built) with
  | Config.Built_hfsc (sched, flow_map) ->
      create ?trace_capacity ?tracing ?audit_every ~link_rate sched ~flow_map
        ()
  | Config.Built_rr (sched, flow_map) ->
      create_rr ?trace_capacity ?tracing ?audit_every ~link_rate sched
        ~flow_map ()

let create_link ?trace_capacity ?tracing ?audit_every ~link_rate backend =
  match (backend : Config.backend) with
  | Config.Hfsc_backend ->
      create ?trace_capacity ?tracing ?audit_every ~link_rate
        (Hfsc.create ~link_rate ()) ~flow_map:[] ()
  | Config.Rr_backend ->
      create_rr ?trace_capacity ?tracing ?audit_every ~link_rate
        (Sched.Hls.create ()) ~flow_map:[] ()

let of_config ?trace_capacity ?tracing ?audit_every (cfg : Config.t) =
  let first = List.hd cfg.Config.links in
  of_built ?trace_capacity ?tracing ?audit_every
    ~link_rate:first.Config.lrate first.Config.lbuilt

let backend t = t.be
let backend_kind t = t.be.Backend.kind

let scheduler t =
  match t.be.Backend.raw_hfsc with
  | Some s -> s
  | None -> invalid_arg "Engine.scheduler: not an hfsc-backend engine"

let snapshot t = Telemetry.snapshot t.tele
let link_rate t = t.link_rate
let flow_class t flow = Hashtbl.find_opt t.flows flow

let flows t =
  Hashtbl.fold (fun f _ acc -> f :: acc) t.flows [] |> List.sort Int.compare

let flow_count t = Hashtbl.length t.flows

let class_flows t name =
  match t.be.Backend.find_id name with
  | Some id -> class_flows_of t id
  | None -> []

let rules t = t.table

let has_filter t flow =
  List.exists (fun (_, r) -> Classify.Rules.flow_of r = flow) t.filters

let filter_count t = List.length t.filters

(* --- generic class views (any backend) ------------------------------ *)

let class_ids t = t.be.Backend.class_ids ()
let class_name t id = t.be.Backend.cls_name id
let class_queue_length t id = t.be.Backend.queue_length id
let class_queue_bytes t id = t.be.Backend.queue_bytes id
let find_class_id t name = t.be.Backend.find_id name
let next_ready_time t ~now = t.be.Backend.next_ready ~now
let backlog_pkts t = t.be.Backend.backlog_pkts ()
let backlog_bytes t = t.be.Backend.backlog_bytes ()

(* --- invariant auditor --------------------------------------------- *)

let audit t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let live = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace live id ()) (t.be.Backend.class_ids ());
  Hashtbl.iter
    (fun flow id ->
      if not (Hashtbl.mem live id) then
        err "flow %d maps to removed class %d" flow id
      else if not (t.be.Backend.is_leaf id) then
        err "flow %d maps to interior class %S" flow (t.be.Backend.cls_name id);
      match Hashtbl.find_opt t.by_class id with
      | Some fs when List.mem flow fs -> ()
      | _ -> err "flow %d missing from class %d's flow index" flow id)
    t.flows;
  (* every flow is in its class's index entry, so equal sizes leave no
     room for a stale or duplicated entry *)
  let indexed = Hashtbl.fold (fun _ fs n -> n + List.length fs) t.by_class 0 in
  if indexed <> Hashtbl.length t.flows then
    err "flow index holds %d entries for %d mapped flows" indexed
      (Hashtbl.length t.flows);
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
  match t.be.Backend.find_id name with
  | Some id -> Ok id
  | None -> errf Unknown_class "unknown class %S" name

let params_of (a : Command.curve_updates) quantum =
  { Backend.rsc = a.rsc; fsc = a.fsc; usc = a.usc; quantum }

let exec_add t (a : Command.curve_updates) ~name ~parent ~flow ~quantum
    ~qlimit ~qbytes =
  let* () =
    match t.be.Backend.find_id name with
    | Some _ -> errf Duplicate_class "class %S already exists" name
    | None -> Ok ()
  in
  let* parent_id = find t parent in
  let* () =
    match flow with
    | Some f when Hashtbl.mem t.flows f ->
        errf Duplicate_flow "flow %d is already mapped" f
    | _ -> Ok ()
  in
  let p = params_of a quantum in
  let* () = t.be.Backend.admit_add ~parent:parent_id ~name p in
  let* id = t.be.Backend.add_class ~parent:parent_id ~name p ~qlimit ~qbytes in
  announce t id;
  (match flow with Some f -> map_flow t f id | None -> ());
  Ok
    (Printf.sprintf "added class %S (id %d) under %S%s" name id parent
       (match flow with
       | Some f -> Printf.sprintf ", flow %d" f
       | None -> ""))

let exec_modify t (a : Command.curve_updates) ~name ~quantum ~qlimit ~qbytes =
  let* id = find t name in
  let p = params_of a quantum in
  let* () = t.be.Backend.admit_modify ~id ~name p in
  let* () = t.be.Backend.modify_class ~id p ~qlimit ~qbytes in
  (match a.rsc with
  | Some _ -> Telemetry.set_rsc t.tele ~id (t.be.Backend.rsc id)
  | None -> ());
  Ok (Printf.sprintf "modified class %S" name)

let exec_delete t ~name =
  let* id = find t name in
  let* () = t.be.Backend.remove_class ~id in
  let dead = class_flows_of t id in
  List.iter (Hashtbl.remove t.flows) dead;
  Hashtbl.remove t.by_class id;
  Ok
    (Printf.sprintf "deleted class %S%s" name
       (match dead with
       | [] -> ""
       | fs ->
           Printf.sprintf " (unmapped flow%s %s)"
             (if List.length fs > 1 then "s" else "")
             (String.concat ", " (List.map string_of_int fs))))

let rebuild_table t =
  t.table <- Classify.Rules.create (List.map snd t.filters)

let exec_attach t (f : Command.filter_spec) =
  let* () =
    if Hashtbl.mem t.flows f.fflow then Ok ()
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
  t.be.Backend.set_aggregate ~pkts ~bytes;
  (match lpolicy with
  | Some Command.Policy_tail -> t.be.Backend.set_policy Hfsc.Tail_drop
  | Some Command.Policy_longest -> t.be.Backend.set_policy Hfsc.Drop_longest
  | None -> ());
  let show n = if n = max_int then "none" else string_of_int n in
  Ok
    (Printf.sprintf "limit pkts=%s bytes=%s policy=%s"
       (show (t.be.Backend.aggregate_pkts ()))
       (show (t.be.Backend.aggregate_bytes ()))
       (match t.be.Backend.policy () with
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
  Json_lite.Obj
    ([
       ("name", Json_lite.Str (be.Backend.cls_name id));
       ("id", Json_lite.Num (float_of_int id));
       ( "parent",
         match be.Backend.parent_id id with
         | Some p -> Json_lite.Str (be.Backend.cls_name p)
         | None -> Json_lite.Null );
       ("leaf", Json_lite.Bool (be.Backend.is_leaf id));
       ("rsc", curve_json (be.Backend.rsc id));
       ("fsc", curve_json (be.Backend.fsc id));
       ("usc", curve_json (be.Backend.usc id));
     ]
    (* the quantum field appears only on rr backends, so hfsc output
       stays byte-identical to the pre-interface engine *)
    @ (match be.Backend.quantum id with
      | Some q -> [ ("quantum", Json_lite.Num (float_of_int q)) ]
      | None -> [])
    @ [
        ("queue_pkts", Json_lite.Num (float_of_int (be.Backend.queue_length id)));
        ("queue_bytes", Json_lite.Num (float_of_int (be.Backend.queue_bytes id)));
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
          Json_lite.List (List.map (class_json t) (t.be.Backend.class_ids ()))
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
    (t.be.Backend.cls_name id) c.Telemetry.enq_pkts c.Telemetry.enq_bytes
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
        (t.be.Backend.class_ids ());
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

let exec_script ?(lenient = false) t cmds =
  let rec go acc = function
    | [] -> List.rev acc
    | (at, cmd) :: rest -> (
        let r = exec t ~now:at cmd in
        let acc = (at, cmd, r) :: acc in
        match r with
        | Error _ when not lenient -> List.rev acc
        | _ -> go acc rest)
  in
  go [] cmds

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
        match be.Backend.parent_id id with
        | None -> None (* the root comes with the link *)
        | Some parent ->
            let leaf = be.Backend.is_leaf id in
            Some
              (Command.Add_class
                 {
                   name = be.Backend.cls_name id;
                   parent = be.Backend.cls_name parent;
                   flow = (if leaf then flow_for t id else None);
                   curves =
                     {
                       Command.rsc = be.Backend.rsc id;
                       fsc = be.Backend.fsc id;
                       usc = be.Backend.usc id;
                     };
                   quantum = be.Backend.quantum id;
                   qlimit =
                     (if leaf then Some (be.Backend.queue_limit_pkts id)
                      else None);
                   qbytes =
                     (if leaf && be.Backend.queue_limit_bytes id < max_int
                      then Some (be.Backend.queue_limit_bytes id)
                      else None);
                 }))
      (be.Backend.class_ids ())
  in
  let lim n = if n = max_int then Command.Unlimited else Command.At n in
  let limit_op =
    Command.Set_limit
      {
        lpkts = Some (lim (be.Backend.aggregate_pkts ()));
        lbytes = Some (lim (be.Backend.aggregate_bytes ()));
        lpolicy =
          Some
            (match be.Backend.policy () with
            | Hfsc.Tail_drop -> Command.Policy_tail
            | Hfsc.Drop_longest -> Command.Policy_longest);
      }
  in
  let filter_ops =
    List.map (fun (f, _) -> Command.Attach_filter f) t.filters
  in
  class_ops @ (limit_op :: filter_ops)

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
      let leaf = be.Backend.is_leaf id in
      str "class ";
      quoted (be.Backend.cls_name id);
      str " parent ";
      (match be.Backend.parent_id id with
      | Some p -> quoted (be.Backend.cls_name p)
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
          curve " rsc" (be.Backend.rsc id);
          curve " fsc" (be.Backend.fsc id);
          curve " usc" (be.Backend.usc id)
      | Backend.Rr_kind -> (
          match be.Backend.quantum id with
          | Some q -> str " quantum "; int q
          | None -> ()));
      if leaf then begin
        str " qlimit "; int (be.Backend.queue_limit_pkts id);
        str " qbytes "; int (be.Backend.queue_limit_bytes id)
      end;
      str "\n")
    (be.Backend.class_ids ());
  str "agg "; int (be.Backend.aggregate_pkts ());
  str " "; int (be.Backend.aggregate_bytes ());
  str
    (match be.Backend.policy () with
    | Hfsc.Tail_drop -> " tail\n"
    | Hfsc.Drop_longest -> " longest\n");
  List.iter
    (fun f ->
      str "flow "; int f; str " -> ";
      quoted (be.Backend.cls_name (Hashtbl.find t.flows f));
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
  if admitted then
    Telemetry.note_enqueue t.tele ~id ~now ~size:pkt.Pkt.Packet.size
      ~flow:pkt.Pkt.Packet.flow ~seq:pkt.Pkt.Packet.seq
      ~qlen:(t.be.Backend.queue_length id)
      ~qbytes:(t.be.Backend.queue_bytes id);
  maybe_audit t;
  admitted

(* [Hashtbl.find], not [find_opt]: the hit path of the per-packet
   flow lookup must not allocate an option *)
let enqueue_flow t ~now pkt =
  match Hashtbl.find t.flows pkt.Pkt.Packet.flow with
  | id -> enqueue t ~now id pkt
  | exception Not_found -> false

let dequeue t ~now =
  if t.be.Backend.dequeue ~now then begin
    let o = t.be.Backend.out in
    let pkt = o.Backend.o_pkt and id = o.Backend.o_id in
    let rt = o.Backend.o_rt in
    Telemetry.note_dequeue t.tele ~id ~now ~size:pkt.Pkt.Packet.size
      ~flow:pkt.Pkt.Packet.flow ~seq:pkt.Pkt.Packet.seq
      ~arrival:pkt.Pkt.Packet.arrival ~realtime:rt;
    maybe_audit t;
    Some (pkt, id, if rt then Hfsc.Realtime else Hfsc.Linkshare)
  end
  else begin
    maybe_audit t;
    None
  end

let make_batch ?capacity () = Backend.batch ?capacity ()

let dequeue_batch t ~now b =
  let n = t.be.Backend.deq_fill ~now b in
  for i = 0 to n - 1 do
    let pkt = Backend.batch_pkt b i in
    Telemetry.note_dequeue t.tele ~id:(Backend.batch_id b i) ~now
      ~size:pkt.Pkt.Packet.size ~flow:pkt.Pkt.Packet.flow
      ~seq:pkt.Pkt.Packet.seq ~arrival:pkt.Pkt.Packet.arrival
      ~realtime:(Backend.batch_realtime b i)
  done;
  maybe_audit t;
  n

let adapter t =
  (* native batched poll for transmit-ring fills: one audit tick and
     one clock conversion per burst. The batch is reused across calls
     and only reallocated when the requested burst size changes. *)
  let cache = ref (Backend.batch ~capacity:1 ()) in
  let dequeue_many ~now ~max =
    if max <= 0 then []
    else begin
      if Backend.batch_capacity !cache <> max then
        cache := Backend.batch ~capacity:max ();
      let b = !cache in
      let n = dequeue_batch t ~now b in
      List.init n (fun i ->
          {
            Sched.Scheduler.pkt = Backend.batch_pkt b i;
            cls = t.be.Backend.cls_name (Backend.batch_id b i);
            criterion = (if Backend.batch_realtime b i then "rt" else "ls");
          })
    end
  in
  {
    Sched.Scheduler.name = Backend.kind_name t.be.Backend.kind ^ "-runtime";
    enqueue = (fun ~now p -> enqueue_flow t ~now p);
    dequeue_many = Some dequeue_many;
    dequeue =
      (fun ~now ->
        match dequeue t ~now with
        | None -> None
        | Some (pkt, id, crit) ->
            Some
              {
                Sched.Scheduler.pkt;
                cls = t.be.Backend.cls_name id;
                criterion =
                  (match crit with Hfsc.Realtime -> "rt" | Linkshare -> "ls");
              });
    next_ready = (fun ~now -> t.be.Backend.next_ready ~now);
    backlog_pkts = (fun () -> t.be.Backend.backlog_pkts ());
    backlog_bytes = (fun () -> t.be.Backend.backlog_bytes ());
    deferred_drops = None;
  }
